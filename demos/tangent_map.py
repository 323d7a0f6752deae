"""The tangent map of the left-normed exponential and its inverse.

tau(y) = exp_l(x) \\ d/ds exp_l(x + s y)|_0 expands in nested primitive
brackets with coefficients m_J; inverting it swaps them for the
alternating sums n_J, and x + tau^{-1}(y) is the BCH series through
first order in y.
"""

from nabch import (
    Gen,
    PrimCombo,
    Series,
    bch_first_order_combo,
    bch_monomial,
    gamma,
    m_coeff,
    n_coeff,
    tau_apply,
    tau_components,
    tau_inverse,
    y_partial_x,
)
from nabch.series import exp_l

print("homogeneous components of the tangent map:")
for n, tau in enumerate(tau_components(3)):
    print(f"  tau_{n} = {tau}")

print("\nsame thing from the derivation route, gamma_{y d/dx}(exp_l(x)):")
n = 3
lhs = gamma(y_partial_x, exp_l("x", n + 1))
rhs = sum((t.evaluate(n + 1) for t in tau_components(n)), Series.zero(n + 1))
print("  match:", lhs == rhs)

print("\nround trip through the inverse at truncation 6:")
y = Series.generator("y", 6)
t = PrimCombo.single(Gen("y"))
print("  tau(tau^{-1}(y)) == y:", tau_apply(tau_inverse(t, 6), 6).evaluate(6) == y)

print("\nfirst-order BCH (coefficients n_J on nested brackets):")
combo = bch_first_order_combo(4)
for d in range(1, 5):
    part = combo.component(d)
    if not part.is_zero():
        print(f"  degree {d}:  {part}")

print("\nm_J vs n_J on small compositions:")
for j in [(1,), (2,), (1, 1), (2, 1), (1, 2)]:
    print(f"  J={j}: m={m_coeff(j)}  n={n_coeff(j)}")

b = bch_monomial(4)
fo = combo.evaluate(4)
agree = all(fo.coefficient(m) == c for m, c in b.terms.items() if m.ydeg <= 1)
print("\ny-linear part matches the full series:", agree)
