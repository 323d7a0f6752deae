"""The non-associative BCH series, three ways.

Builds log_l(exp_l(x) exp_l(y)) through the tree-indexed logarithm, through
the Magnus-type ODE in the primitive-operation basis, and checks them
against each other and against the classical Dynkin series after forgetting
parentheses.
"""

from nabch import bch_monomial, bch_ode, dynkin_bch, project_associative

N = 4

print(f"== monomial basis, degree <= {N}")
series = bch_monomial(N)
print(series.to_text())

print(f"\n== primitive-operation basis (ODE route), degree <= {N}")
combo = bch_ode(N)
for d in range(1, N + 1):
    part = combo.component(d)
    if not part.is_zero():
        print(f"degree {d}:  {part}")

print("\n== agreement")
print("ODE evaluates to the monomial series:", combo.evaluate(N) == series)

projected = project_associative(series)
print("projection equals the Dynkin series:", projected == dynkin_bch(N))
print("\nassociative shadow:")
print(projected)
