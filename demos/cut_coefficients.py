"""BCH coefficients one monomial at a time.

Every appearance of a monomial w inside log_l(exp_l(x) exp_l(y)) comes from
grafting branches of the shape x^i y^j onto a skeleton tau; summing
c_tau / (prod i! prod j!) over these "BCH-cuts" gives the coefficient of w
without expanding the whole series.  The sum factors over the left spine
of w, so coefficient_via_cuts never lists the cuts and reaches degree 32.
"""

from nabch import (
    bch_monomial,
    c_tau,
    coefficient_via_cuts,
    closed_form_xmyn,
    enumerate_bch_cuts,
    format_monomial,
    parse,
    xmyn_monomial,
)

for text in ["((xx)y)", "(x(xy))", "((xy)(xy))"]:
    w = parse(text)
    print(f"== {format_monomial(w, 'latex')}")
    for cut in enumerate_bch_cuts(w):
        branches = " ".join(f"[{format_monomial(b, 'latex')}]" for b in cut.branches)
        print(f"   skeleton {format_monomial(cut.skeleton)}  c_tau = {c_tau(cut.skeleton)}  branches {branches}")
    got = coefficient_via_cuts(w)
    ref = bch_monomial(w.degree).coefficient(w)
    print(f"   coefficient: {got} (series agrees: {got == ref})\n")

print("closed form for x^m y^n (1/(m!n!) when n >= 2, m/(m+1)! when n = 1):")
for m in range(1, 4):
    for n in range(1, 4):
        w = xmyn_monomial(m, n)
        print(
            f"  {format_monomial(w, 'latex'):10s} -> {closed_form_xmyn(m, n)}"
            f"  (cuts: {coefficient_via_cuts(w)})"
        )

w = xmyn_monomial(16, 16)
print(f"\ndegree {w.degree}: x^16 y^16 -> {coefficient_via_cuts(w)}")
print(f"  closed form 1/(16! 16!) = {closed_form_xmyn(16, 16)}")
