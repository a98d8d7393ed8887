"""
Binomial identities behind the closed forms
===========================================

The closed forms rest on two finite double sums over binomial
coefficients.  Both sides of each are ordinary integer polynomials,
so the package evaluates them exactly and simply compares.  The
second identity is special: it is false on the boundary of its
parameter range, and the evaluator says so rather than papering
over it.
"""

from klpoly import (
    KLCache,
    family_pair,
    inverse_kl,
    lemma_one_sides,
    lemma_two_sides,
)
from klpoly.families import signed_weight

# The first identity collapses a triple sum to a geometric sum with a
# sign.  A few parameter choices, then a sweep.
for k, m in ((1, 1), (2, 3), (4, 4)):
    sides = lemma_one_sides(k, m)
    print(f"identity 1 at ({k},{m}): lhs = {sides.lhs}, equal = {sides.equal}")
sweep = all(lemma_one_sides(k, m).equal for k in range(1, 9) for m in range(1, 9))
print("identity 1 over 1 <= k,m <= 8:", sweep)

# The second identity sums a signed weight f(a, b) over the grid
# [0, k) x [0, m).  The weight itself is exposed, so single terms can
# be inspected.
print("f_{2,2}(0, 0) =", signed_weight(2, 2, 0, 0))
print("f_{2,2}(1, 1) =", signed_weight(2, 2, 1, 1))

# On the interior of the parameter range the sum collapses to
# (-1)^(k+m) (1 + q).
for k, m in ((2, 2), (3, 5)):
    sides = lemma_two_sides(k, m)
    print(f"identity 2 at ({k},{m}): lhs = {sides.lhs}, rhs = {sides.rhs}, "
          f"equal = {sides.equal}")

# On the boundary k = 1 the two sides genuinely differ.  At (1, 1) the
# sum evaluates to 1 - q against a claimed 1 + q.
edge = lemma_two_sides(1, 1)
print(f"identity 2 at (1,1): lhs = {edge.lhs}, rhs = {edge.rhs}, "
      f"equal = {edge.equal}")

# The discrepancy belongs to the identity alone.  The polynomial fact
# it was meant to support holds at (1, 1) anyway, as the recursion
# confirms directly.
cache = KLCache()
bottom, top = family_pair("y", 1, 1)
print("inverse_kl(y_11, v_11) =", inverse_kl(bottom, top, cache))
