"""
Bruhat order from rank tables
=============================

Comparing two permutations in Bruhat order needs nothing beyond
counting: x <= w exactly when every entry of the rank-difference
table is nonnegative.  This script walks that machinery from raw
counts up to interval enumeration and the grid pictures.
"""

from klpoly import (
    RankDifferenceTable,
    bruhat_leq,
    coatom_count,
    format_interval,
    identity,
    interval,
    rank_count,
    render_picture,
)

# The rank function r_w(p, q) counts positions i <= p carrying a value
# w(i) >= q.  For w = 6 3 4 2 5 1, the prefix of length 3 holds the
# values 6, 3, 4, of which two are at least 4.
w = (6, 3, 4, 2, 5, 1)
print("r_w(3, 4) =", rank_count(w, 3, 4))

# Subtracting tables for two permutations of the same size gives the
# rank-difference table.  Nonnegative everywhere means comparable.
x = (3, 1, 5, 2, 4, 6)
table = RankDifferenceTable(x, w)
print("min entry of the difference table:", table.min_entry())
print("so x <= w is", bruhat_leq(x, w))

# The same test separates incomparable pairs: neither of these two
# length-4 elements of S_4 sits below the other.
a, b = (3, 4, 1, 2), (4, 2, 3, 1)
print("3412 <= 4231:", bruhat_leq(a, b))
print("4231 <= 3412:", bruhat_leq(b, a))

# Everything below a fixed top is the interval from the identity,
# walked down through covers a length at a time.  Of the 24 elements of
# S_4, only four fail to sit below 4231: the two other elements of its
# length, the longest element, and the incomparable 3412.  Its down-set
# therefore has 20 elements counting 4231 itself.
print("elements below 4231:", len(interval(identity(4), b)))

# An interval [x, w] is the slice of the order between two comparable
# elements, listed bottom to top.
small = interval((1, 2, 3), (3, 2, 1))
print("the full interval of S_3, smallest to largest:")
print(format_interval(small))

# Coatoms are the elements the top covers inside the interval.  Their
# count bounds coefficients of the polynomials computed elsewhere in
# the package.
print("coatoms of [123, 321]:", coatom_count((1, 2, 3), (3, 2, 1)))

# Finally, the picture: dots for the two permutation matrices, with a
# filled dot for the bottom, a ring for the top, and shading wherever
# the rank difference is at least 1.  Shading takes precedence, so a
# dot inside the shaded region is hidden by it.  The shaded region is
# the locus where the two matrices genuinely differ.
print()
print("the pair (123456-style one-line) x =", x, " w =", w)
print(render_picture(x, w))
