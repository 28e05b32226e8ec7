"""Hom and Ext dimensions, exactly.

Hom spaces between uniserials have a closed counting formula, and Ext is
computed by dimension shifting along minimal projective resolutions; no
stable-category shortcuts.  Everything below uses only the library.  The
test suite cross-checks both formulas against an honest linear-algebra
computation on matrix representations (commuting equations, integer
fraction-free elimination), which lives with the tests, not in the package.
"""

import itertools

from nakct import (
    INFINITY,
    Indec,
    Kind,
    ext_dim,
    from_kupisch,
    gldim,
    hom_dim,
    homogeneous,
    indecomposables,
    min_resolution,
    omega,
    projectives,
    simple,
    ZERO,
)

lam = from_kupisch(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3))

print("dim Hom(M(1,3), M(2,4)) =", hom_dim(lam, Indec(1, 3), Indec(2, 4)))

# A cyclic algebra where a hom space is two-dimensional because the module
# wraps around the cycle twice.
wrap = from_kupisch(Kind.CYCLIC, (4, 4))
big = Indec(1, 4)
print("\nwrap-around example: dim End(M(1,4)) =", hom_dim(wrap, big, big))
# dim Hom(P_v, M) counts the composition factors S_v of M
tops = sorted(projectives(wrap), key=lambda p: wrap.vertex(p.j))
print("per-vertex dimensions of M(1,4):", [hom_dim(wrap, p, big) for p in tops])

# Minimal resolutions terminate (acyclic case) or cycle forever.
print("\nresolution of M(3,4):", min_resolution(lam, Indec(3, 4), 3))
swing = homogeneous(Kind.CYCLIC, 2, 2)
print("resolution of S_1 over the 2-cycle:", min_resolution(swing, simple(swing, 1), 5))
print("global dimensions:", gldim(lam), "and", gldim(swing),
      "(infinity)" if gldim(swing) is INFINITY else "")

# Ext through the resolution: Ext^2(X, Y) = Ext^1(Omega X, Y) for every pair.
print("\ndim Ext^1(M(3,4), M(2,3)) =", ext_dim(lam, Indec(3, 4), Indec(2, 3), 1))
mismatches = nonzero = 0
for x, y in itertools.product(indecomposables(lam), repeat=2):
    syzygy = omega(lam, x, 1)
    shifted = 0 if syzygy is ZERO else ext_dim(lam, syzygy, y, 1)
    mismatches += ext_dim(lam, x, y, 2) != shifted
    nonzero += shifted != 0
print(f"pairs with Ext^2 != 0: {nonzero}; dimension-shifting mismatches: {mismatches}")

# The subtle case a stable-homs shortcut would get wrong: over the
# two-vertex line algebra the first syzygy of S_2 is projective, yet
# Ext^1(S_2, S_1) is one-dimensional.
line = from_kupisch(Kind.ACYCLIC, (1, 2))
print("\nExt^1(S_2, S_1) over the line:", ext_dim(line, Indec(2, 2), Indec(1, 1), 1))
