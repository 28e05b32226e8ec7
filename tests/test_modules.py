import random

import pytest

from nakct import (
    INFINITY,
    ZERO,
    Indec,
    InvalidParameter,
    Kind,
    ar_quiver,
    canonical,
    cover_hull,
    ext_dim,
    ext_dims_upto,
    from_kupisch,
    gldim,
    hom_dim,
    homogeneous,
    indec,
    indecomposables,
    injectives,
    is_projective,
    min_resolution,
    omega,
    projective_dimension,
    projectives,
    simple,
    tau_n,
    translate,
)
from nakct.modules import ext_table
from oracles.matrix import matrix_ext_dim


def test_indecomposable_counts(lam_a):
    assert len(indecomposables(lam_a)) == 18
    assert len(indecomposables(homogeneous(Kind.CYCLIC, 6, 3))) == 18
    chain = indecomposables(homogeneous(Kind.CYCLIC, 1, 4))
    assert chain == [Indec(1, 1), Indec(1, 2), Indec(1, 3), Indec(1, 4)]


def test_count_equals_kupisch_sum(lam_a, lam_b, lam_c):
    for algebra in (lam_a, lam_b, lam_c):
        assert len(indecomposables(algebra)) == sum(algebra.kupisch)


def test_indec_validation(lam_a, lam_b):
    assert indec(lam_a, 2, 5) == Indec(2, 5)
    with pytest.raises(InvalidParameter):
        indec(lam_a, 2, 6)
    # a line algebra does not identify M(i+m, j+m) with M(i,j); a cycle does
    for i, j in ((0, 0), (8, 8), (9, 12)):
        with pytest.raises(InvalidParameter):
            indec(lam_a, i, j)
    assert indec(lam_b, 8, 9) == Indec(1, 2)


def test_cover_hull_fixtures(lam_a, lam_b):
    assert cover_hull(lam_a, Indec(4, 5)) == (Indec(2, 5), Indec(4, 5), False, True)
    cover, _, proj, _ = cover_hull(lam_a, Indec(1, 1))
    assert cover == Indec(1, 1) and proj
    cover, hull, _, _ = cover_hull(lam_b, Indec(7, 7))
    assert cover == Indec(5, 7) and hull == Indec(7, 9)


def test_omega_fixtures(lam_a):
    assert omega(homogeneous(Kind.CYCLIC, 6, 5), Indec(1, 1), 1) == Indec(3, 6)
    assert omega(lam_a, Indec(3, 4), 2) == Indec(1, 1)
    assert omega(lam_a, Indec(1, 1), 1) is ZERO
    assert omega(lam_a, ZERO, 5) is ZERO
    assert omega(lam_a, Indec(3, 4), 0) == Indec(3, 4)


def test_translate_fixtures(lam_a):
    assert translate(lam_a, Indec(2, 3), "fwd") == Indec(1, 2)
    assert tau_n(homogeneous(Kind.ACYCLIC, 9, 2), Indec(1, 1), 4, "bwd") == Indec(5, 5)
    assert tau_n(homogeneous(Kind.ACYCLIC, 7, 3), Indec(1, 1), 4, "bwd") == Indec(6, 7)


def test_omega_inverse_on_selfinjective():
    algebra = homogeneous(Kind.CYCLIC, 6, 5)
    for module in indecomposables(algebra):
        if is_projective(algebra, module):
            continue
        assert omega(algebra, omega(algebra, module, 1), -1) == module
        assert omega(algebra, omega(algebra, module, -1), 1) == module


def test_hom_fixtures(lam_a):
    assert hom_dim(lam_a, Indec(1, 3), Indec(2, 4)) == 1
    wrap = from_kupisch(Kind.CYCLIC, (4, 4))
    assert hom_dim(wrap, Indec(1, 4), Indec(1, 4)) == 2
    assert hom_dim(lam_a, simple(lam_a, 1), simple(lam_a, 2)) == 0


def test_min_resolution_fixtures(lam_a):
    assert min_resolution(lam_a, Indec(3, 4), 3) == [
        Indec(2, 4),
        Indec(1, 2),
        Indec(1, 1),
        ZERO,
    ]
    proj = Indec(2, 4)
    assert min_resolution(lam_a, proj, 2) == [proj, ZERO, ZERO]
    swing = homogeneous(Kind.CYCLIC, 2, 2)
    terms = min_resolution(swing, simple(swing, 1), 5)
    assert terms == [Indec(2, 3), Indec(1, 2), Indec(2, 3), Indec(1, 2), Indec(2, 3), Indec(1, 2)]


def test_ext_fixtures(lam_a):
    assert ext_dim(lam_a, Indec(3, 4), Indec(2, 3), 1) == 1
    algebra = homogeneous(Kind.CYCLIC, 8, 2)
    dims = [ext_dim(algebra, simple(algebra, 5), simple(algebra, 1), k) for k in (1, 2, 3, 4)]
    assert dims == [0, 0, 0, 1]
    for proj in projectives(lam_a):
        for other in indecomposables(lam_a):
            assert ext_dim(lam_a, proj, other, 1) == 0
            assert ext_dim(lam_a, proj, other, 3) == 0


def test_ext_survives_projective_syzygy():
    # Omega(S_2) is projective over the two-vertex line algebra, yet Ext^1
    # is nonzero; a stable-Hom shortcut would get this wrong.
    line = from_kupisch(Kind.ACYCLIC, (1, 2))
    assert ext_dim(line, Indec(2, 2), Indec(1, 1), 1) == 1
    assert matrix_ext_dim(line, Indec(2, 2), Indec(1, 1), 1) == 1


def test_gldim_fixtures(lam_c, glued15):
    assert gldim(homogeneous(Kind.ACYCLIC, 7, 3)) == 4
    assert gldim(glued15) == 12
    assert gldim(lam_c) == INFINITY
    assert projective_dimension(lam_c, Indec(2, 2)) == INFINITY
    assert gldim(from_kupisch(Kind.ACYCLIC, (1, 2, 3))) == 1


def test_gldim_long_line():
    # one Omega walk: each simple's syzygy is the previous simple
    assert gldim(homogeneous(Kind.ACYCLIC, 20001, 2)) == 20000


def test_infinity_is_not_a_number(lam_c):
    assert not isinstance(INFINITY, (int, float))
    assert repr(INFINITY) == "INFINITY"
    assert gldim(lam_c) is INFINITY


def _long_cyclic(rng, m):
    """A cyclic Kupisch series with entries up to 3m, so modules wrap around."""
    while True:
        c = [rng.randint(2, 3 * m)]
        for _ in range(m - 1):
            c.append(rng.randint(max(2, c[-1] - 2), min(3 * m, c[-1] + 1)))
        if c[0] <= c[-1] + 1:
            return from_kupisch(Kind.CYCLIC, c)


def test_ext_table_on_long_modules():
    rng = random.Random(9)
    kmax = 3
    algebras = [_long_cyclic(rng, rng.randint(1, 5)) for _ in range(12)]
    algebras += [from_kupisch(Kind.CYCLIC, [50]), from_kupisch(Kind.CYCLIC, [20, 21])]
    merged = 0
    for algebra in algebras:
        ground = indecomposables(algebra)
        table = ext_table(algebra, kmax)
        m = algebra.m
        # a non-projective M(i,j) with j - i >= m whose syzygy M(p, i-1)
        # holds c and c - m: the runs of the two meet
        merged += sum(
            mx.j - mx.i >= m and mx.i - 1 - algebra.lmax(mx.j) >= m for mx in ground
        )
        for x, mx in enumerate(ground):
            for y, my in enumerate(ground):
                dims = ext_dims_upto(algebra, mx, my, kmax)
                bits = tuple(table[k][x] >> y & 1 for k in range(kmax))
                assert bits == tuple(int(d != 0) for d in dims), (algebra, mx, my)
    assert merged > 0


def test_ar_quiver_fixtures(lam_a, lam_b):
    quiver = ar_quiver(lam_a)
    assert len(quiver.vertices) == 18
    arrows = {(s, t) for s, t, _ in quiver.arrows}
    assert (Indec(2, 4), Indec(2, 5)) in arrows
    assert (Indec(2, 5), Indec(2, 6)) not in arrows
    tags = {(s, t): tag for s, t, tag in quiver.arrows}
    assert tags[(Indec(2, 4), Indec(2, 5))] == "mono"
    assert tags[(Indec(2, 5), Indec(3, 5))] == "epi"
    assert len(ar_quiver(homogeneous(Kind.ACYCLIC, 7, 3)).vertices) == 18
    wrapped = ar_quiver(lam_b)
    assert (Indec(7, 8), Indec(7, 9)) in {(s, t) for s, t, _ in wrapped.arrows}


def test_ar_quiver_row_shape():
    quiver = ar_quiver(homogeneous(Kind.ACYCLIC, 7, 3))
    lengths = sorted(v.length for v in quiver.vertices)
    assert lengths.count(1) == 7 and lengths.count(2) == 6 and lengths.count(3) == 5


def test_canonicalization(lam_b):
    assert canonical(lam_b, -3, 0) == Indec(4, 7)
    assert canonical(lam_b, 8, 10) == Indec(1, 3)


def test_injective_projective_sets(lam_a):
    assert projectives(lam_a) == {
        Indec(1, 1), Indec(1, 2), Indec(1, 3), Indec(2, 4), Indec(2, 5),
        Indec(5, 6), Indec(5, 7),
    }
    assert injectives(lam_a) == {
        Indec(1, 3), Indec(2, 5), Indec(3, 5), Indec(4, 5), Indec(5, 7),
        Indec(6, 7), Indec(7, 7),
    }
