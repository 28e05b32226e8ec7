"""Structural invariants checked over randomized algebras."""

import itertools

from hypothesis import given, settings, strategies as st

from nakct import (
    INFINITY,
    Kind,
    ZERO,
    canonical,
    ext_dim,
    from_kupisch,
    gldim,
    glue,
    hom_dim,
    indecomposables,
    injectives,
    is_homogeneous,
    is_selfinjective,
    omega,
    projectives,
)


@st.composite
def acyclic_kupisch(draw, max_m=9, max_entry=6):
    m = draw(st.integers(2, max_m))
    c = [1]
    for j in range(2, m + 1):
        c.append(draw(st.integers(2, min(j, c[-1] + 1, max_entry))))
    return from_kupisch(Kind.ACYCLIC, tuple(c))


@st.composite
def cyclic_kupisch(draw, max_m=9, max_entry=6):
    m = draw(st.integers(1, max_m))
    c = [draw(st.integers(2, max_entry)) for _ in range(m)]
    # clamp around the cycle until the +1 step condition holds everywhere;
    # clamping only lowers entries and never below 2
    for _ in range(m):
        for j in range(m):
            c[(j + 1) % m] = min(c[(j + 1) % m], c[j] + 1)
    return from_kupisch(Kind.CYCLIC, tuple(c))


any_algebra = st.one_of(acyclic_kupisch(), cyclic_kupisch())


@settings(max_examples=60, deadline=None)
@given(any_algebra)
def test_galois_adjunction(algebra):
    for i in range(1, algebra.m + 1):
        for j in range(i, i + 2 * algebra.m + 2):
            assert (algebra.lmax(j) <= i) == (j <= algebra.rmax(i))


@settings(max_examples=60, deadline=None)
@given(any_algebra)
def test_round_trip(algebra):
    assert from_kupisch(algebra.kind, algebra.kupisch) == algebra


@settings(max_examples=60, deadline=None)
@given(any_algebra)
def test_homogeneous_detection_matches_rmax_pattern(algebra):
    spec = is_homogeneous(algebra)
    m = algebra.m
    patterns = []
    for l in range(2, max(algebra.kupisch) + 2):
        if algebra.kind is Kind.CYCLIC:
            ok = all(algebra.rmax(i) == i + l - 1 for i in range(1, m + 1))
        else:
            ok = all(algebra.rmax(i) == min(i + l - 1, m) for i in range(1, m + 1))
        if ok:
            patterns.append(l)
    if spec is None:
        assert not patterns
    else:
        assert spec.l in patterns


@settings(max_examples=40, deadline=None)
@given(any_algebra)
def test_selfinjectivity_matches_module_category(algebra):
    assert is_selfinjective(algebra) == (projectives(algebra) == injectives(algebra))


@settings(max_examples=40, deadline=None)
@given(any_algebra)
def test_omega_omega_inverse(algebra):
    from nakct import cover_hull, is_injective

    for module in indecomposables(algebra):
        image = omega(algebra, module, 1)
        if image is ZERO:
            continue
        back = omega(algebra, image, -1)
        if back is ZERO:
            continue
        # the round trip extends the top within the same socle; it is the
        # identity exactly when the projective cover is injective (so always
        # over a selfinjective algebra)
        assert back.i == module.i and back.j >= module.j
        cover, _, _, _ = cover_hull(algebra, module)
        assert (back == module) == is_injective(algebra, cover)


def _raw_omega(algebra, raw, k):
    i, j = raw
    for _ in range(k):
        a = algebra.lmax(j)
        if a == i:
            return None
        i, j = a, i - 1
    return i, j


@settings(max_examples=40, deadline=None)
@given(any_algebra, st.integers(1, 4))
def test_syzygy_monotonicity_raw(algebra, k):
    mods = [(m.i, m.j) for m in indecomposables(algebra)]
    for r1, r2 in itertools.product(mods[:14], repeat=2):
        o1 = _raw_omega(algebra, r1, k)
        o2 = _raw_omega(algebra, r2, k)
        if o1 is None or o2 is None:
            continue
        if k % 2 == 0:
            if r1[0] == r2[0]:
                assert o1[0] == o2[0]
            if r1[0] <= r2[0]:
                assert o1[0] <= o2[0]
            if r1[1] == r2[1]:
                assert o1[1] == o2[1]
            if r1[1] <= r2[1]:
                assert o1[1] <= o2[1]
        else:
            if r1[0] == r2[0]:
                assert o1[1] == o2[1]
            if r1[0] <= r2[0]:
                assert o1[1] <= o2[1]
            if r1[1] == r2[1]:
                assert o1[0] == o2[0]
            if r1[1] <= r2[1]:
                assert o1[0] <= o2[0]


@settings(max_examples=40, deadline=None)
@given(any_algebra)
def test_tetragon_nonvanishing(algebra):
    mods = indecomposables(algebra)
    for module in mods[:10]:
        i, j = module
        top = algebra.rmax(i)
        for i2 in range(i + 1, j + 2):
            for j2 in range(max(i2, j + 1), top + 1):
                other = canonical(algebra, i2, j2)
                assert algebra.exists(other.i, other.j)
                assert ext_dim(algebra, other, module, 1) >= 1


@settings(max_examples=25, deadline=None)
@given(acyclic_kupisch(max_m=7, max_entry=5), acyclic_kupisch(max_m=7, max_entry=5))
def test_gldim_subadditive_under_gluing(a1, a2):
    d1, d2 = gldim(a1), gldim(a2)
    assert d1 is not INFINITY and d2 is not INFINITY
    assert gldim(glue(a1, a2)) <= d1 + d2


@settings(max_examples=30, deadline=None)
@given(acyclic_kupisch(max_m=7, max_entry=5), acyclic_kupisch(max_m=7, max_entry=5))
def test_glued_projectives_follow_blocks(a1, a2):
    glued = glue(a1, a2)
    shift = a1.m - 1
    left = {p for p in projectives(a1)}
    right = {canonical(glued, p.i + shift, p.j + shift) for p in projectives(a2)}
    seam = canonical(glued, a1.m, a1.m)
    assert projectives(glued) == left | (right - {seam})
    left_inj = {q for q in injectives(a1)}
    right_inj = {canonical(glued, q.i + shift, q.j + shift) for q in injectives(a2)}
    assert injectives(glued) == right_inj | (left_inj - {seam})


@settings(max_examples=50, deadline=None)
@given(any_algebra)
def test_hom_matches_matrix_oracle_sampled(algebra):
    from oracles.matrix import matrix_hom_dim

    mods = indecomposables(algebra)
    for m1 in mods[:6]:
        for m2 in mods[:6]:
            assert hom_dim(algebra, m1, m2) == matrix_hom_dim(algebra, m1, m2)
