import json

import pytest

from nakct import (
    Algebra,
    InvalidKupisch,
    InvalidParameter,
    Kind,
    KindMismatch,
    NotACutPoint,
    bounds,
    canonical_rotation,
    cut_points,
    from_kupisch,
    glue,
    homogeneous,
    is_homogeneous,
    is_selfinjective,
    self_glue,
    unglue,
)
from nakct.algebra import from_json_dict, to_json_dict


def test_from_kupisch_examples(lam_a, lam_b):
    assert [lam_a.lmax(j) for j in range(1, 8)] == [1, 1, 1, 2, 2, 5, 5]
    assert [lam_b.lmax(j) for j in range(1, 8)] == [0, 0, 1, 2, 2, 5, 5]


def test_from_kupisch_rejects_unit_entry():
    with pytest.raises(InvalidKupisch):
        from_kupisch(Kind.ACYCLIC, (1, 1, 2))


@pytest.mark.parametrize(
    "kind,c",
    [
        (Kind.ACYCLIC, (2, 2)),        # c_1 must be 1
        (Kind.ACYCLIC, (1, 2, 4)),     # jump bigger than +1
        (Kind.ACYCLIC, (1, 3)),        # c_j <= j violated
        (Kind.ACYCLIC, (1,)),          # needs an arrow
        (Kind.CYCLIC, (2, 1)),         # cyclic entries >= 2
        (Kind.CYCLIC, (2, 4)),         # cyclic jump
        (Kind.CYCLIC, (4, 2)),         # wrap-around jump c_1 > c_m + 1
    ],
)
def test_invalid_kupisch(kind, c):
    with pytest.raises(InvalidKupisch):
        from_kupisch(kind, c)


def test_homogeneous_patterns():
    assert homogeneous(Kind.ACYCLIC, 7, 3).kupisch == (1, 2, 3, 3, 3, 3, 3)
    assert homogeneous(Kind.CYCLIC, 6, 3).kupisch == (3, 3, 3, 3, 3, 3)
    assert homogeneous(Kind.CYCLIC, 1, 2).kupisch == (2,)
    with pytest.raises(InvalidParameter):
        homogeneous(Kind.ACYCLIC, 7, 1)
    with pytest.raises(InvalidParameter):
        homogeneous(Kind.ACYCLIC, 1, 2)
    with pytest.raises(InvalidParameter):
        homogeneous("foo", 3, 2)


def test_bounds_fixtures(lam_a, lam_b):
    assert bounds(lam_a, 2) == (1, 5)
    assert bounds(lam_b, 7) == (5, 9)
    assert bounds(lam_b, 14) == (12, 16)
    assert [lam_a.rmax(i) for i in range(1, 8)] == [3, 5, 5, 5, 7, 7, 7]


def test_rmax_periodicity(lam_b):
    for i in range(-10, 20):
        assert lam_b.rmax(i + 7) == lam_b.rmax(i) + 7
        assert lam_b.lmax(i + 7) == lam_b.lmax(i) + 7


def test_homogeneity_detection(lam_a, lam_b):
    spec = is_homogeneous(homogeneous(Kind.CYCLIC, 6, 5))
    assert spec is not None and spec.l == 5
    assert is_selfinjective(homogeneous(Kind.CYCLIC, 6, 5))
    assert is_homogeneous(lam_a) is None
    assert not is_selfinjective(lam_a)
    assert is_homogeneous(lam_b) is None
    assert not is_selfinjective(lam_b)
    # the full path algebra matches the pattern with l = m
    assert is_homogeneous(from_kupisch(Kind.ACYCLIC, (1, 2, 3))).l == 3
    # acyclic homogeneous is never selfinjective
    assert not is_selfinjective(homogeneous(Kind.ACYCLIC, 6, 2))


def test_glue_fixture(glued15):
    assert glued15.kind is Kind.ACYCLIC
    assert glued15.m == 15
    assert glued15.kupisch == (1, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2)


def test_glue_associative():
    x = homogeneous(Kind.ACYCLIC, 3, 2)
    y = homogeneous(Kind.ACYCLIC, 5, 3)
    z = from_kupisch(Kind.ACYCLIC, (1, 2, 2, 3))
    assert glue(glue(x, y), z) == glue(x, glue(y, z))


def test_glue_radical_square():
    glued = glue(homogeneous(Kind.ACYCLIC, 5, 2), homogeneous(Kind.ACYCLIC, 5, 2))
    assert glued == homogeneous(Kind.ACYCLIC, 9, 2)


def test_glue_kind_mismatch(lam_b):
    with pytest.raises(KindMismatch):
        glue(lam_b, lam_b)


def test_self_glue_fixture(glued15, lam_c):
    assert lam_c.kind is Kind.CYCLIC
    assert lam_c.m == 14
    assert lam_c.kupisch == (2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2)


def test_self_glue_smallest():
    loop = self_glue(homogeneous(Kind.ACYCLIC, 2, 2))
    assert loop.kind is Kind.CYCLIC and loop.kupisch == (2,)


def test_cut_points(lam_c, lam_a):
    assert cut_points(lam_c) == {1, 7, 8, 9, 10, 11, 12, 13, 14}
    # acyclic: interior split points only
    assert cut_points(lam_a) == {5}


def test_unglue_round_trip(lam_c, glued15):
    assert unglue(lam_c, 1) == glued15
    for p in sorted(cut_points(lam_c)):
        again = self_glue(unglue(lam_c, p))
        assert canonical_rotation(again) == canonical_rotation(lam_c)
    with pytest.raises(NotACutPoint):
        unglue(lam_c, 3)


def test_round_trip_identity(lam_a, lam_b, lam_c):
    for algebra in (lam_a, lam_b, lam_c):
        assert from_kupisch(algebra.kind, algebra.kupisch) == algebra


def test_galois_property(lam_a, lam_b):
    for algebra in (lam_a, lam_b):
        for i in range(1, algebra.m + 1):
            for j in range(i, i + algebra.m + 4):
                assert (algebra.lmax(j) <= i) == (j <= algebra.rmax(i))


def test_json_round_trip(lam_a, lam_c):
    for algebra in (lam_a, lam_c):
        blob = json.dumps(to_json_dict(algebra))
        assert from_json_dict(json.loads(blob)) == algebra
    shorthand = {"kind": "cyclic", "homogeneous": {"m": 6, "l": 3}}
    assert from_json_dict(shorthand) == homogeneous(Kind.CYCLIC, 6, 3)
    with pytest.raises(InvalidParameter):
        from_json_dict({"kupisch": [1, 2]})
    for bad in (
        {"kind": "acyclic", "kupisch": [1, 2.9, 3]},
        {"kind": "acyclic", "kupisch": [1, True]},
        {"kind": "acyclic", "kupisch": [1, "2"]},
        {"kind": "acyclic", "kupisch": "12"},
        {"kind": "cyclic", "homogeneous": {"m": 6.0, "l": 3}},
        {"kind": "cyclic", "homogeneous": {"m": 6, "l": "3"}},
        {"kind": "cyclic", "homogeneous": {"m": 6, "l": False}},
        {"kind": 1, "kupisch": [1, 2]},
    ):
        with pytest.raises(InvalidParameter):
            from_json_dict(bad)


def test_algebra_is_hashable_value(lam_a):
    assert lam_a == Algebra(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3))
    assert hash(lam_a) == hash(Algebra(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3)))
