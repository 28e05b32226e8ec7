import pytest

import nakct.modules
from nakct import (
    GroundSetTooLarge,
    Indec,
    InvalidParameter,
    InvalidSubcategory,
    Kind,
    ZERO,
    classify_nz,
    enumerate_ct,
    from_kupisch,
    homogeneous,
    indecomposables,
    injectives,
    is_injective,
    is_projective,
    omega,
    projectives,
    simple,
    tau_n,
    tau_n_closure,
    translate,
    verify_ct,
)
from nakct.tilting import ct_failures


def a9r2():
    return homogeneous(Kind.ACYCLIC, 9, 2)


def marked_a9r2():
    algebra = a9r2()
    return algebra, frozenset(
        projectives(algebra) | {simple(algebra, 1), simple(algebra, 5), simple(algebra, 9)}
    )


def test_verify_marked_subcategory():
    algebra, members = marked_a9r2()
    report = verify_ct(algebra, members, 4, "nZ")
    assert report.verdict and not report.failures


def test_verify_perp_gap_both_sides():
    algebra, members = marked_a9r2()
    report = verify_ct(algebra, members, 2, "n")
    assert not report.verdict
    gaps = {f.module: f.side for f in report.failures if f.kind == "PerpGap"}
    assert gaps[Indec(3, 3)] == "both"


def test_verify_missing_injective():
    algebra = homogeneous(Kind.ACYCLIC, 7, 3)
    members = frozenset(projectives(algebra) | injectives(algebra)) - {Indec(7, 7)}
    report = verify_ct(algebra, members, 4, "nZ")
    assert not report.verdict
    assert any(
        f.kind == "MissingInjective" and f.module == Indec(7, 7)
        for f in report.failures
    )
    # the lazy stream yields the same failures in the same order
    stream = ct_failures(algebra, members, 4, "nZ")
    assert next(stream) == report.failures[0]
    assert (report.failures[0],) + tuple(stream) == report.failures


def test_verify_rejects_foreign_member():
    algebra = homogeneous(Kind.ACYCLIC, 7, 3)
    with pytest.raises(InvalidSubcategory):
        verify_ct(algebra, frozenset({Indec(1, 7)}), 2)
    # ct_failures checks its arguments when called, not when first iterated
    with pytest.raises(InvalidSubcategory):
        ct_failures(algebra, frozenset({Indec(1, 7)}), 2)
    with pytest.raises(InvalidParameter):
        ct_failures(algebra, frozenset(), 1)
    # a member is a pair of integers; nothing else is coerced into a module
    for stray in (ZERO, Indec(2.0, 2), (1, 1, 1)):
        with pytest.raises(InvalidSubcategory, match="is not a module"):
            verify_ct(algebra, frozenset({Indec(1, 1), stray}), 2)


class _Stray:
    """A member that compares with nothing, with a chosen hash."""

    def __init__(self, name, hash_value):
        self.name, self.hash_value = name, hash_value

    def __hash__(self):
        return self.hash_value

    def __repr__(self):
        return self.name


def test_verify_names_one_foreign_member_deterministically():
    algebra = homogeneous(Kind.ACYCLIC, 7, 3)

    def named(members):
        with pytest.raises(InvalidSubcategory) as caught:
            verify_ct(algebra, members, 2)
        message = str(caught.value)
        assert message.endswith(f" is not a module over {algebra}")
        return message.split(" is not", 1)[0]

    # comparable foreign members: the least is named, as before
    assert named([(1, 1), (9, 9), (8, 8)]) == "(8, 8)"
    # incomparable ones used to raise a bare TypeError; the least by repr is named
    assert named([(1, 1), None, "x"]) == "x"
    assert named([(1, 1), (9, 9), "ab"]) == "ab"
    # whatever order the set iterates in
    assert named([_Stray("a", 1), _Stray("b", 2)]) == "a"
    assert named([_Stray("a", 2), _Stray("b", 1)]) == "a"


def test_tau_closure_fixtures():
    algebra, members = marked_a9r2()
    assert tau_n_closure(algebra, 4) == members

    deep = homogeneous(Kind.ACYCLIC, 7, 3)
    closure = tau_n_closure(deep, 4)
    assert closure == frozenset(projectives(deep) | injectives(deep))
    assert len(closure) == 9
    assert verify_ct(deep, closure, 4, "nZ").verdict

    small = homogeneous(Kind.ACYCLIC, 5, 2)
    assert not verify_ct(small, tau_n_closure(small, 3), 3, "n").verdict


def test_enumerate_counts():
    assert len(enumerate_ct(homogeneous(Kind.CYCLIC, 8, 2), 4, "nZ")) == 4
    subs = enumerate_ct(homogeneous(Kind.CYCLIC, 6, 5), 3, "nZ")
    assert len(subs) == 3
    algebra = homogeneous(Kind.CYCLIC, 6, 5)
    with_s1 = [s for s in subs if Indec(1, 1) in s]
    assert len(with_s1) == 1
    assert with_s1[0] == frozenset(
        projectives(algebra) | {Indec(1, 1), Indec(4, 4), Indec(1, 4), Indec(4, 7)}
    )


def test_enumerate_empty_for_loewy_three():
    algebra = homogeneous(Kind.CYCLIC, 6, 3)
    for n in (2, 3, 4, 5):
        assert enumerate_ct(algebra, n, "nZ") == []


def test_enumerate_ground_bound():
    algebra = homogeneous(Kind.CYCLIC, 10, 8)
    with pytest.raises(GroundSetTooLarge):
        enumerate_ct(algebra, 2, "nZ")
    assert enumerate_ct(algebra, 2, "nZ", max_ground_set=80) == []


def test_enumerate_bound_override():
    algebra = homogeneous(Kind.CYCLIC, 10, 8)
    assert enumerate_ct(algebra, 2, "nZ", max_ground_set=80) == []
    with pytest.raises(GroundSetTooLarge):
        enumerate_ct(algebra, 2, "nZ", max_ground_set=10)


def test_enumerate_deterministic_order():
    algebra = homogeneous(Kind.CYCLIC, 8, 2)
    first = enumerate_ct(algebra, 4, "nZ")
    second = enumerate_ct(algebra, 4, "nZ")
    assert first == second
    keys = [tuple(sorted(s)) for s in first]
    assert keys == sorted(keys)


def _enumerated_samples():
    yield homogeneous(Kind.CYCLIC, 8, 2), 4
    yield homogeneous(Kind.CYCLIC, 6, 5), 3
    yield homogeneous(Kind.ACYCLIC, 9, 2), 4
    yield homogeneous(Kind.ACYCLIC, 7, 3), 4
    yield from_kupisch(Kind.CYCLIC, (2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2)), 4


def test_tau_bijection_on_members():
    # tau_n and its inverse swap non-projectives with non-injectives
    for algebra, n in _enumerated_samples():
        for members in enumerate_ct(algebra, n, "nZ", max_ground_set=80):
            non_proj = {x for x in members if not is_projective(algebra, x)}
            non_inj = {x for x in members if not is_injective(algebra, x)}
            image = {tau_n(algebra, x, n, "fwd") for x in non_proj}
            assert image == non_inj
            back = {tau_n(algebra, x, n, "bwd") for x in non_inj}
            assert back == non_proj
            for x in non_proj:
                assert tau_n(algebra, tau_n(algebra, x, n, "fwd"), n, "bwd") == x


def test_intermediate_syzygies_indecomposable():
    # members never die before the n-th (co)syzygy
    for algebra, n in _enumerated_samples():
        for members in enumerate_ct(algebra, n, "nZ", max_ground_set=80):
            for x in members:
                if not is_projective(algebra, x):
                    for k in range(1, n):
                        assert omega(algebra, x, k) is not ZERO
                if not is_injective(algebra, x):
                    for k in range(1, n):
                        assert omega(algebra, x, -k) is not ZERO


def test_nz_shifted_translates_stay_inside():
    # one-step twists of members stay in the subcategory
    for algebra, n in _enumerated_samples():
        for members in enumerate_ct(algebra, n, "nZ", max_ground_set=80):
            for x in members:
                if not is_projective(algebra, x):
                    twisted = omega(algebra, translate(algebra, x, "fwd"), -1)
                    assert twisted is ZERO or twisted in members
                if not is_injective(algebra, x):
                    twisted = omega(algebra, translate(algebra, x, "bwd"), 1)
                    assert twisted is ZERO or twisted in members


def test_no_peaks_when_admitting():
    for algebra, n in _enumerated_samples():
        if not enumerate_ct(algebra, n, "nZ", max_ground_set=80):
            continue
        for module in indecomposables(algebra):
            i, j = module
            left = algebra.exists(i - 1, j - 1) or algebra.exists(i - 1 + algebra.m, j - 1 + algebra.m)
            right = algebra.exists(i + 1, j + 1)
            assert left or right, (algebra, module)


def test_acyclic_uniqueness():
    # over acyclic algebras there is at most one n-cluster tilting
    # subcategory and it is the tau_n-closure of the projectives
    for algebra in (
        homogeneous(Kind.ACYCLIC, 9, 2),
        homogeneous(Kind.ACYCLIC, 7, 3),
        homogeneous(Kind.ACYCLIC, 5, 2),
        from_kupisch(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3)),
    ):
        for n in (2, 3, 4):
            subs = enumerate_ct(algebra, n, "n")
            assert len(subs) <= 1
            if subs:
                assert subs[0] == tau_n_closure(algebra, n)


def test_cluster_tilting_makes_no_hom_calls(monkeypatch, lam_a, lam_b, glued15, lam_c):
    calls = [0]
    hom_dim = nakct.modules.hom_dim

    def counted(*args):
        calls[0] += 1
        return hom_dim(*args)

    monkeypatch.setattr(nakct.modules, "hom_dim", counted)
    for algebra in (lam_a, lam_b, glued15, lam_c):
        for n in (2, 3, 4):
            classify_nz(algebra, n)
            verify_ct(algebra, tau_n_closure(algebra, n), n)
            enumerate_ct(algebra, n, "nZ")
            enumerate_ct(algebra, n, "n")
    assert calls[0] == 0
    nakct.modules.ext_dim(lam_a, Indec(3, 4), Indec(2, 3), 1)
    assert calls[0] == 3  # the counter does see the dimension path
