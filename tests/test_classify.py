import pytest

from nakct import (
    Case,
    Indec,
    InternalError,
    InvalidParameter,
    Kind,
    KindMismatch,
    admits_homog_nct,
    classify_nz,
    cut_points,
    decompose,
    enumerate_ct,
    from_kupisch,
    glue,
    homogeneous,
    is_homogeneous,
    projectives,
    self_glue,
    simple,
)
from nakct.tilting import subcategory_key
from conftest import GLUED_CHAINS, glued_chain, random_algebras


def test_admits_fixtures():
    assert admits_homog_nct(Kind.ACYCLIC, 7, 3, 4)
    assert not admits_homog_nct(Kind.CYCLIC, 4, 3, 2)
    assert admits_homog_nct(Kind.ACYCLIC, 9, 2, 4)
    with pytest.raises(InvalidParameter):
        admits_homog_nct(Kind.ACYCLIC, 7, 1, 4)
    with pytest.raises(InvalidParameter):
        admits_homog_nct("foo", 7, 3, 4)


def test_admits_agrees_with_brute_force_small():
    for kind, m_range in ((Kind.ACYCLIC, range(2, 8)), (Kind.CYCLIC, range(1, 7))):
        for m in m_range:
            for l in range(2, 5):
                algebra = homogeneous(kind, m, l)
                for n in (2, 3, 4):
                    brute = bool(enumerate_ct(algebra, n, "n", max_ground_set=96))
                    assert admits_homog_nct(kind, m, l, n) == brute, (kind, m, l, n)


def test_decompose_fixtures(glued15, lam_a):
    pieces = decompose(glued15, 4).pieces
    assert [(p.start, p.end, p.loewy) for p in pieces] == [(1, 7, 3), (7, 11, 2), (11, 15, 2)]
    refined = decompose(homogeneous(Kind.ACYCLIC, 9, 2), 4).pieces
    assert [(p.start, p.end, p.loewy) for p in refined] == [(1, 5, 2), (5, 9, 2)]
    assert decompose(lam_a, 4) is None
    with pytest.raises(KindMismatch):
        decompose(homogeneous(Kind.CYCLIC, 4, 2), 2)


def test_decompose_needs_even_n_for_deep_pieces():
    algebra = homogeneous(Kind.ACYCLIC, 7, 4)  # would need n = 3 on an l = 4 piece
    assert decompose(algebra, 3) is None
    assert decompose(homogeneous(Kind.ACYCLIC, 4, 2), 3).pieces[0].loewy == 2


def test_classify_homogeneous_cases():
    stacked = classify_nz(homogeneous(Kind.CYCLIC, 6, 5), 3)
    assert stacked.exists and stacked.case is Case.CYCLIC_HOMOG_STACKED
    assert len(stacked.subcategories) == 3

    radsq = classify_nz(homogeneous(Kind.CYCLIC, 6, 4), 2)
    assert radsq.exists and radsq.case is Case.CYCLIC_HOMOG_STACKED
    assert len(radsq.subcategories) == 2

    acyc = classify_nz(homogeneous(Kind.ACYCLIC, 9, 2), 4)
    assert acyc.case is Case.ACYCLIC_HOMOG_RADSQ
    algebra = homogeneous(Kind.ACYCLIC, 9, 2)
    assert acyc.subcategories[0] == frozenset(
        projectives(algebra) | {simple(algebra, 1), simple(algebra, 5), simple(algebra, 9)}
    )

    deep = classify_nz(homogeneous(Kind.ACYCLIC, 7, 3), 4)
    assert deep.case is Case.ACYCLIC_HOMOG_DEEP and len(deep.subcategories) == 1

    nothing = classify_nz(homogeneous(Kind.CYCLIC, 6, 3), 3)
    assert not nothing.exists and nothing.case is Case.NONE and not nothing.subcategories


def test_classify_glued(glued15):
    result = classify_nz(glued15, 4)
    assert result.exists and result.case is Case.ACYCLIC_GLUED
    assert [(p.start, p.end, p.loewy) for p in result.decomposition.pieces] == [
        (1, 7, 3), (7, 11, 2), (11, 15, 2),
    ]
    assert len(result.subcategories) == 1


def test_classify_self_glued(lam_c):
    result = classify_nz(lam_c, 4)
    assert result.exists and result.case is Case.CYCLIC_SELF_GLUED
    assert len(result.subcategories) == 1
    members = result.subcategories[0]
    assert len(members) == 18
    expected = {
        (1, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7), (7, 7),
        (7, 8), (8, 9), (9, 10), (10, 11), (11, 11), (11, 12), (12, 13),
        (13, 14), (14, 15),
    }
    assert {(x.i, x.j) for x in members} == expected
    assert {Indec(1, 1), Indec(7, 7), Indec(11, 11)} <= members
    assert result.decomposition.self_glued


def test_classify_none_cases(lam_a, lam_b):
    for n in (2, 3, 4, 5):
        assert not classify_nz(lam_a, n).exists
        assert not classify_nz(lam_b, n).exists


def test_cardinality_law():
    samples = [
        (homogeneous(Kind.CYCLIC, 8, 2), 4, 4),
        (homogeneous(Kind.CYCLIC, 6, 5), 3, 3),
        (homogeneous(Kind.ACYCLIC, 9, 2), 4, 1),
        (homogeneous(Kind.ACYCLIC, 7, 3), 4, 1),
        (homogeneous(Kind.CYCLIC, 6, 3), 2, 0),
    ]
    for algebra, n, count in samples:
        assert len(classify_nz(algebra, n).subcategories) == count


def test_odd_n_needs_homogeneous():
    # non-homogeneous algebras never admit for odd n
    for algebra in random_algebras(999, 40, total_cap=30):
        assert is_homogeneous(algebra) is None
        for n in (3, 5):
            assert not classify_nz(algebra, n).exists


def test_gluing_compatibility():
    a1 = homogeneous(Kind.ACYCLIC, 7, 3)
    a2 = homogeneous(Kind.ACYCLIC, 5, 2)
    glued = glue(a1, a2)
    shift = a1.m - 1
    left = classify_nz(a1, 4).subcategories[0]
    right = classify_nz(a2, 4).subcategories[0]
    union = set(left) | {Indec(x.i + shift, x.j + shift) for x in right}
    assert classify_nz(glued, 4).subcategories[0] == frozenset(union)


def test_self_gluing_compatibility():
    base = glue(homogeneous(Kind.ACYCLIC, 5, 2), homogeneous(Kind.ACYCLIC, 9, 4))
    closed = self_glue(base)
    upstairs = classify_nz(base, 4)
    downstairs = classify_nz(closed, 4)
    assert upstairs.exists and downstairs.exists
    m = closed.m
    mapped = set()
    for x in upstairs.subcategories[0]:
        shift = x.i - ((x.i - 1) % m + 1)
        mapped.add(Indec(x.i - shift, x.j - shift))
    assert downstairs.subcategories[0] == frozenset(mapped)


def test_classify_agrees_with_enumeration_random():
    for algebra in random_algebras(31337, 30, total_cap=36):
        for n in (2, 3, 4):
            got = sorted(map(subcategory_key, classify_nz(algebra, n).subcategories))
            want = sorted(map(subcategory_key, enumerate_ct(algebra, n, "nZ", max_ground_set=96)))
            assert got == want, (algebra, n)


def test_forced_boundary_simples(lam_c):
    # in the admitting cyclic non-homogeneous case each block start
    # contributes a simple member that is neither projective nor injective
    from nakct import is_injective, is_projective

    result = classify_nz(lam_c, 4)
    members = result.subcategories[0]
    for piece in result.decomposition.pieces:
        boundary = simple(lam_c, piece.start)
        assert boundary in members
        assert not is_projective(lam_c, boundary)
        assert not is_injective(lam_c, boundary)


def _count_calls(monkeypatch, names, module="nakct.classify"):
    """Count the calls ``module`` makes to each of its imported names."""
    import importlib

    module = importlib.import_module(module)
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _rotations(algebra):
    c = algebra.kupisch
    return [from_kupisch(Kind.CYCLIC, c[s:] + c[:s]) for s in range(len(c))]


def _four_block_chain(glued15):
    """The self-gluing of four copies of glued15, 56 vertices."""
    return self_glue(glue(glue(glue(glued15, glued15), glued15), glued15))


def test_positive_self_glued_ungluings_once(monkeypatch, lam_c, glued15):
    # the deep-ramp cut point comes first and its ungluing is the answer;
    # only the cyclic algebra's subcategory is verified
    calls = _count_calls(monkeypatch, ("unglue", "tau_n_closure", "_Check"))
    for algebra in _rotations(lam_c) + [_four_block_chain(glued15)]:
        calls.update(dict.fromkeys(calls, 0))
        assert classify_nz(algebra, 4).case is Case.CYCLIC_SELF_GLUED
        assert calls == {"unglue": 1, "tau_n_closure": 0, "_Check": 1}, algebra


def test_positive_glued_verification_on_positions(monkeypatch):
    # the benchmark's glued chains and their self-gluings: verifying the
    # one subcategory builds one Ext table and never lists the modules
    calls = _count_calls(monkeypatch, ("ext_table",), "nakct.tilting")
    inside = _count_calls(monkeypatch, ("indecomposables",), "nakct.modules")
    for n, loewys in GLUED_CHAINS:
        chain = glued_chain(n, loewys)
        for algebra in (self_glue(chain), chain):
            calls.update(dict.fromkeys(calls, 0))
            inside.update(dict.fromkeys(inside, 0))
            assert classify_nz(algebra, n).exists, (algebra, n)
            assert calls == {"ext_table": 1}, (algebra, n)
            assert inside == {"indecomposables": 0}, (algebra, n)


def test_classify_reverifies_each_member(monkeypatch, lam_c, glued15):
    # clearing any one member of any one constructed bitset fails the
    # re-verification: a missing projective or injective, or a perp gap
    import nakct.classify

    cases = [
        ("_piece_members", glued15, 4),
        ("_piece_members", lam_c, 4),
        ("_cyclic_homog_members", homogeneous(Kind.CYCLIC, 6, 2), 3),
        ("_cyclic_homog_members", homogeneous(Kind.CYCLIC, 8, 6), 4),
    ]
    for name, algebra, n in cases:
        original = getattr(nakct.classify, name)
        built = []

        def recorded(*args, _original=original):
            built.append(_original(*args))
            return built[-1]

        monkeypatch.setattr(nakct.classify, name, recorded)
        result = classify_nz(algebra, n)
        assert len(built) == len(result.subcategories)
        for target, chosen in enumerate(built):
            assert chosen.bit_count() == len(result.subcategories[target])
            for x in range(chosen.bit_length()):
                if not chosen >> x & 1:
                    continue
                calls = []

                def cleared(*args, _original=original, _target=target, _x=x):
                    calls.append(None)
                    value = _original(*args)
                    return value & ~(1 << _x) if len(calls) - 1 == _target else value

                monkeypatch.setattr(nakct.classify, name, cleared)
                with pytest.raises(InternalError):
                    classify_nz(algebra, n)
        monkeypatch.setattr(nakct.classify, name, original)


def test_algebra_builds_per_classification(monkeypatch, lam_c, glued15):
    # members are built in place: no block algebra per piece shape, and a
    # positive self-glued verdict builds only its one ungluing
    import nakct.algebra

    builds = 0
    original = nakct.algebra.Algebra.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(nakct.algebra.Algebra, "__init__", counted)
    cases = [(glued15, 4, 0), (_four_block_chain(glued15), 4, 1), (lam_c, 2, 9)]
    cases += [(algebra, 4, 1) for algebra in _rotations(lam_c)]
    for algebra, n, expected in cases:
        builds = 0
        classify_nz(algebra, n)
        assert builds == expected, (algebra, n)


def test_negative_self_glued_ungluings_each_series_once(monkeypatch, lam_b, lam_c, glued15):
    # a negative verdict classifies every distinct ungluing, and builds
    # each one once however many cut points give it
    chain = _four_block_chain(glued15)
    c = chain.kupisch
    assert 4 * len({(1,) + c[p:] + c[:p] for p in cut_points(chain)}) == len(cut_points(chain))
    calls = _count_calls(monkeypatch, ("unglue", "_Check"))
    for algebra, n in ((lam_b, 2), (lam_b, 4), (lam_c, 2), (chain, 2), (chain, 6)):
        calls.update(dict.fromkeys(calls, 0))
        assert not classify_nz(algebra, n).exists
        c = algebra.kupisch
        distinct = {(1,) + c[p:] + c[:p] for p in cut_points(algebra)}
        assert calls == {"unglue": len(distinct), "_Check": 0}, (algebra, n)
