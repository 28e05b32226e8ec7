"""classify_nz against brute force on every small algebra.

The series are generated exhaustively, not sampled, so every Kupisch series
whose entries sum to at most TOTAL is covered.  The bound may be raised, but
never lowered.
"""

from nakct import (
    INFINITY,
    Kind,
    canonical,
    canonical_rotation,
    classify_nz,
    enumerate_ct,
    ext_dims_upto,
    from_kupisch,
    gldim,
    homogeneous,
    indecomposables,
    injectives,
    projective_dimension,
    projectives,
    simple,
)
from nakct.modules import ext_table
from nakct.tilting import Failure, _Check, ct_failures, subcategory_key
from conftest import GLUED_CHAINS, glued_chain

TOTAL = 20
KMAX = 5
# algebras of total length <= TOTAL whose opposite has another Kupisch
# series (up to rotation)
OTHER_SERIES = 396


def kupisch_series(total):
    """Every admissible series with entries summing to at most total:
    the acyclic ones, and the cyclic ones once per rotation class (as the
    lexicographically least rotation)."""
    acyclic, cyclic = [], []

    def grow(c, room, is_cyclic):
        if is_cyclic:
            if c[0] <= c[-1] + 1 and c == min(c[s:] + c[:s] for s in range(len(c))):
                cyclic.append(c)
        elif len(c) >= 2:
            acyclic.append(c)
        top = c[-1] + 1 if is_cyclic else min(len(c) + 1, c[-1] + 1)
        for x in range(2, min(top, room) + 1):
            grow(c + (x,), room - x, is_cyclic)

    grow((1,), total - 1, False)
    for first in range(2, total + 1):
        grow((first,), total - first, True)
    return acyclic, cyclic


def all_algebras(total):
    acyclic, cyclic = kupisch_series(total)
    return [from_kupisch(Kind.ACYCLIC, c) for c in acyclic] + [
        from_kupisch(Kind.CYCLIC, c) for c in cyclic
    ]


def test_generator_counts():
    acyclic, cyclic = kupisch_series(TOTAL)
    assert (len(acyclic), len(cyclic)) == (357, 275)
    assert len(set(acyclic)) == len(acyclic) and len(set(cyclic)) == len(cyclic)


def test_rmax_matches_scan_exhaustively():
    for algebra in all_algebras(TOTAL):
        m = algebra.m
        for i in range(-m, 2 * m + 1):
            j = i
            while algebra.lmax(j + 1) <= i:
                j += 1
            assert algebra.rmax(i) == j, (algebra, i)


def test_gldim_matches_projective_dimensions_exhaustively():
    for algebra in all_algebras(TOTAL):
        pds = [projective_dimension(algebra, simple(algebra, v)) for v in range(1, algebra.m + 1)]
        expected = INFINITY if INFINITY in pds else max(pds)
        assert gldim(algebra) == expected, algebra


def test_ext_table_matches_ext_dims_exhaustively():
    for algebra in all_algebras(TOTAL):
        ground = indecomposables(algebra)
        table = ext_table(algebra, KMAX)
        for x, mx in enumerate(ground):
            for y, my in enumerate(ground):
                dims = ext_dims_upto(algebra, mx, my, KMAX)
                bits = tuple(table[k][x] >> y & 1 for k in range(KMAX))
                assert bits == tuple(int(d != 0) for d in dims), (algebra, mx, my)


def _opposite(algebra):
    """A^op: its projective at v is the dual of A's injective at m+1-v."""
    m = algebra.m
    c = [algebra.rmax(m + 1 - v) - (m + 1 - v) + 1 for v in range(1, m + 1)]
    return from_kupisch(algebra.kind, c)


def test_ext_table_transpose_law_exhaustively():
    # Ext^k over A from x to y equals Ext^k over A^op from Dy to Dx, with
    # D M(i,j) = M(m+1-j, m+1-i): the rows of A's table are the columns of
    # A^op's, so the closed form, which builds rows, is held to its own
    # transpose on another algebra
    other_series = 0
    for algebra in all_algebras(TOTAL):
        op, m = _opposite(algebra), algebra.m
        ground, op_ground = indecomposables(algebra), indecomposables(op)
        op_at = {module: y for y, module in enumerate(op_ground)}
        dual = [op_at.get(canonical(op, m + 1 - j, m + 1 - i)) for i, j in ground]
        assert len(dual) == len(op_ground) and set(dual) == set(range(len(dual))), algebra
        other_series += canonical_rotation(op) != canonical_rotation(algebra)
        table, op_table = ext_table(algebra, KMAX), ext_table(op, KMAX)
        for rows, op_rows in zip(table, op_table):
            for x, row in enumerate(rows):
                for y, dy in enumerate(dual):
                    assert row >> y & 1 == op_rows[dy] >> dual[x] & 1, (algebra, x, y)
    assert other_series == OTHER_SERIES


def test_classify_matches_enumeration_exhaustively():
    pairs = positive = 0
    for algebra in all_algebras(TOTAL):
        for n in range(2, 7):
            result = classify_nz(algebra, n)
            brute = enumerate_ct(algebra, n, "nZ")
            assert sorted(map(subcategory_key, result.subcategories)) == list(
                map(subcategory_key, brute)
            ), (algebra, n)
            pairs += 1
            positive += result.exists
    assert (pairs, positive) == (3160, 49)


def reference_failures(algebra, ext, members, n, mode):
    """``verify_ct``'s failure tuple from the definitions alone.

    ``ext[x, y]`` holds (dim Ext^1, ..., dim Ext^k)(x, y) from
    ``ext_dims_upto`` for some k >= n - 1; nothing here reads ``ext_table``.
    """
    from nakct import ZERO, injectives, is_projective, omega, projectives

    ordered = sorted(members)

    def nonzero(x, y):
        return any(ext[x, y][: n - 1])

    out = [Failure("MissingProjective", module=p) for p in sorted(projectives(algebra))
           if p not in members]
    out += [Failure("MissingInjective", module=q) for q in sorted(injectives(algebra))
            if q not in members]
    out += [
        Failure("OrthogonalityFailure", module=x, other=y, degree=k)
        for x in ordered
        for y in ordered
        for k, dim in enumerate(ext[x, y][: n - 1], start=1)
        if dim
    ]
    # C = {z : Ext(C, z) = 0} ("left") and C = {z : Ext(z, C) = 0} ("right")
    for z in indecomposables(algebra):
        if z in members:
            continue
        left_gap = not any(nonzero(x, z) for x in members)
        right_gap = not any(nonzero(z, x) for x in members)
        if left_gap or right_gap:
            side = "both" if left_gap and right_gap else ("left" if left_gap else "right")
            out.append(Failure("PerpGap", module=z, side=side))
    if mode == "nZ":
        for x in ordered:
            if is_projective(algebra, x):
                continue
            image = omega(algebra, x, n)
            if image is not ZERO and image not in members:
                out.append(Failure("NotClosedUnderOmegaN", module=x))
    return tuple(out)


def test_ct_failures_match_definitions_exhaustively():
    # an oracle for the verifier that shares no code with its Ext table,
    # on the member sets the library builds and on seeded random ones
    import random

    from nakct import injectives, projectives, tau_n_closure

    rng = random.Random(14)
    checked = 0
    for algebra in all_algebras(14):
        ground = indecomposables(algebra)
        ext = {(x, y): ext_dims_upto(algebra, x, y, 3) for x in ground for y in ground}
        forced = frozenset(projectives(algebra) | injectives(algebra))
        for n in (2, 3, 4):
            closure = tau_n_closure(algebra, n)
            for mode in ("n", "nZ"):
                sets = [closure, forced, *enumerate_ct(algebra, n, mode)]
                sets += [
                    base | frozenset(rng.sample(ground, rng.randint(0, len(ground))))
                    for base in (frozenset(), forced, closure)
                ]
                for members in sets:
                    got = tuple(ct_failures(algebra, members, n, mode))
                    assert got == reference_failures(algebra, ext, members, n, mode), (
                        algebra, n, mode, sorted(members)
                    )
                    checked += 1
    assert checked == 3418


def reference_enumeration(algebra, ext, n, mode):
    """``enumerate_ct`` from the definitions alone, by include/exclude
    recursion: the forced members with every maximal conflict-free set of
    free modules, kept when ``reference_failures`` finds nothing.

    ``ext`` is as for ``reference_failures``; nothing here reads
    ``ext_table`` or the library's check.
    """

    def conflict(x, y):
        return any(ext[x, y][: n - 1]) or any(ext[y, x][: n - 1])

    forced = frozenset(projectives(algebra) | injectives(algebra))
    free = [
        x
        for x in indecomposables(algebra)
        if x not in forced and not any(conflict(x, y) for y in forced | {x})
    ]
    found = []

    def grow(k, chosen):
        if k == len(free):
            if all(x in chosen or any(conflict(x, y) for y in chosen) for x in free):
                members = forced | chosen
                if not reference_failures(algebra, ext, members, n, mode):
                    found.append(members)
            return
        if not any(conflict(free[k], y) for y in chosen):
            grow(k + 1, chosen | {free[k]})
        grow(k + 1, chosen)

    grow(0, frozenset())
    return sorted(map(subcategory_key, found))


def enumeration_matches_reference(algebras):
    """(triples, triples with a subcategory, subcategories) over ``algebras``,
    n = 2..4 and both modes, where ``enumerate_ct`` must equal the reference."""
    triples = positive = found = 0
    for algebra in algebras:
        ground = indecomposables(algebra)
        ext = {(x, y): ext_dims_upto(algebra, x, y, 3) for x in ground for y in ground}
        for n in (2, 3, 4):
            for mode in ("n", "nZ"):
                got = list(map(subcategory_key, enumerate_ct(algebra, n, mode)))
                assert got == reference_enumeration(algebra, ext, n, mode), (algebra, n, mode)
                triples += 1
                positive += bool(got)
                found += len(got)
    return triples, positive, found


def test_enumerate_matches_reference_exhaustively():
    # the only check of mode n that shares no code with ext_table or _Check
    assert enumeration_matches_reference(all_algebras(TOTAL)) == (3792, 123, 266)


def test_enumerate_matches_reference_on_larger_algebras():
    algebras = [
        homogeneous(Kind.CYCLIC, 6, 5),
        homogeneous(Kind.CYCLIC, 8, 5),
        homogeneous(Kind.CYCLIC, 8, 4),
        homogeneous(Kind.ACYCLIC, 10, 4),
    ]
    enumeration_matches_reference(algebras)
    assert len(enumerate_ct(algebras[0], 3, "n")) == 273


def test_enumerate_verifies_only_gapless_leaves(monkeypatch):
    # leaves with a perpendicularity gap are dropped inside the search, so
    # in mode n every leaf the check sees is n-cluster tilting
    calls = [0]
    original = _Check.failures

    def counted(self, chosen):
        calls[0] += 1
        return original(self, chosen)

    monkeypatch.setattr(_Check, "failures", counted)

    for algebra in all_algebras(14):
        for n in (2, 3, 4):
            calls[0] = 0
            result = enumerate_ct(algebra, n, "n")
            assert calls[0] == len(result), (algebra, n)
    fixtures = [
        ((Kind.CYCLIC, 8, 5), 2, "n", 0),  # 512 leaves, every one with a gap
        ((Kind.CYCLIC, 6, 5), 3, "nZ", 273),  # 3 of them closed under Omega^3
        ((Kind.CYCLIC, 8, 2), 4, "nZ", 4),
    ]
    for spec, n, mode, count in fixtures:
        calls[0] = 0
        enumerate_ct(homogeneous(*spec), n, mode)
        assert calls[0] == count, (spec, n, mode)


def test_check_positions_exhaustively():
    # the verifier numbers modules by arithmetic, M(i,j) at first[i] + j - i,
    # and must agree with the list it no longer builds
    import pytest

    from nakct import Indec, InvalidSubcategory, is_injective, is_projective

    for algebra in all_algebras(14):
        check = _Check(algebra, 2, "nZ")
        ground = indecomposables(algebra)
        assert [check.position(module) for module in ground] == list(range(len(ground)))
        assert [check.module(x) for x in range(len(ground))] == ground
        assert check.size == len(ground)
        for bitset, law in ((check.projectives, is_projective), (check.injectives, is_injective)):
            assert bitset == sum(1 << x for x, module in enumerate(ground) if law(algebra, module))
        m = algebra.m
        bad = [Indec(0, 0), Indec(m + 1, m + 1)]  # not canonical, whether modules or not
        bad += [Indec(i, i - 1) for i in range(1, m + 1)]
        bad += [Indec(i, algebra.rmax(i) + 1) for i in range(1, m + 1)]
        for members in [[module] for module in bad] + [bad]:
            with pytest.raises(InvalidSubcategory) as caught:
                check.mask(ground + members)
            assert str(caught.value) == f"{min(members)} is not a module over {algebra}"


def gamma_n_matches_classification(total):
    """(series checked, positives) over every cyclic series up to total: the
    n in 2..20 that classify as self-glued are exactly the n that gamma
    infers, and none where gamma raises."""
    from nakct import Case, NotInClassifiedCase, cut_points, gamma, unglue

    checked = positive = 0
    for c in kupisch_series(total)[1]:
        algebra = from_kupisch(Kind.CYCLIC, c)
        for p in cut_points(algebra):
            assert (1,) + c[p:] + c[:p] == unglue(algebra, p).kupisch
        classified = [
            n for n in range(2, 21) if classify_nz(algebra, n).case is Case.CYCLIC_SELF_GLUED
        ]
        try:
            inferred = [gamma(algebra).n]
        except NotInClassifiedCase:
            inferred = []
        assert classified == inferred, algebra
        checked += 1
        positive += len(classified)
    return checked, positive


def test_gamma_infers_every_self_glued_n():
    assert gamma_n_matches_classification(TOTAL)[1] == 10


def all_cut_points_selfglued(algebra, n):
    """The self-glued classification that ungluing once replaced: every
    distinct ungluing is classified, and the subcategories they induce must
    agree."""
    from nakct import Case, ClassificationResult, Decomposition, Piece, canonical
    from nakct import cut_points, unglue

    m = algebra.m
    found = []
    seen_acyclic = set()
    for p in sorted(cut_points(algebra)):
        unglued = unglue(algebra, p)
        if unglued.kupisch in seen_acyclic:
            continue
        seen_acyclic.add(unglued.kupisch)
        sub = classify_nz(unglued, n)
        if not sub.exists:
            continue
        (members,) = sub.subcategories
        shifted = frozenset(canonical(algebra, x.i + p - 1, x.j + p - 1) for x in members)
        pieces = []
        for piece in sub.decomposition.pieces:
            start = (piece.start + p - 2) % m + 1
            pieces.append(Piece(start, start + piece.end - piece.start, piece.loewy))
        found.append((shifted, Decomposition(tuple(pieces), self_glued=True)))
    if not found:
        return ClassificationResult(False, Case.NONE, None, ())
    distinct = {subcategory_key(members) for members, _ in found}
    assert len(distinct) == 1, f"distinct ungluings of {algebra} induced different subcategories"
    members, decomposition = found[0]
    return ClassificationResult(True, Case.CYCLIC_SELF_GLUED, decomposition, (members,))


def one_ungluing_matches_all_cut_points(series):
    """(pairs, positives) over the non-homogeneous cyclic ``series`` and
    n = 2..6.  On each pair classify_nz must agree with the classification
    over every ungluing, and its verdict with the deep-ramp lemma: a
    non-homogeneous cyclic algebra A is positive exactly when
    p = deep_ramp_point(A) exists and decompose(unglue(A, p), n) parses.

    Proof.  A is positive when the ungluing at some cut point parses into
    pieces (s, e, l), e = s + nl/2; read on the cycle they tile it, and
    c_v = min(v - s + 1, l) for v in (s, e].
    (a) Every deep-ramp point p (c_{p+1} = 2, c_{p+2} >= 3) of a positive A
        starts a piece of Loewy length >= 3.  If p+1 lies in a piece with
        l >= 3, then c_{p+1} = 2 forces p + 1 = s + 1.  If it lies in a
        piece with l = 2, then c_{p+2} = 2, whether p+2 lies in the same
        piece or is the vertex s' + 1 of the next piece (s', e', l').
    (b) Ungluing at a piece start parses into the same pieces.  The ungluing
        at s has the series (1, c_{s+1}, ..., c_{s+m}), and decompose is
        deterministic: at each piece start it reads the piece's ramp up to
        c_{s+l} = l, forces the length nl/2 and finds the plateau, so it
        lands on the next piece start.
    (c) A non-homogeneous cyclic series with a cut point has a deep-ramp
        point.  Cyclic entries are >= 2, so a cut point p that is not deep
        has c_{p+2} = 2, which makes p+1 a cut point too; if no cut point is
        deep, every entry is 2 and the series is homogeneous.
    A positive A has a cut point, so by (c) a deep-ramp point, which by (a)
    starts a piece, where by (b) the ungluing parses.  Conversely a parsed
    ungluing makes A positive.
    """
    from nakct import decompose, is_homogeneous, unglue
    from nakct.classify import deep_ramp_point, result_to_json_dict

    pairs = positive = 0
    for c in series:
        for s in range(len(c)):
            algebra = from_kupisch(Kind.CYCLIC, c[s:] + c[:s])
            if is_homogeneous(algebra) is not None:
                continue
            p = deep_ramp_point(algebra)
            for n in range(2, 7):
                got = result_to_json_dict(classify_nz(algebra, n))
                assert got == result_to_json_dict(all_cut_points_selfglued(algebra, n)), (algebra, n)
                parses = p is not None and decompose(unglue(algebra, p), n) is not None
                assert got["exists"] == parses, (algebra, n)
                pairs += 1
                positive += got["exists"]
    return pairs, positive


def test_one_ungluing_matches_all_cut_points_on_every_rotation():
    from nakct import self_glue

    assert one_ungluing_matches_all_cut_points(kupisch_series(TOTAL)[1]) == (6680, 59)
    chains = [self_glue(glued_chain(n, loewys)).kupisch for n, loewys in GLUED_CHAINS]
    assert one_ungluing_matches_all_cut_points(chains) == (2000, 400)


def test_glued_members_equal_tau_n_closure():
    # the union of the pieces' projectives and injectives is the
    # tau_n-closure of the projectives that classify_nz no longer computes
    from nakct import Case, tau_n_closure

    cases = [
        (algebra, n)
        for algebra in all_algebras(TOTAL)
        if algebra.kind is Kind.ACYCLIC
        for n in range(2, 7)
        if classify_nz(algebra, n).case is Case.ACYCLIC_GLUED
    ]
    assert len(cases) == 8
    cases += [(glued_chain(n, loewys), n) for n, loewys in GLUED_CHAINS]
    for algebra, n in cases:
        result = classify_nz(algebra, n)
        assert result.case is Case.ACYCLIC_GLUED, (algebra, n)
        assert result.subcategories == (tau_n_closure(algebra, n),), (algebra, n)
