"""Verification and exhaustive enumeration of cluster-tilting subcategories.

A candidate subcategory is a set of indecomposables (standing for its
additive closure).  Verification checks containment of projectives and
injectives, pairwise Ext-orthogonality in degrees 1..n-1, the two
perpendicularity equalities, and (in nZ mode) closure under the n-th
syzygy.  Enumeration walks maximal orthogonal supersets of the forced
members.  At each leaf of the search it drops the ones with a
perpendicularity gap, by two whole-bitset ORs carried down the search (of
the members' Ext rows and of their columns), and it passes every survivor
through the same failure stream as verification: maximality is necessary
but not sufficient, and in nZ mode closure under the n-th syzygy is still
to check.  One check per algebra and n serves every member set of a call,
and builds the Ext-vanishing bitsets of ``ext_table`` once, and only when
a member set needs them.

The check works on integer positions, not on module objects: M(i,j) with
1 <= i <= m is bit first[i] + j - i of a member set (``first_positions``),
which is its place in ``indecomposables``.  The projectives P_v = M(lmax(v), v)
(shifted so the socle lies in 1..m) and the injectives I_v = M(v, rmax(v))
are two bitsets, one lookup per vertex, and Omega^n of a member is walked in
integer coordinates.  The list of ``indecomposables`` is never built: a
failure names its module by bisecting the offsets, and ``enumerate_ct`` and
``classify_nz`` read back the modules of the verified member sets by one
walk over them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator

from .algebra import Algebra
from .errors import GroundSetTooLarge, InvalidParameter, InvalidSubcategory
from .modules import (
    ZERO,
    Indec,
    ext_table,
    first_positions,
    projectives,
    tau_n,
)

DEFAULT_MAX_GROUND_SET = 64


class Failure(
    namedtuple("Failure", "kind module other degree side", defaults=(None, None, None, None))
):
    """Why a subcategory is not cluster tilting: the kind of failure and,
    where they apply, the modules, the Ext degree and the side involved."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.module is not None:
            out["module"] = [self.module.i, self.module.j]
        if self.other is not None:
            out["other"] = [self.other.i, self.other.j]
        if self.degree is not None:
            out["degree"] = self.degree
        if self.side is not None:
            out["side"] = self.side
        return out


class VerifyReport(namedtuple("VerifyReport", "verdict failures")):
    """The verdict of ``verify_ct`` with every failure found."""

    __slots__ = ()


def subcategory_key(members) -> tuple:
    """Canonical sort key: the lexicographically ordered member list."""
    return tuple(sorted(members))


def members_to_json(members) -> list:
    return [[m.i, m.j] for m in sorted(members)]


def members_from_json(algebra: Algebra, data) -> frozenset[Indec]:
    from .modules import indec

    if isinstance(data, dict):
        data = data.get("members")
    if not isinstance(data, list):
        raise InvalidSubcategory("subcategory JSON must be {\"members\": [[i,j],...]}")
    out = set()
    for pair in data:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
            raise InvalidSubcategory(f"bad member entry {pair!r}")
        try:
            out.add(indec(algebra, *pair))
        except InvalidParameter as exc:
            raise InvalidSubcategory(str(exc))
    return frozenset(out)


def verify_ct(algebra: Algebra, members, n: int, mode: str = "nZ") -> VerifyReport:
    """Check whether ``members`` is an n- (or nZ-) cluster tilting subcategory."""
    failures = tuple(ct_failures(algebra, members, n, mode))
    return VerifyReport(verdict=not failures, failures=failures)


def ct_failures(algebra: Algebra, members, n: int, mode: str = "nZ") -> Iterator[Failure]:
    """Every reason ``members`` is not n- (or nZ-) cluster tilting, lazily.

    The arguments are checked at once; the failures come in the order of
    ``verify_ct``, so a caller that needs only the verdict can stop at the
    first one.
    """
    check = _Check(algebra, n, mode)
    return check.failures(check.mask(members))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask`` (>= 0), in increasing order."""
    return [x for x, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class _Check:
    """The n- (or nZ-) cluster tilting test on one algebra, for any number
    of member sets, each given as a bitset over ``indecomposables``.

    Building it is O(m): the offsets ``first`` (M(i,j) is bit
    first[i] + j - i) and the bitsets of the projectives and the injectives.
    The Ext table, and per module the row of where Ext^1..Ext^(n-1) from
    it is nonzero, are built on first need: a member set that misses a
    projective or an injective fails before either is.  Modules are named
    from positions by arithmetic on ``first``; no module list is built.
    """

    def __init__(self, algebra: Algebra, n: int, mode: str):
        if n < 2:
            raise InvalidParameter("cluster tilting needs n >= 2")
        if mode not in ("n", "nZ"):
            raise InvalidParameter("mode must be 'n' or 'nZ'")
        self.algebra, self.n, self.mode = algebra, n, mode
        self.first = first = first_positions(algebra)
        self.size = first[algebra.m + 1]
        self.projectives = self.injectives = 0
        for v in range(1, algebra.m + 1):
            p = algebra.lmax(v)  # P_v = M(p, v), its socle shifted into 1..m
            self.projectives |= 1 << (first[algebra.vertex(p)] + v - p)
            self.injectives |= 1 << (first[v + 1] - 1)  # I_v = M(v, rmax(v))
        self._table: list[list[int]] | None = None
        self._hit: list[int] | None = None

    def table(self) -> list[list[int]]:
        if self._table is None:
            self._table = ext_table(self.algebra, self.n - 1)
        return self._table

    def hit(self) -> list[int]:
        """Per module x, the bitset of y with Ext^k(x, y) != 0 for some k in 1..n-1."""
        if self._hit is None:
            hit, *rest = self.table()
            for rows in rest:
                hit = list(map(int.__or__, hit, rows))
            self._hit = hit
        return self._hit

    def module(self, x: int) -> Indec:
        """The module at bit ``x``: M(i, i + x - first[i]), first[i] <= x < first[i+1]."""
        first = self.first
        i = bisect_right(first, x, 1, self.algebra.m + 1) - 1
        return Indec(i, i + x - first[i])

    def modules(self, chosen: int) -> frozenset[Indec]:
        """The modules of the member bitset ``chosen``, by one pointer walk over ``first``."""
        first, i, out = self.first, 1, []
        for x in _bits(chosen):
            while first[i + 1] <= x:
                i += 1
            out.append(Indec(i, i + x - first[i]))
        return frozenset(out)

    def position(self, module) -> int | None:
        """The bit of M(i,j), or None unless ``module`` is a pair of integers
        with 1 <= i <= m and i <= j <= rmax(i)."""
        try:
            i, j = module
        except (TypeError, ValueError):
            return None
        m, rmax = self.algebra.m, self.algebra._rmax
        if type(i) is int and type(j) is int and 1 <= i <= m and i <= j <= rmax[i - 1]:
            return self.first[i] + j - i
        return None

    def mask(self, members) -> int:
        """The bitset of ``members``, which must all be modules over the algebra."""
        members = frozenset(members)
        chosen = 0
        for module in members:
            x = self.position(module)
            if x is None:
                # in repr order first, so that the outcome of min does not
                # hang on the iteration order of the set
                bad = [module for module in members if self.position(module) is None]
                bad.sort(key=repr)
                try:
                    least = min(bad)
                except TypeError:  # incomparable members: name the least by repr
                    least = bad[0]
                raise InvalidSubcategory(f"{least} is not a module over {self.algebra}")
            chosen |= 1 << x
        return chosen

    def failures(self, chosen: int) -> Iterator[Failure]:
        """Every reason the member bitset ``chosen`` fails, in ``verify_ct``'s order."""
        for x in _bits(self.projectives & ~chosen):
            yield Failure("MissingProjective", module=self.module(x))
        for x in _bits(self.injectives & ~chosen):
            yield Failure("MissingInjective", module=self.module(x))

        hit = self.hit()
        ordered = _bits(chosen)
        left = 0
        for x in ordered:
            left |= hit[x]

        if left & chosen:
            module, table = self.module, self.table()
            for x in ordered:
                if not hit[x] & chosen:
                    continue
                for y in ordered:
                    for k, rows in enumerate(table, start=1):
                        if rows[x] >> y & 1:
                            yield Failure(
                                "OrthogonalityFailure", module=module(x), other=module(y), degree=k
                            )

        for z in range(self.size):
            if chosen >> z & 1:
                continue
            hit_left = left >> z & 1
            hit_right = hit[z] & chosen
            if hit_left and hit_right:
                continue
            side = "both" if not hit_left and not hit_right else ("left" if not hit_left else "right")
            yield Failure("PerpGap", module=self.module(z), side=side)

        if self.mode == "nZ":
            algebra, first, m = self.algebra, self.first, self.algebra.m
            for x in ordered:
                if self.projectives >> x & 1:
                    continue
                i = bisect_right(first, x, 1, m + 1) - 1
                j = i + x - first[i]
                for _ in range(self.n):  # Omega M(i,j) = M(lmax(j), i-1), or 0
                    p = algebra.lmax(j)
                    if p == i:
                        break
                    i, j = p, i - 1
                else:
                    v = algebra.vertex(i)
                    if not chosen >> (first[v] + j - i) & 1:
                        yield Failure("NotClosedUnderOmegaN", module=self.module(x))


def tau_n_closure(algebra: Algebra, n: int) -> frozenset[Indec]:
    """Smallest member set containing the projectives and closed under tau_n^-."""
    if n < 2:
        raise InvalidParameter("needs n >= 2")
    members = set(projectives(algebra))
    queue = sorted(members)
    while queue:
        current = queue.pop()
        succ = tau_n(algebra, current, n, "bwd")
        if succ is not ZERO and succ not in members:
            members.add(succ)
            queue.append(succ)
    return frozenset(members)


def enumerate_ct(
    algebra: Algebra,
    n: int,
    mode: str = "nZ",
    max_ground_set: int | None = None,
) -> list[frozenset[Indec]]:
    """All n- or nZ-cluster tilting subcategories, by exhaustive search.

    Candidates are the maximal conflict-free supersets of the forced members
    (projectives and injectives), where two modules conflict when some Ext
    between them in degrees 1..n-1 is nonzero.  A candidate with a
    perpendicularity gap, some module outside it not both hit by it and
    hitting it, is dropped at its leaf of the search; every other one is
    fully verified before it is returned.  Output is sorted lexicographically.
    """
    check = _Check(algebra, n, mode)
    bound = DEFAULT_MAX_GROUND_SET if max_ground_set is None else max_ground_set
    if bound < 0:
        raise InvalidParameter(f"max_ground_set must be >= 0, got {bound}")
    if check.size > bound:
        raise GroundSetTooLarge(f"{check.size} indecomposables exceeds the bound {bound}")

    size = check.size
    hit = check.hit()
    col = [0] * size  # col[y]: the x with Ext^k(x, y) != 0 for some k in 1..n-1
    for x, row in enumerate(hit):
        bit = 1 << x
        while row:
            low = row & -row
            col[low.bit_length() - 1] |= bit
            row ^= low
    conflict = list(map(int.__or__, hit, col))

    forced_mask = check.projectives | check.injectives
    for x in _bits(forced_mask):
        if conflict[x] & forced_mask:
            return []

    free = [
        x
        for x in range(size)
        if not (forced_mask >> x) & 1
        and not (conflict[x] >> x) & 1
        and not conflict[x] & forced_mask
    ]
    # branch on high-conflict vertices first; prunes fastest
    free.sort(key=lambda x: (-conflict[x].bit_count(), x))
    free_mask = 0
    for x in free:
        free_mask |= 1 << x

    # a leaf chosen = forced | included has no PerpGap when every module
    # outside it is hit from chosen (left) and hits chosen (right)
    outside = ((1 << size) - 1) & ~forced_mask
    left = right = 0
    for x in _bits(forced_mask):
        left |= hit[x]
        right |= col[x]
    gapless: list[int] = []

    def expand(included: int, candidates: int, excluded: int, left: int, right: int):
        # Bron-Kerbosch with pivoting on the compatibility (conflict-free) graph
        if not candidates:
            if not excluded and not outside & ~included & ~(left & right):
                gapless.append(included)
            return
        pool = candidates | excluded
        pivot = max(
            (x for x in free if (pool >> x) & 1),
            key=lambda x: (candidates & ~conflict[x] & ~(1 << x)).bit_count(),
        )
        branch = (candidates & conflict[pivot]) | (candidates & (1 << pivot))
        for x in free:
            if not (branch >> x) & 1:
                continue
            bit = 1 << x
            expand(
                included | bit,
                candidates & ~conflict[x] & ~bit,
                excluded & ~conflict[x] & ~bit,
                left | hit[x],
                right | col[x],
            )
            candidates &= ~bit
            excluded |= bit

    expand(0, free_mask, 0, left, right)

    results = []
    for mask in gapless:
        chosen = forced_mask | mask
        if next(check.failures(chosen), None) is None:
            results.append(check.modules(chosen))
    results.sort(key=subcategory_key)
    return results
