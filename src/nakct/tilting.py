"""Verification and exhaustive enumeration of cluster-tilting subcategories.

A candidate subcategory is a set of indecomposables (standing for its
additive closure).  Verification checks containment of projectives and
injectives, pairwise Ext-orthogonality in degrees 1..n-1, the two
perpendicularity equalities, and (in nZ mode) closure under the n-th
syzygy.  Enumeration walks maximal orthogonal supersets of the forced
members and filters them through the same failure stream as verification:
maximality is necessary but not sufficient.  One check per algebra and n
serves every member set of a call, and builds the Ext-vanishing bitsets of
``ext_table`` once, and only when a member set needs them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .algebra import Algebra
from .errors import GroundSetTooLarge, InvalidParameter, InvalidSubcategory
from .modules import (
    ZERO,
    Indec,
    ext_table,
    indecomposables,
    is_injective,
    is_projective,
    omega,
    projectives,
    tau_n,
)

DEFAULT_MAX_GROUND_SET = 64


@dataclass(frozen=True)
class Failure:
    kind: str
    module: Indec | None = None
    other: Indec | None = None
    degree: int | None = None
    side: str | None = None

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


@dataclass(frozen=True)
class VerifyReport:
    verdict: bool
    failures: tuple[Failure, ...]


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


class _Check:
    """The n- (or nZ-) cluster tilting test on one algebra, for any number
    of member sets, each given as a bitset over ``indecomposables``.

    The Ext table, and per module the row of where Ext^1..Ext^(n-1) from
    it is nonzero, are built on first need: a member set that misses a
    projective or an injective fails before either is.
    """

    def __init__(self, algebra: Algebra, n: int, mode: str):
        if n < 2:
            raise InvalidParameter("cluster tilting needs n >= 2")
        if mode not in ("n", "nZ"):
            raise InvalidParameter("mode must be 'n' or 'nZ'")
        self.algebra, self.n, self.mode = algebra, n, mode
        self.ground = indecomposables(algebra)
        self.index = {module: x for x, module in enumerate(self.ground)}
        # (position, module) in ground order, which is sorted order
        self.projectives = [(x, p) for x, p in enumerate(self.ground) if is_projective(algebra, p)]
        self.injectives = [(x, q) for x, q in enumerate(self.ground) if is_injective(algebra, q)]
        self._table: list[list[int]] | None = None
        self._hit: list[int] | None = None

    def table(self) -> list[list[int]]:
        if self._table is None:
            self._table = ext_table(self.algebra, self.n - 1)
        return self._table

    def hit(self) -> list[int]:
        """Per module x, the bitset of y with Ext^k(x, y) != 0 for some k in 1..n-1."""
        if self._hit is None:
            self._hit = [0] * len(self.ground)
            for rows in self.table():
                for x, row in enumerate(rows):
                    self._hit[x] |= row
        return self._hit

    def mask(self, members) -> int:
        """The bitset of ``members``, which must all be modules over the algebra."""
        members = frozenset(members)
        chosen = 0
        for module in members:
            x = self.index.get(module)
            if x is None:
                bad = min(module for module in members if module not in self.index)
                raise InvalidSubcategory(f"{bad} is not a module over {self.algebra}")
            chosen |= 1 << x
        return chosen

    def failures(self, chosen: int) -> Iterator[Failure]:
        """Every reason the member bitset ``chosen`` fails, in ``verify_ct``'s order."""
        for x, p in self.projectives:
            if not chosen >> x & 1:
                yield Failure("MissingProjective", module=p)
        for x, q in self.injectives:
            if not chosen >> x & 1:
                yield Failure("MissingInjective", module=q)

        ground, hit = self.ground, self.hit()
        ordered = [x for x in range(len(ground)) if chosen >> x & 1]
        left = 0
        for x in ordered:
            left |= hit[x]

        if left & chosen:
            table = self.table()
            for x in ordered:
                if not hit[x] & chosen:
                    continue
                for y in ordered:
                    for k, rows in enumerate(table, start=1):
                        if rows[x] >> y & 1:
                            yield Failure(
                                "OrthogonalityFailure", module=ground[x], other=ground[y], degree=k
                            )

        for z, module in enumerate(ground):
            if chosen >> z & 1:
                continue
            hit_left = left >> z & 1
            hit_right = hit[z] & chosen
            if hit_left and hit_right:
                continue
            side = "both" if not hit_left and not hit_right else ("left" if not hit_left else "right")
            yield Failure("PerpGap", module=module, side=side)

        if self.mode == "nZ":
            for x in ordered:
                module = ground[x]
                if is_projective(self.algebra, module):
                    continue
                image = omega(self.algebra, module, self.n)
                if image is not ZERO and not chosen >> self.index[image] & 1:
                    yield Failure("NotClosedUnderOmegaN", module=module)


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
    between them in degrees 1..n-1 is nonzero; each candidate then passes
    through the full verifier.  Output is sorted lexicographically.
    """
    check = _Check(algebra, n, mode)
    bound = DEFAULT_MAX_GROUND_SET if max_ground_set is None else max_ground_set
    if sum(algebra.kupisch) > bound:
        raise GroundSetTooLarge(
            f"{sum(algebra.kupisch)} indecomposables exceeds the bound {bound}"
        )

    size = len(check.ground)
    hit = check.hit()
    conflict = list(hit)
    for x in range(size):
        for y in range(size):
            if hit[x] >> y & 1:
                conflict[y] |= 1 << x

    forced = sorted({x for x, _ in check.projectives + check.injectives})
    forced_mask = 0
    for x in forced:
        forced_mask |= 1 << x
    for x in forced:
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
    free.sort(key=lambda x: (-bin(conflict[x]).count("1"), x))
    free_mask = 0
    for x in free:
        free_mask |= 1 << x

    maximal: list[int] = []

    def expand(included: int, candidates: int, excluded: int):
        # Bron-Kerbosch with pivoting on the compatibility (conflict-free) graph
        if not candidates:
            if not excluded:
                maximal.append(included)
            return
        pool = candidates | excluded
        pivot = max(
            (x for x in free if (pool >> x) & 1),
            key=lambda x: bin(candidates & ~conflict[x] & ~(1 << x)).count("1"),
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
            )
            candidates &= ~bit
            excluded |= bit

    expand(0, free_mask, 0)

    results = []
    for mask in maximal:
        chosen = forced_mask | mask
        if next(check.failures(chosen), None) is None:
            results.append(frozenset(check.ground[x] for x in range(size) if chosen >> x & 1))
    results.sort(key=subcategory_key)
    return results
