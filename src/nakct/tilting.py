"""Verification and exhaustive enumeration of cluster-tilting subcategories.

A candidate subcategory is a set of indecomposables (standing for its
additive closure).  Verification checks containment of projectives and
injectives, pairwise Ext-orthogonality in degrees 1..n-1, the two
perpendicularity equalities, and (in nZ mode) closure under the n-th
syzygy.  Enumeration walks maximal orthogonal supersets of the forced
members and filters them through the verifier: maximality is necessary but
not sufficient.  Both read the Ext-vanishing bitsets of ``ext_table``,
built once per call.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass

from .algebra import Algebra
from .errors import GroundSetTooLarge, InvalidParameter, InvalidSubcategory
from .modules import (
    ZERO,
    Indec,
    ext_table,
    indecomposables,
    injectives,
    is_projective,
    omega,
    projectives,
    tau_n,
)

DEFAULT_MAX_GROUND_SET = 64
_ENV_MAX_GROUND_SET = "NAKCT_MAX_GROUND_SET"


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
    if n < 2:
        raise InvalidParameter("cluster tilting needs n >= 2")
    if mode not in ("n", "nZ"):
        raise InvalidParameter("mode must be 'n' or 'nZ'")
    members = frozenset(members)
    ground = indecomposables(algebra)
    ground_set = set(ground)
    if not members <= ground_set:
        bad = sorted(members - ground_set)[0]
        raise InvalidSubcategory(f"{bad} is not a module over {algebra}")
    return _failures(algebra, members, ground, n, mode)


def _failures(algebra, members, ground, n, mode) -> Iterator[Failure]:
    for p in sorted(projectives(algebra)):
        if p not in members:
            yield Failure("MissingProjective", module=p)
    for q in sorted(injectives(algebra)):
        if q not in members:
            yield Failure("MissingInjective", module=q)

    table = ext_table(algebra, n - 1)
    hit = _hits(table)
    index = {module: x for x, module in enumerate(ground)}
    ordered = sorted(members)
    chosen = left = 0
    for x in ordered:
        chosen |= 1 << index[x]
        left |= hit[index[x]]

    for x in ordered:
        if not hit[index[x]] & chosen:
            continue
        for y in ordered:
            for k, rows in enumerate(table, start=1):
                if rows[index[x]] >> index[y] & 1:
                    yield Failure("OrthogonalityFailure", module=x, other=y, degree=k)

    for z, module in enumerate(ground):
        if chosen >> z & 1:
            continue
        hit_left = left >> z & 1
        hit_right = hit[z] & chosen
        if hit_left and hit_right:
            continue
        side = "both" if not hit_left and not hit_right else ("left" if not hit_left else "right")
        yield Failure("PerpGap", module=module, side=side)

    if mode == "nZ":
        for x in ordered:
            if is_projective(algebra, x):
                continue
            image = omega(algebra, x, n)
            if image is not ZERO and image not in members:
                yield Failure("NotClosedUnderOmegaN", module=x)


def _hits(table: list[list[int]]) -> list[int]:
    """Per module x, the bitset of y with Ext^k(x, y) != 0 for some tabulated k."""
    hit = [0] * len(table[0])
    for rows in table:
        for x, row in enumerate(rows):
            hit[x] |= row
    return hit


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


def _ground_bound(max_ground_set: int | None) -> int:
    if max_ground_set is not None:
        return max_ground_set
    env = os.environ.get(_ENV_MAX_GROUND_SET)
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameter(f"bad {_ENV_MAX_GROUND_SET}={env!r}")
    return DEFAULT_MAX_GROUND_SET


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
    if n < 2:
        raise InvalidParameter("cluster tilting needs n >= 2")
    if mode not in ("n", "nZ"):
        raise InvalidParameter("mode must be 'n' or 'nZ'")
    bound = _ground_bound(max_ground_set)
    if sum(algebra.kupisch) > bound:
        raise GroundSetTooLarge(
            f"{sum(algebra.kupisch)} indecomposables exceeds the bound {bound}"
        )

    ground = indecomposables(algebra)
    size = len(ground)
    index = {module: x for x, module in enumerate(ground)}

    hit = _hits(ext_table(algebra, n - 1))
    conflict = list(hit)
    for x in range(size):
        for y in range(size):
            if hit[x] >> y & 1:
                conflict[y] |= 1 << x

    forced = sorted({index[p] for p in projectives(algebra) | injectives(algebra)})
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
        members = frozenset(ground[x] for x in range(size) if (chosen >> x) & 1)
        if _passes(algebra, hit, chosen, members, n, mode):
            results.append(members)
    results.sort(key=subcategory_key)
    return results


def _passes(algebra, hit, chosen, members, n, mode) -> bool:
    """Fast verifier for enumeration candidates (conflict-freeness is given)."""
    left = 0
    for c, row in enumerate(hit):
        if chosen >> c & 1:
            left |= row
    for z, row in enumerate(hit):
        if chosen >> z & 1:
            continue
        if not (left >> z & 1 and row & chosen):
            return False
    if mode == "nZ":
        for module in members:
            if is_projective(algebra, module):
                continue
            image = omega(algebra, module, n)
            if image is not ZERO and image not in members:
                return False
    return True
