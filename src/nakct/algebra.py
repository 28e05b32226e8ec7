"""Connected Nakayama algebras encoded by their Kupisch series.

An algebra is determined by its quiver kind (a linearly oriented line with
arrows j -> j-1, or the corresponding cycle with indices mod m) together
with the Kupisch series c_1..c_m, where c_j is the composition length of
the indecomposable projective at vertex j.  Everything else (the shape of
the AR quiver, projectives, injectives, syzygies) is derived from the two
integer sequences

    lmax(j) = j - c_j + 1      (smallest socle position under top j)
    rmax(i) = max{j >= i : lmax(j) <= i}   (largest top position over socle i)

extended m-periodically to all integers.  Both are tabulated over one
period when the algebra is built (lmax is weakly increasing, so one sweep
finds every rmax), and each lookup is O(1).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from .errors import (
    GroundSetTooLarge,
    InvalidKupisch,
    InvalidParameter,
    KindMismatch,
    NoArrow,
    NotACutPoint,
)

# largest number of indecomposables an algebra read from JSON may have
MAX_INDECOMPOSABLES = 20_000


class Kind(enum.Enum):
    ACYCLIC = "acyclic"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class HomogeneitySpec:
    """Loewy length l when the relations are all paths of length l."""

    l: int


@dataclass(frozen=True)
class Algebra:
    kind: Kind
    kupisch: tuple[int, ...]
    m: int = field(init=False, repr=False, compare=False)
    _lmax: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _rmax: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_kupisch(self.kind, self.kupisch)
        m = len(self.kupisch)
        lmax = tuple(map(operator.sub, range(2, m + 2), self.kupisch))  # j + 1 - c_j
        # lmax is weakly increasing, so one pointer finds every
        # rmax(i) = max{j : lmax(j) <= i}.  It starts at the last j = 1 (mod m)
        # with lmax(j) <= 1 and then moves fewer than 2m steps in all.
        rmax = []
        j = 1 + (1 - lmax[0]) // m * m
        for i in range(1, m + 1):
            while lmax[j % m] + j // m * m <= i:  # lmax(j + 1) <= i
                j += 1
            rmax.append(j)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_lmax", lmax)
        object.__setattr__(self, "_rmax", tuple(rmax))

    @property
    def is_cyclic(self) -> bool:
        return self.kind is Kind.CYCLIC

    def vertex(self, v: int) -> int:
        """Canonical representative of v in 1..m."""
        return (v - 1) % self.m + 1

    def lmax(self, j: int) -> int:
        base = (j - 1) % self.m
        return self._lmax[base] + (j - 1 - base)

    def rmax(self, i: int) -> int:
        base = (i - 1) % self.m
        return self._rmax[base] + (i - 1 - base)

    def bounds(self, v: int) -> tuple[int, int]:
        return self.lmax(v), self.rmax(v)

    def exists(self, i: int, j: int) -> bool:
        """Whether the uniserial with socle i and top j is a module."""
        return i <= j and self.lmax(j) <= i

    def __str__(self):
        return f"{self.kind.value}{list(self.kupisch)}"


def _validate_kupisch(kind: Kind, c: tuple[int, ...]) -> None:
    m = len(c)
    if m == 0:
        raise InvalidKupisch("empty Kupisch series")
    if any(not isinstance(x, int) or x < 1 for x in c):
        raise InvalidKupisch("entries must be positive integers")
    if kind is Kind.ACYCLIC:
        if m < 2:
            raise InvalidKupisch("acyclic algebra needs at least one arrow (m >= 2)")
        if c[0] != 1:
            raise InvalidKupisch("c_1 must be 1 for an acyclic algebra", index=1)
        for j in range(2, m + 1):
            if not 2 <= c[j - 1] <= j:
                raise InvalidKupisch(f"need 2 <= c_{j} <= {j}, got {c[j - 1]}", index=j)
        for j in range(1, m):
            if c[j] > c[j - 1] + 1:
                raise InvalidKupisch(f"c_{j + 1} exceeds c_{j} + 1", index=j + 1)
    else:
        if any(x < 2 for x in c):
            bad = next(j for j, x in enumerate(c, start=1) if x < 2)
            raise InvalidKupisch("cyclic algebra needs c_j >= 2 everywhere", index=bad)
        for j in range(m):
            if c[(j + 1) % m] > c[j] + 1:
                raise InvalidKupisch(
                    f"c_{(j + 1) % m + 1} exceeds c_{j + 1} + 1 (cyclically)",
                    index=(j + 1) % m + 1,
                )


def _kind(kind: Kind | str) -> Kind:
    """A Kind, or its name in any case; anything else is InvalidParameter."""
    if isinstance(kind, Kind):
        return kind
    try:
        return Kind(kind.lower())
    except (AttributeError, ValueError):
        raise InvalidParameter(f"unknown kind {kind!r}")


def from_kupisch(kind: Kind | str, c) -> Algebra:
    return Algebra(_kind(kind), tuple(c))


def homogeneous(kind: Kind | str, m: int, l: int) -> Algebra:
    """The algebra on m vertices with relations all paths of length l."""
    kind = _kind(kind)
    if l < 2:
        raise InvalidParameter("homogeneous Loewy length must be >= 2")
    if m < 1 or (kind is Kind.ACYCLIC and m < 2):
        raise InvalidParameter(f"m={m} too small for kind {kind.value}")
    if kind is Kind.ACYCLIC:
        c = tuple(min(j, l) for j in range(1, m + 1))
    else:
        c = (l,) * m
    return Algebra(kind, c)


def bounds(algebra: Algebra, v: int) -> tuple[int, int]:
    return algebra.bounds(v)


def is_homogeneous(algebra: Algebra) -> HomogeneitySpec | None:
    c = algebra.kupisch
    if algebra.is_cyclic:
        l = c[0]
        return HomogeneitySpec(l) if c.count(l) == algebra.m else None
    # c = (1, 2, ..., l, l, ..., l) with l = max(c); c_j <= j puts the
    # first l at index l or later, so m >= l
    l = max(c)
    if c[:l] == tuple(range(1, l + 1)) and c.count(l) == algebra.m - l + 1:
        return HomogeneitySpec(l)
    return None


def is_selfinjective(algebra: Algebra) -> bool:
    return algebra.is_cyclic and is_homogeneous(algebra) is not None


def glue(a1: Algebra, a2: Algebra) -> Algebra:
    """Concatenate two acyclic algebras across a shared vertex.

    The result has m1 + m2 - 1 vertices; vertex t of ``a2`` becomes vertex
    m1 + t - 1, and the composite path across the seam is a relation (which
    is exactly what dropping a2's leading 1-entry encodes).
    """
    if not (a1.kind is Kind.ACYCLIC and a2.kind is Kind.ACYCLIC):
        raise KindMismatch("gluing is defined for acyclic algebras only")
    return Algebra(Kind.ACYCLIC, a1.kupisch + a2.kupisch[1:])


def self_glue(algebra: Algebra) -> Algebra:
    """Close an acyclic algebra into a cycle by identifying vertex m with 1.

    The result keeps labels 1..m-1; the new projective at the seam vertex 1
    is the old projective at vertex m, so the Kupisch series is
    (c_m, c_2, ..., c_{m-1}).
    """
    if algebra.kind is not Kind.ACYCLIC:
        raise KindMismatch("self-gluing applies to acyclic algebras")
    if algebra.m < 2:
        raise NoArrow("need at least one arrow to self-glue")
    c = algebra.kupisch
    return Algebra(Kind.CYCLIC, (c[-1],) + c[1:-1])


def cut_points(algebra: Algebra) -> set[int]:
    """Vertices p where no module passes through (c_{p+1} = 2)."""
    c = algebra.kupisch
    m = algebra.m
    if algebra.is_cyclic:
        return {p for p in range(1, m + 1) if c[p % m] == 2}
    return {p for p in range(2, m) if c[p] == 2}


def unglue(algebra: Algebra, p: int) -> Algebra:
    """Split a cyclic algebra at cut point p into an acyclic one.

    Vertex p is duplicated; the result has m + 1 vertices labelled by
    position, position t corresponding to the cyclic vertex p + t - 1.
    Self-gluing the result recovers the input up to rotation.
    """
    if algebra.kind is not Kind.CYCLIC:
        raise KindMismatch("ungluing applies to cyclic algebras")
    m = algebra.m
    p = algebra.vertex(p)
    if p not in cut_points(algebra):
        raise NotACutPoint(f"vertex {p} is not a cut point")
    c = algebra.kupisch
    return Algebra(Kind.ACYCLIC, (1,) + tuple(c[(p + t - 1) % m] for t in range(1, m + 1)))


def canonical_rotation(algebra: Algebra) -> tuple[int, ...]:
    """Lexicographically minimal rotation of a cyclic Kupisch series.

    Used only to compare cyclic algebras up to relabelling; acyclic series
    are returned unchanged.
    """
    c = algebra.kupisch
    if algebra.kind is not Kind.CYCLIC:
        return c
    m = len(c)
    return min(tuple(c[(s + t) % m] for t in range(m)) for s in range(m))


def to_json_dict(algebra: Algebra) -> dict:
    return {"kind": algebra.kind.value, "kupisch": list(algebra.kupisch)}


def _ints(values) -> bool:
    """Whether values are all JSON integers (no bools, floats or strings)."""
    return all(type(x) is int for x in values)


def from_json_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        raise InvalidParameter("algebra JSON must be an object")
    try:
        kind = _kind(data["kind"])
    except (KeyError, InvalidParameter):
        raise InvalidParameter("algebra JSON needs \"kind\": \"acyclic\"|\"cyclic\"")
    if "homogeneous" in data:
        spec = data["homogeneous"]
        if not (isinstance(spec, dict) and _ints([spec.get("m"), spec.get("l")])):
            raise InvalidParameter("homogeneous shorthand needs integer \"m\" and \"l\"")
        m, l = spec["m"], spec["l"]
        if m > 0 and l > 0:  # homogeneous() rejects the rest
            if kind is Kind.CYCLIC:
                _check_size(m * l)
            else:  # the sum of min(j, l) over j = 1..m
                short = min(m, l)
                _check_size(short * (short + 1) // 2 + (m - short) * l)
        return homogeneous(kind, m, l)
    c = data.get("kupisch")
    if not (isinstance(c, list) and _ints(c)):
        raise InvalidParameter("algebra JSON needs \"kupisch\": [c_1, ..., c_m] of integers")
    _check_size(sum(c))
    return from_kupisch(kind, c)


def _check_size(count: int) -> None:
    """The sum of the Kupisch series is the number of indecomposables."""
    if count > MAX_INDECOMPOSABLES:
        raise GroundSetTooLarge(
            f"{count} indecomposables exceeds the bound {MAX_INDECOMPOSABLES}"
        )
