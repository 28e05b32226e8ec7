"""Closed-form decision procedures for the existence of nZ-cluster tilting.

Four families admit one: homogeneous algebras subject to arithmetic
conditions on (m, l, n), and non-homogeneous algebras that decompose into
(or self-glue from) homogeneous pieces of global dimension n.  In each
admitting case the subcategories are written down explicitly, as bitsets on
the positions of the cluster tilting check (M(a,b) is bit
first[vertex(a)] + b - a), and verified once by that check, on the algebra
they are returned for; modules are made only for the verified answer.  The
brute-force enumerator is the ground truth the decision procedure is tested
against, never a fallback.

A glued or self-glued algebra's subcategory is the union of its pieces'
projectives and injectives, built in place from each piece (s, e, l): the
homogeneous algebra of Loewy length l on vertices s..e.  A self-glued cyclic
algebra is unglued at a cut point and the ungluing parsed into pieces, which
are read back on the cycle.  The first cut point tried starts a deep ramp
(c_{p+1} = 2, c_{p+2} >= 3).  Every such point of a positive algebra is the
start of a deep piece, and ungluing at a piece start parses into the same
pieces, so there one ungluing answers; the first parsed ungluing gives the
certificate that ``classify_nz`` verifies.  A negative verdict has no
certificate, so it is reached only after every distinct ungluing has been
parsed and, where ``decompose`` fails on a non-homogeneous one,
cross-checked against the tau_n-closure of the projectives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .algebra import Algebra, Kind, _kind, cut_points, is_homogeneous, unglue
from .errors import InternalError, InvalidParameter, KindMismatch
from .modules import Indec
from .tilting import _Check, ct_failures, tau_n_closure


class Case(enum.Enum):
    ACYCLIC_HOMOG_RADSQ = "AcyclicHomogRadSq"
    ACYCLIC_HOMOG_DEEP = "AcyclicHomogDeep"
    CYCLIC_HOMOG_RADSQ = "CyclicHomogRadSq"
    CYCLIC_HOMOG_STACKED = "CyclicHomogStacked"
    ACYCLIC_GLUED = "AcyclicGlued"
    CYCLIC_SELF_GLUED = "CyclicSelfGlued"
    NONE = "None"


@dataclass(frozen=True)
class Piece:
    """A homogeneous stretch from vertex start to vertex end with Loewy length loewy."""

    start: int
    end: int
    loewy: int


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple[Piece, ...]
    self_glued: bool = False


@dataclass(frozen=True)
class ClassificationResult:
    exists: bool
    case: Case
    decomposition: Decomposition | None
    subcategories: tuple[frozenset[Indec], ...]


def admits_homog_nct(kind: Kind | str, m: int, l: int, n: int) -> bool:
    """Whether the homogeneous algebra on (kind, m, l) has an n-cluster
    tilting subcategory (not necessarily nZ); in the cyclic case this is a
    pair of gcd divisibility conditions."""
    kind = _kind(kind)
    if l < 2 or n < 2 or m < 1 or (kind is Kind.ACYCLIC and m < 2):
        raise InvalidParameter(f"bad parameters kind={kind}, m={m}, l={l}, n={n}")
    d = l * (n - 1) + 2
    if kind is Kind.ACYCLIC:
        if l == 2 and (m - 1) % n == 0:
            return True
        return n % 2 == 0 and (m - 1 - (n // 2) * l) % d == 0
    t = math.gcd(n + 1, 2 * (l - 1))
    return (2 * m) % d == 0 or (t * m) % d == 0


def read_ramp(c: tuple[int, ...], s: int) -> int | None:
    """The Loewy length l of a piece starting at vertex s, read off its ramp
    c_{s+t} = t+1 for t < l, c_{s+l} = l; None if there is no such ramp."""
    m = len(c)
    t = 1
    while s + t <= m and c[s + t - 1] == t + 1:
        t += 1
    if s + t > m or c[s + t - 1] != t:
        return None
    return t


def read_plateau(c: tuple[int, ...], s: int, l: int, most: int) -> int:
    """The largest run <= most with c_{s+u} = min(u+1, l) for u = 1..run,
    given the ramp of Loewy length l at s (so run >= l)."""
    m = len(c)
    run = l
    while run < most and s + run < m and c[s + run] == l:
        run += 1
    return run


def deep_ramp_point(algebra: Algebra) -> int | None:
    """The first cut point p of a cyclic algebra that starts a deep ramp
    (c_{p+1} = 2, c_{p+2} >= 3), or None."""
    c = algebra.kupisch
    return next(
        (p for p in sorted(cut_points(algebra)) if c[(p + 1) % algebra.m] >= 3), None
    )


def decompose(algebra: Algebra, n: int) -> Decomposition | None:
    """Parse an acyclic algebra into homogeneous pieces of global dimension n.

    At each piece start the Loewy length is read off the ramp of the
    Kupisch pattern c_{s+t} = min(t+1, l); the piece length is then forced
    to n*l/2 and the plateau checked.  Runs of l = 2 are cut into length-n
    pieces, which makes the parse canonical.  Returns None whenever any
    step fails.
    """
    if algebra.kind is not Kind.ACYCLIC:
        raise KindMismatch("decompose applies to acyclic algebras")
    if n < 2:
        raise InvalidParameter("needs n >= 2")
    c = algebra.kupisch
    pieces = []
    s = 1
    while s < algebra.m:
        l = read_ramp(c, s)
        if l is None or (n * l) % 2 or (l >= 3 and n % 2):
            return None
        length = n * l // 2
        if read_plateau(c, s, l, length) < length:
            return None
        pieces.append((s, s + length, l))
        s += length
    return Decomposition(tuple(Piece(*piece) for piece in pieces))


def _piece_members(check: _Check, pieces) -> int:
    """The bitset on ``check``'s positions of the union over pieces (s, e, l)
    of the piece's projectives M(max(s, v-l+1), v) and injectives
    M(v, min(e, v+l-1)), v = s..e, in the coordinates of the algebra the
    pieces belong to; M(a, b) is bit first[vertex(a)] + b - a."""
    first, m = check.first, check.algebra.m
    chosen = 0
    for piece in pieces:
        s, e, l = piece.start, piece.end, piece.loewy
        for v in range(s, e + 1):
            a = max(s, v - l + 1)
            chosen |= 1 << (first[(a - 1) % m + 1] + v - a)
            chosen |= 1 << (first[(v - 1) % m + 1] + min(e - v, l - 1))
    return chosen


def _cyclic_homog_members(check: _Check, n: int, i: int) -> int:
    """The bitset of the projectives, the simples at i + kn and those
    M(i+kn, i+(k+1)n) that are modules (when l = n + 2)."""
    algebra, first = check.algebra, check.first
    chosen = check.projectives
    for k in range(algebra.m // n):
        v = algebra.vertex(i + k * n)
        chosen |= 1 << first[v]
        if algebra.exists(v, v + n):
            chosen |= 1 << (first[v] + n)
    return chosen


def _checked_decompose(algebra: Algebra, n: int, homogeneous: bool) -> Decomposition | None:
    # decompose decides; a failed parse of a non-homogeneous algebra is
    # cross-checked here (one failure suffices) and a successful one by
    # classify_nz's verification
    decomposition = decompose(algebra, n)
    if decomposition is None and not homogeneous:
        candidate = tau_n_closure(algebra, n)
        if next(ct_failures(algebra, candidate, n, "nZ"), None) is None:
            raise InternalError(
                f"tau_n-closure verification and decomposition disagree on {algebra}, n={n}"
            )
    return decomposition


def _ungluing_order(algebra: Algebra) -> list[int]:
    """The cut points in order, the first deep-ramp one moved to the front."""
    deep = deep_ramp_point(algebra)
    return sorted(cut_points(algebra), key=lambda p: (p != deep, p))


def _rotation_period(c: tuple[int, ...]) -> int:
    """The least d > 0 such that rotating c by d gives c; it divides len(c)."""
    m = len(c)
    return next(d for d in range(1, m + 1) if m % d == 0 and c[d:] + c[:d] == c)


def _selfglued_decomposition(algebra: Algebra, n: int) -> Decomposition | None:
    # Deep-ramp cut point first, and the first parsed ungluing is the answer
    # (classify_nz verifies it on this algebra).  A negative verdict parses
    # every distinct ungluing: with no certificate to verify, it must not
    # rest on the deep-ramp point alone.
    #
    # unglue(algebra, p) has the series (1,) + c[p:] + c[:p], so two cut
    # points give the same ungluing exactly when they differ by a multiple
    # of the rotation period of c.
    m = algebra.m
    period = _rotation_period(algebra.kupisch)
    seen: set[int] = set()
    for p in _ungluing_order(algebra):
        if p % period in seen:
            continue
        seen.add(p % period)
        unglued = unglue(algebra, p)
        sub = _checked_decompose(unglued, n, is_homogeneous(unglued) is not None)
        if sub is None:
            continue
        # piece starts land in 1..m and are listed in increasing order, the
        # same for every rotation and cut point; ends stay un-reduced so that
        # consecutive pieces visibly share endpoints around the cycle
        pieces = []
        for piece in sub.pieces:
            start = (piece.start + p - 2) % m + 1
            pieces.append(Piece(start, start + piece.end - piece.start, piece.loewy))
        pieces.sort(key=lambda piece: piece.start)
        return Decomposition(tuple(pieces), self_glued=True)
    return None


def _decide(algebra: Algebra, n: int) -> tuple[Case, Decomposition | None]:
    """The case of classify_nz, and the decomposition its subcategory is
    built from (None for a homogeneous cyclic algebra or a negative)."""
    spec = is_homogeneous(algebra)
    if algebra.kind is Kind.ACYCLIC:
        decomposition = _checked_decompose(algebra, n, spec is not None)
        if spec is None:
            case = Case.ACYCLIC_GLUED
        else:
            case = Case.ACYCLIC_HOMOG_RADSQ if spec.l == 2 else Case.ACYCLIC_HOMOG_DEEP
    elif spec is None:
        decomposition = _selfglued_decomposition(algebra, n)
        case = Case.CYCLIC_SELF_GLUED
    else:
        l, m = spec.l, algebra.m
        if l == 2 and m % n == 0:
            return Case.CYCLIC_HOMOG_RADSQ, None
        if l >= 4 and n == l - 2 and m % n == 0:
            return Case.CYCLIC_HOMOG_STACKED, None
        return Case.NONE, None
    if decomposition is None:
        return Case.NONE, None
    return case, decomposition


def classify_nz(algebra: Algebra, n: int) -> ClassificationResult:
    """Decide existence of nZ-cluster tilting subcategories and construct them.

    Each subcategory is built as a bitset on the positions of one check,
    re-verified there, and only then turned into modules.
    """
    if n < 2:
        raise InvalidParameter("cluster tilting needs n >= 2")
    case, decomposition = _decide(algebra, n)
    if case is Case.NONE:
        return ClassificationResult(False, case, None, ())
    check = _Check(algebra, n, "nZ")
    if decomposition is None:
        subs = [_cyclic_homog_members(check, n, i) for i in range(1, n + 1)]
    else:
        subs = [_piece_members(check, decomposition.pieces)]
    for chosen in subs:
        if next(check.failures(chosen), None) is not None:
            raise InternalError(
                f"constructed subcategory failed re-verification on {algebra}, n={n}"
            )
    return ClassificationResult(True, case, decomposition, tuple(map(check.modules, subs)))


def result_to_json_dict(result: ClassificationResult) -> dict:
    from .tilting import members_to_json

    out = {
        "exists": result.exists,
        "case": result.case.value,
        "subcategories": [members_to_json(s) for s in result.subcategories],
    }
    if result.decomposition is not None:
        out["pieces"] = [
            [p.start, p.end, p.loewy] for p in result.decomposition.pieces
        ]
        out["self_glued"] = result.decomposition.self_glued
    return out
