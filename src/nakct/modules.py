"""The module category of a Nakayama algebra.

Indecomposables are the uniserials M(i,j) with socle at vertex i and top at
vertex j (canonically 1 <= i <= m; over a cyclic algebra M(i+m, j+m) is
identified with M(i,j)).
Projective covers, injective hulls, syzygies and AR translates are all index
arithmetic driven by lmax/rmax; Hom dimensions count admissible images of
the top; the tests check them against a matrix-representation oracle
that lives outside the package.

Ext comes from dimension shifting.  Hom(-, N) turns the sequence
0 -> Omega Y -> P(Y) -> Y -> 0 into the exact sequence

    0 -> Hom(Y,N) -> Hom(P(Y),N) -> Hom(Omega Y,N) -> Ext^1(Y,N) -> 0,

because Ext^1(P(Y), N) = 0, so dim Ext^1(Y,N) is an alternating sum of
three Hom dimensions; and Ext^k(X,N) = Ext^1(Omega^(k-1) X, N) for the same
reason.  Both steps hold for every module, so the count stays exact when a
syzygy is projective (its Ext^1 is then 0 and the walk stops).  The tempting
shortcut Ext^k(M,N) = stable-Hom(Omega^k M, N) does not: over the two-vertex
line algebra Omega S_2 = P_1, and the shortcut gives 0 for
Ext^1(S_2, S_1) = 1.

Hom is closed-form.  A nonzero map M(a,b) -> M(c,d) sends the top of the
source to a basis vector b_v of the target with v = b (mod m), and it is
well defined exactly when c <= v <= min(d, c + b - a); so dim Hom counts
the v = b (mod m) in that window, (hi - b)//m - (c - 1 - b)//m with
hi = min(d, c + b - a).  The count is unchanged when either module is
shifted by m.

Ext^1 itself has a closed form, the interval law.  For Y = M(i,j) with
p = lmax(j) < i the syzygy is Omega Y = M(p, i-1), and Ext^1(Y, N) is the
cokernel of Hom(P(Y), N) -> Hom(Omega Y, N).  Shift N = M(c,d) so that a
basis map of Hom(Omega Y, N) sends the top i-1 of Omega Y to b_(i-1); that
map exists exactly when p <= c <= i-1 <= d.  It extends to P(Y) = M(p,j)
exactly when the basis map of Hom(P(Y), N) sending the top j to b_j
exists, i.e. when j <= d, and every other map from P(Y) restricts to a
different basis map or to 0.  So Ext^1(Y, N) != 0 iff, for some shift of N,

    p <= c <= i-1 <= d <= min(j-1, rmax(c)).

Modules are numbered by their place in ``indecomposables``: M(i,j) with
1 <= i <= m sits at first[i] + j - i, where first[i] = sum over v < i of
(rmax(v) - v + 1) counts the modules with a smaller socle
(``first_positions``).  Every c in [p, i-1] has rmax(c) >= j, because
M(c,j) exists, so the Ext^1 row of Y is the OR of the runs
M(c, i-1) .. M(c, j-1), all of length L = j-i+1, at the consecutive
positions from first[vertex(c)] + i-1-c on.  Runs of different vertices lie
in different blocks of positions and runs of one vertex lie m apart, so
while L <= m they are disjoint and the row is

    ((1 << L) - 1) * (sum over c in [p, i-1] of 2^(first[vertex(c)] + i-1-c)),

one subtraction of prefix sums, a shift and a subtraction.  Once L > m the
runs of c and c-m meet and merge into one run per socle vertex: for each c
from max(p, i-m) to i-1 the run starts where that of c does and has length
L + c - c', where c' is the least c' = c (mod m) in [p, i-1].  These lengths
take at most two values, so the row is two such products.  ``ext_table``
loops over i and j with the Kupisch tables and these formulas alone: no
module objects, no Hom call and no loop over c per module.  Degree k is the
Ext^1 row of Omega^(k-1) X.  ``ext_dims_upto`` keeps the three-Hom count
for dimensions, and the tests hold the table to it and to its transpose
over the opposite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .algebra import Algebra, Kind
from .errors import InternalError, InvalidParameter


class Indec(NamedTuple):
    """The uniserial module with socle at vertex i and top at vertex j."""

    i: int
    j: int

    @property
    def length(self) -> int:
        return self.j - self.i + 1


class _Zero:
    """Absorbing value for vanishing (co)syzygies; not a module of length 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"

    def __bool__(self):
        return False


ZERO = _Zero()
IndecOrZero = Union[Indec, _Zero]


class _Infinity:
    """The projective dimension of a module whose syzygies cycle; not a float."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def canonical(algebra: Algebra, i: int, j: int) -> Indec:
    """Shift (i, j) so the socle lands in 1..m."""
    shift = i - algebra.vertex(i)
    return Indec(i - shift, j - shift)


def indec(algebra: Algebra, i: int, j: int) -> Indec:
    """The module M(i,j), canonical; over an acyclic algebra (i, j) must
    already be canonical, since only a cycle identifies M(i+m, j+m) with it."""
    module = canonical(algebra, i, j)
    if not algebra.exists(module.i, module.j) or (
        algebra.kind is Kind.ACYCLIC and module.i != i
    ):
        raise InvalidParameter(f"M({i},{j}) is not a module over {algebra}")
    return module


def indecomposables(algebra: Algebra) -> list[Indec]:
    """One representative per isomorphism class, sorted by (i, j)."""
    return [
        Indec(i, j)
        for i in range(1, algebra.m + 1)
        for j in range(i, algebra.rmax(i) + 1)
    ]


def first_positions(algebra: Algebra) -> list[int]:
    """first[i], the position of M(i,i) in ``indecomposables`` for i = 1..m,
    so that M(i,j) sits at first[i] + j - i; first[m + 1] is the number of
    indecomposables, and first[0] = 0 is padding."""
    first = [0, 0]
    for i, top in enumerate(algebra._rmax, start=1):
        first.append(first[-1] + top - i + 1)
    return first


def simple(algebra: Algebra, v: int) -> Indec:
    return canonical(algebra, v, v)


def projective_at(algebra: Algebra, v: int) -> Indec:
    return canonical(algebra, algebra.lmax(v), v)


def injective_at(algebra: Algebra, v: int) -> Indec:
    return canonical(algebra, v, algebra.rmax(v))


def projectives(algebra: Algebra) -> set[Indec]:
    return {projective_at(algebra, v) for v in range(1, algebra.m + 1)}


def injectives(algebra: Algebra) -> set[Indec]:
    return {injective_at(algebra, v) for v in range(1, algebra.m + 1)}


def is_projective(algebra: Algebra, module: Indec) -> bool:
    return module.i == algebra.lmax(module.j)


def is_injective(algebra: Algebra, module: Indec) -> bool:
    return module.j == algebra.rmax(module.i)


def cover_hull(algebra: Algebra, module: Indec) -> tuple[Indec, Indec, bool, bool]:
    """(projective cover, injective hull, is_projective, is_injective)."""
    i, j = module
    cover = canonical(algebra, algebra.lmax(j), j)
    hull = canonical(algebra, i, algebra.rmax(i))
    return cover, hull, i == algebra.lmax(j), j == algebra.rmax(i)


def _omega_raw(algebra: Algebra, i: int, j: int) -> tuple[int, int] | None:
    """One syzygy step in un-canonicalized integer coordinates."""
    a = algebra.lmax(j)
    if i == a:
        return None
    return a, i - 1


def _coomega_raw(algebra: Algebra, i: int, j: int) -> tuple[int, int] | None:
    b = algebra.rmax(i)
    if j == b:
        return None
    return j + 1, b


def omega(algebra: Algebra, module: IndecOrZero, k: int) -> IndecOrZero:
    """k-th syzygy (k > 0), cosyzygy (k < 0) or the module itself (k = 0)."""
    if module is ZERO:
        return ZERO
    i, j = module
    step = _omega_raw if k > 0 else _coomega_raw
    for _ in range(abs(k)):
        nxt = step(algebra, i, j)
        if nxt is None:
            return ZERO
        i, j = nxt
    return canonical(algebra, i, j)


def translate(algebra: Algebra, module: IndecOrZero, direction: str) -> IndecOrZero:
    """AR translate: fwd is tau (zero on projectives), bwd is tau^- (zero on injectives)."""
    if module is ZERO:
        return ZERO
    if direction == "fwd":
        if is_projective(algebra, module):
            return ZERO
        return canonical(algebra, module.i - 1, module.j - 1)
    if direction == "bwd":
        if is_injective(algebra, module):
            return ZERO
        return canonical(algebra, module.i + 1, module.j + 1)
    raise InvalidParameter(f"direction must be 'fwd' or 'bwd', got {direction!r}")


def tau_n(algebra: Algebra, module: IndecOrZero, n: int, direction: str) -> IndecOrZero:
    """n-AR translate: tau after n-1 syzygy steps (or the dual)."""
    if n < 1:
        raise InvalidParameter("tau_n needs n >= 1")
    steps = n - 1 if direction == "fwd" else -(n - 1)
    return translate(algebra, omega(algebra, module, steps), direction)


def hom_dim(algebra: Algebra, m1: Indec, m2: Indec) -> int:
    """dim Hom(M(a,b), M(c,d)): the v = b (mod m) in [c, min(d, c+b-a)].

    Each such v is the image of the top of the source in a nonzero map.
    The tests check it against Hom computed from matrix representations.
    """
    a, b = m1
    c, d = m2
    m = algebra.m
    return (min(d, c + b - a) - b) // m - (c - 1 - b) // m


# ---------------------------------------------------------------------------
# Minimal projective resolutions and Ext.
# ---------------------------------------------------------------------------


def min_resolution(algebra: Algebra, module: Indec, length: int) -> list[IndecOrZero]:
    """Terms P_0..P_length of the minimal projective resolution of module."""
    if length < 0:
        raise InvalidParameter("resolution length must be >= 0")
    terms = []
    cur = (module.i, module.j)
    for _ in range(length + 1):
        if cur is None:
            terms.append(ZERO)
            continue
        terms.append(canonical(algebra, algebra.lmax(cur[1]), cur[1]))
        cur = _omega_raw(algebra, *cur)
    return terms


def _ext1(algebra: Algebra, i: int, j: int, syzygy, target) -> int:
    """dim Ext^1(M(i,j), target) from Hom(-, target) on
    0 -> syzygy -> P(M(i,j)) -> M(i,j) -> 0 (syzygy None when M(i,j) is projective)."""
    value = hom_dim(algebra, (i, j), target) - hom_dim(algebra, (algebra.lmax(j), j), target)
    if syzygy is not None:
        value += hom_dim(algebra, syzygy, target)
    if value < 0:
        raise InternalError("negative Ext dimension")
    return value


def ext_dims_upto(algebra: Algebra, m1: Indec, m2: Indec, kmax: int) -> tuple[int, ...]:
    """(dim Ext^1, ..., dim Ext^kmax)(m1, m2) by dimension shifting."""
    if kmax < 1:
        raise InvalidParameter("ext_dim needs k >= 1")
    dims = []
    cur = (m1.i, m1.j)
    while cur is not None and len(dims) < kmax:
        syzygy = _omega_raw(algebra, *cur)
        dims.append(_ext1(algebra, *cur, syzygy, m2))
        cur = syzygy
    return tuple(dims) + (0,) * (kmax - len(dims))


def ext_table(algebra: Algebra, kmax: int) -> list[list[int]]:
    """Where Ext^1..Ext^kmax vanish, as bitsets over indecomposables(algebra).

    Bit y of ``table[k-1][x]`` is set iff Ext^k(x, y) != 0, with x and y
    positions in ``indecomposables(algebra)`` (see ``first_positions``).
    Built per call; nothing is kept between calls.
    """
    if kmax < 1:
        raise InvalidParameter("ext_dim needs k >= 1")
    m, lmax, rmax = algebra.m, algebra._lmax, algebra._rmax
    first = first_positions(algebra)
    size = first[m + 1]
    lo = lmax[0]  # lmax(1), the least socle of a syzygy
    # M(c, d) sits at offset[c - lo] + d, for c = lo..m
    offset = [first[(c - 1) % m + 1] - c for c in range(lo, m + 1)]
    # ps[c - lo] is the sum of 2^(offset[c' - lo] + 1) over c' = lo..c-1
    # (the + 1 keeps the exponent >= 0: offset is -1 at c = 1)
    ps = [0]
    for e in offset[:-1]:
        ps.append(ps[-1] + (1 << (e + 1)))
    # lm[j] = lmax(j) for j = 1..rmax(m)
    lm = [0] + [lmax[(j - 1) % m] + (j - 1) // m * m for j in range(1, rmax[-1] + 1)]

    def runs(a: int, b: int, length: int) -> int:
        # the disjoint runs of c = a..b-1, all `length` long: their OR is
        # ((1 << length) - 1) times the sum of their starts, with the
        # exponents of ps (the row is shifted by i - 2 at the end)
        starts = ps[b - lo] - ps[a - lo]
        return (starts << length) - starts

    ext1 = [0] * size
    syzygy_at: list[int | None] = [None] * size
    for i in range(1, m + 1):
        x = first[i]  # the position of M(i, j)
        top = ps[i - lo]
        for j in range(i, rmax[i - 1] + 1):
            p = lm[j]
            if p == i:  # M(i, j) is projective, and so is every longer one
                break
            syzygy_at[x] = offset[p - lo] + i - 1  # Omega M(i,j) = M(p, i-1)
            length = j - i + 1
            if length <= m:
                # runs(p, i, length), inlined: runs of one vertex lie at
                # least m apart, so the runs of c = p..i-1 are disjoint
                starts = top - ps[p - lo]
                row = (starts << length) - starts
            else:
                # the runs of c and c - m meet, so c = max(p, i-m)..i-1
                # stands for its class: one run from its own start to the
                # end of the run of the least c' = c (mod m) in [p, i-1]
                wraps = (i - 1 - p) // m
                cut = p + wraps * m  # c' = c - wraps*m from cut on, c - (wraps-1)*m below
                row = runs(cut, i, length + wraps * m) | runs(
                    max(p, i - m), cut, length + (wraps - 1) * m
                )
            ext1[x] = row << (i - 1) >> 1
            x += 1

    table = [ext1]
    at: list[int | None] = list(range(size))  # position of Omega^(k-1) x
    for _ in range(kmax - 1):
        at = [None if x is None else syzygy_at[x] for x in at]
        table.append([0 if x is None else ext1[x] for x in at])
    return table


def ext_dim(algebra: Algebra, m1: Indec, m2: Indec, k: int) -> int:
    """dim Ext^k(m1, m2), k >= 1."""
    return ext_dims_upto(algebra, m1, m2, k)[k - 1]


# ---------------------------------------------------------------------------
# Global dimension and the AR quiver.
# ---------------------------------------------------------------------------


def projective_dimension(algebra: Algebra, module: Indec):
    """pd of a module; INFINITY when the syzygy orbit cycles."""
    # Every syzygy on the walk is a canonical non-projective indecomposable;
    # there are finitely many (at most m * max(kupisch)), so seen ends it.
    seen = set()
    cur = module
    steps = 0
    while True:
        if is_projective(algebra, cur):
            return steps
        if cur in seen:
            return INFINITY
        seen.add(cur)
        cur = omega(algebra, cur, 1)
        steps += 1


def gldim(algebra: Algebra):
    """Global dimension: max projective dimension over the simples.

    One walk along Omega: every module met gets its pd, so a later walk
    stops at the first module already known, and a walk that comes back to
    a module of its own path has infinite pd.
    """
    known: dict[Indec, int] = {}
    best = 0
    for v in range(1, algebra.m + 1):
        path = []
        on_path = set()
        cur = simple(algebra, v)
        while cur not in known:
            if is_projective(algebra, cur):
                known[cur] = 0
                break
            if cur in on_path:
                return INFINITY
            path.append(cur)
            on_path.add(cur)
            cur = omega(algebra, cur, 1)
        pd = known[cur]
        for module in reversed(path):
            pd += 1
            known[module] = pd
        best = max(best, pd)
    return best


@dataclass(frozen=True)
class ARQuiver:
    vertices: tuple[Indec, ...]
    arrows: tuple[tuple[Indec, Indec, str], ...]  # (source, target, "mono"|"epi")


def ar_quiver(algebra: Algebra) -> ARQuiver:
    verts = indecomposables(algebra)
    arrows = []
    for module in verts:
        i, j = module
        if algebra.exists(*canonical(algebra, i, j + 1)):
            arrows.append((module, canonical(algebra, i, j + 1), "mono"))
        if algebra.exists(*canonical(algebra, i + 1, j)):
            arrows.append((module, canonical(algebra, i + 1, j), "epi"))
    return ARQuiver(tuple(verts), tuple(arrows))
