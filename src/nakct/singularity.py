"""Singularity-category model for cyclic non-homogeneous algebras.

The singularity category is represented exclusively through the Frobenius
subcategory F of indecomposables whose top and tau-socle lie on cycles of
the resolution quiver: its stable category is equivalent to the stable
module category of a radical-square-zero cyclic algebra Gamma on r*n
vertices.  No complexes and no localization appear anywhere; everything is
finite bookkeeping over the block decomposition.  Gamma's cluster-tilting
subcategories come from the closed form of ``classify_nz``; the brute-force
enumeration they must equal is run by the tests, not here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import Algebra, Kind, cut_points, homogeneous
from .classify import Case, Decomposition, classify_nz
from .errors import (
    FiniteGlobalDimension,
    InternalError,
    KindMismatch,
    NotInClassifiedCase,
)
from .modules import (
    INFINITY,
    Indec,
    canonical,
    gldim,
    hom_dim,
    indecomposables,
    is_injective,
    is_projective,
    projectives,
)


@dataclass(frozen=True)
class ResolutionQuiver:
    """The successor map i -> vertex of tau(soc P_i); sinks are omitted."""

    m: int
    successor: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.successor)


@dataclass(frozen=True)
class FCategory:
    objects: frozenset[Indec]
    f_projectives: frozenset[Indec] | None

    def to_json_dict(self) -> dict:
        out = {"objects": sorted([m.i, m.j] for m in self.objects)}
        if self.f_projectives is not None:
            out["f_projectives"] = sorted([m.i, m.j] for m in self.f_projectives)
        return out


@dataclass(frozen=True)
class GammaPresentation:
    gamma: Algebra
    projectives_enum: tuple[Indec, ...]
    block_offsets: tuple[int, ...]
    blocks: Decomposition
    n: int


@dataclass(frozen=True)
class SingImage:
    verdict: str  # "Zero" | "NonZero"
    target: Indec | None = None
    via: str | None = None  # "Inclusion" | "Projection" | "Identity"


def resolution_quiver(algebra: Algebra) -> ResolutionQuiver:
    """Arrow i -> j exactly when S_j = tau(soc P_i).

    soc P_i is the simple at lmax(i); its tau-translate sits one step left,
    so sigma(i) = lmax(i) - 1 whenever S_{lmax(i)} is not projective (over
    an acyclic algebra the only projective simple is at vertex 1).
    """
    pairs = []
    for i in range(1, algebra.m + 1):
        socle = algebra.lmax(i)
        if algebra.kind is Kind.ACYCLIC and socle == 1:
            continue
        pairs.append((i, algebra.vertex(socle - 1)))
    return ResolutionQuiver(algebra.m, tuple(pairs))


def cyclic_simples(algebra: Algebra) -> set[int]:
    """Vertices lying on a cycle of the resolution quiver."""
    if algebra.kind is not Kind.CYCLIC:
        raise KindMismatch("cyclic simples are defined for cyclic algebras")
    successor = resolution_quiver(algebra).as_dict()
    on_cycle = set()
    color = {}  # 0 in progress, 1 done
    for start in range(1, algebra.m + 1):
        path = []
        v = start
        while color.get(v) is None:
            color[v] = 0
            path.append(v)
            v = successor[v]
        if color[v] == 0:
            on_cycle.update(path[path.index(v):])
        for u in path:
            color[u] = 1
    return on_cycle


@functools.lru_cache(maxsize=64)
def _blocks(algebra: Algebra, n: int | None) -> tuple[Decomposition, int]:
    """Decomposition and n for a classified cyclic non-homogeneous algebra.

    Memoized, so that the parts of one singularity query classify the
    algebra once between them.
    """
    if algebra.kind is not Kind.CYCLIC:
        raise NotInClassifiedCase("need a cyclic algebra")
    candidates = [n] if n is not None else sorted(_candidate_n(algebra))
    for cand in candidates:
        result = classify_nz(algebra, cand)
        if result.case is Case.CYCLIC_SELF_GLUED:
            return result.decomposition, cand
    raise NotInClassifiedCase(
        f"{algebra} is not a classified self-glued algebra"
        + (f" for n={n}" if n is not None else "")
    )


def _candidate_n(algebra: Algebra) -> set[int]:
    """Possible n read off the first deep homogeneous run of each ungluing."""
    k = algebra.kupisch
    out = set()
    for p in sorted(cut_points(algebra)):
        c = (1,) + k[p:] + k[:p]  # the Kupisch series of unglue(algebra, p)
        m = len(c)
        s = 1
        while s < m:
            t = 1
            while s + t <= m and c[s + t - 1] == t + 1:
                t += 1
            if s + t > m or c[s + t - 1] != t:
                break
            l = t
            run = l - 1
            while s + run + 1 <= m and c[s + run] == min(run + 2, l):
                run += 1
            if l >= 3:
                if (2 * run) % l == 0 and 2 * run // l >= 2:
                    out.add(2 * run // l)
                break
            s += run
    return out


def f_objects(algebra: Algebra, n: int | None = None) -> FCategory:
    """The Frobenius subcategory: top and tau-socle both cyclic simples.

    For classified self-glued algebras the objects are also produced by the
    four per-block families and the F-projectives are the two projective
    families; outside the classified case only the definitional filter is
    available and f_projectives stays absent.
    """
    if algebra.kind is not Kind.CYCLIC:
        raise KindMismatch("the construction needs a cyclic algebra")
    if gldim(algebra) is not INFINITY:
        raise FiniteGlobalDimension(f"{algebra} has finite global dimension")
    on_cycle = cyclic_simples(algebra)
    objects = frozenset(
        module
        for module in indecomposables(algebra)
        if algebra.vertex(module.j) in on_cycle
        and algebra.vertex(module.i - 1) in on_cycle
    )
    try:
        blocks, _ = _blocks(algebra, n)
    except NotInClassifiedCase:
        return FCategory(objects, None)
    families = _type_families(algebra, blocks)
    from_types = frozenset().union(*families) if families else frozenset()
    if from_types != objects:
        raise InternalError("type families disagree with the definitional filter")
    f_projectives = frozenset(families[2] | families[3])
    return FCategory(objects, f_projectives)


def _type_families(algebra: Algebra, blocks: Decomposition):
    """The four module families over pairs (block, i = start mod loewy)."""
    simples_f: set[Indec] = set()
    cosyzygies_f: set[Indec] = set()
    long_proj: set[Indec] = set()
    shifted_proj: set[Indec] = set()
    for piece in blocks.pieces:
        for i in range(piece.start, piece.end, piece.loewy):
            simples_f.add(canonical(algebra, i, i))
            cosyzygies_f.add(canonical(algebra, i + 1, i + piece.loewy - 1))
            long_proj.add(canonical(algebra, i, i + piece.loewy - 1))
            shifted_proj.add(canonical(algebra, i + 1, i + piece.loewy))
    return (simples_f, cosyzygies_f, long_proj, shifted_proj)


def gamma(algebra: Algebra, n: int) -> GammaPresentation:
    """Presentation of the singularity category: a radical-square-zero
    cyclic algebra on r*n vertices whose projectives enumerate the
    F-projectives block by block."""
    blocks, n = _blocks(algebra, n)
    pieces = blocks.pieces
    r = len(pieces)
    offsets = []
    total = 0
    for piece in pieces:
        offsets.append(total)
        total += 2 * (piece.end - piece.start) // piece.loewy
    if total != r * n:
        raise InternalError("block offsets do not sum to r*n")
    enum: list[Indec] = [None] * total
    for piece, offset in zip(pieces, offsets):
        l = piece.loewy
        for i in range((piece.end - piece.start) // l):
            base = piece.start + i * l
            enum[offset + 2 * i] = canonical(algebra, base, base + l - 1)
            enum[offset + 2 * i + 1] = canonical(algebra, base + 1, base + l)
    # The law: Hom(P_a, P_b) is 1 for b in {a, a+1} and 0 otherwise.  By the
    # closed form of hom_dim, Hom(M(i,j), M(c,d)) = 0 unless c is congruent
    # to a vertex of [i, j], so only the P_b with socle in P_a's span need a
    # call; the expected partners must be among them.
    by_socle: dict[int, list[int]] = {}
    for b, target in enumerate(enum):
        by_socle.setdefault(target.i, []).append(b)
    m = algebra.m
    for a, source in enumerate(enum):
        expected = {a, (a + 1) % total}
        near = {
            b
            for v in range(source.i, min(source.j, source.i + m - 1) + 1)
            for b in by_socle.get(algebra.vertex(v), ())
        }
        for b in near | expected:
            value = hom_dim(algebra, source, enum[b]) if b in near else 0
            if value != (1 if b in expected else 0):
                raise InternalError(f"hom adjacency law fails between P_{a} and P_{b}")
    return GammaPresentation(
        gamma=homogeneous(Kind.CYCLIC, total, 2),
        projectives_enum=tuple(enum),
        block_offsets=tuple(offsets),
        blocks=blocks,
        n=n,
    )


def _locate_block(algebra: Algebra, blocks: Decomposition, module: Indec):
    """Block index k and the (i, j) lift of module into block k's span."""
    m = algebra.m
    for piece in blocks.pieces:
        length = piece.end - piece.start
        offset = (module.i - piece.start) % m
        if offset < length:
            i = piece.start + offset
            j = i + module.j - module.i
            if j > piece.end:
                raise InternalError(f"{module} crosses the block boundary")
            return piece, i, j
    raise InternalError(f"{module} not contained in any block")


def sing_image(algebra: Algebra, module: Indec, n: int | None = None) -> SingImage:
    """Image of a module under the canonical functor to the singularity
    category: zero, or identified with a canonical non-projective F-object
    via an inclusion or a projection."""
    blocks, _ = _blocks(algebra, n)
    piece, i, j = _locate_block(algebra, blocks, module)
    l = piece.loewy
    if j - i >= l - 1:
        return SingImage("Zero")
    if (i - piece.start - 1) % l == 0:
        target = canonical(algebra, i, i + l - 2)
        via = "Identity" if target == module else "Inclusion"
        return SingImage("NonZero", target, via)
    if (j - piece.start) % l == 0:
        target = canonical(algebra, j, j)
        via = "Identity" if target == module else "Projection"
        return SingImage("NonZero", target, via)
    return SingImage("Zero")


@dataclass(frozen=True)
class SingClusterTilting:
    count: int
    distinguished_simple_indices: frozenset[int]
    gamma_indices: frozenset[int]


def sing_ct(algebra: Algebra, n: int) -> SingClusterTilting:
    """Cluster tilting downstairs: how many nZ-cluster tilting subcategories
    the stable category of Gamma carries, which simples upstairs the
    distinguished one comes from, and where their F-projective covers sit in
    the Gamma enumeration.

    Gamma's subcategories are the closed-form ones of ``classify_nz``, which
    re-verifies each; the tests check them against brute-force enumeration.
    """
    return sing_ct_of(algebra, gamma(algebra, n))


def sing_ct_of(algebra: Algebra, presentation: GammaPresentation) -> SingClusterTilting:
    """``sing_ct`` from a presentation of Gamma already built for algebra."""
    n = presentation.n
    pieces = presentation.blocks.pieces
    gm = presentation.gamma

    gamma_projectives = projectives(gm)
    stable = {frozenset(s - gamma_projectives) for s in classify_nz(gm, n).subcategories}
    distinguished = frozenset(piece.start for piece in pieces)

    enum = presentation.projectives_enum
    index = {p: a for a, p in enumerate(enum)}
    if len(index) != len(enum):
        raise InternalError("the Gamma enumeration repeats a projective")
    gamma_indices = set()
    for k, piece in enumerate(pieces):
        prev = pieces[k - 1]
        cover = canonical(algebra, piece.start - prev.loewy + 1, piece.start)
        if cover not in index:
            raise InternalError(f"cover of simple at {piece.start} not in enum")
        gamma_indices.add(index[cover])
    return SingClusterTilting(len(stable), distinguished, frozenset(gamma_indices))


def gorenstein_witness(algebra: Algebra, n: int | None = None) -> Indec:
    """An injective non-projective module that stays nonzero downstairs,
    witnessing failure of the Iwanaga-Gorenstein property."""
    blocks, n = _blocks(algebra, n)
    for piece in blocks.pieces:
        if piece.loewy >= 3:
            witness = canonical(algebra, piece.end - 1, piece.end)
            if is_projective(algebra, witness) or not is_injective(algebra, witness):
                raise InternalError("witness construction produced a wrong module")
            if sing_image(algebra, witness, n).verdict != "NonZero":
                raise InternalError("witness vanishes in the singularity category")
            return witness
    raise InternalError("classified algebra without any deep block")
