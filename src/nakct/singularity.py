"""Singularity-category model for cyclic non-homogeneous algebras.

The singularity category is represented exclusively through the Frobenius
subcategory F of indecomposables whose top and tau-socle lie on cycles of
the resolution quiver: its stable category is equivalent to the stable
module category of a radical-square-zero cyclic algebra Gamma on r*n
vertices.  No complexes and no localization appear anywhere; everything is
finite bookkeeping over the block decomposition.  Gamma's cluster-tilting
subcategories come from the closed form of ``classify_nz``; the brute-force
enumeration they must equal is run by the tests, not here.

The ``singularity`` command builds each part of the model once: Gamma, the
resolution quiver, and the cyclic simples read off that quiver, which it
hands on to ``f_objects`` and prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Kind, homogeneous
from .classify import Case, Decomposition, classify_nz, deep_ramp_point, read_plateau, read_ramp
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
    """One algebra's singularity model; ``gamma`` builds it, the other
    singularity functions take it."""

    algebra: Algebra
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


def cyclic_simples(algebra: Algebra, quiver: ResolutionQuiver | None = None) -> set[int]:
    """Vertices lying on a cycle of the resolution quiver, which is built
    here unless the algebra's ``quiver`` is given."""
    if algebra.kind is not Kind.CYCLIC:
        raise KindMismatch("cyclic simples are defined for cyclic algebras")
    if quiver is None:
        quiver = resolution_quiver(algebra)
    successor = quiver.as_dict()
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


def f_objects(
    algebra: Algebra,
    model: GammaPresentation | None = None,
    *,
    on_cycle: set[int] | None = None,
) -> FCategory:
    """The Frobenius subcategory: top and tau-socle both cyclic simples.

    Given the algebra's singularity model, the F-projectives are Gamma's
    enumeration and the objects are also produced by them and the two
    non-projective per-block families; without one only the definitional
    filter is applied and f_projectives stays absent.  The cyclic simples
    are computed here unless the algebra's ``on_cycle`` is given.
    """
    if algebra.kind is not Kind.CYCLIC:
        raise KindMismatch("the construction needs a cyclic algebra")
    if gldim(algebra) is not INFINITY:
        raise FiniteGlobalDimension(f"{algebra} has finite global dimension")
    if on_cycle is None:
        on_cycle = cyclic_simples(algebra)
    objects = frozenset(
        module
        for module in indecomposables(algebra)
        if algebra.vertex(module.j) in on_cycle
        and algebra.vertex(module.i - 1) in on_cycle
    )
    if model is None:
        return FCategory(objects, None)
    f_projectives = frozenset(model.projectives_enum)
    if f_projectives.union(*_type_families(algebra, model.blocks)) != objects:
        raise InternalError("type families disagree with the definitional filter")
    return FCategory(objects, f_projectives)


def _type_families(algebra: Algebra, blocks: Decomposition):
    """The simples and cosyzygies of F over pairs (block, i = start mod loewy)."""
    simples_f: set[Indec] = set()
    cosyzygies_f: set[Indec] = set()
    for piece in blocks.pieces:
        for i in range(piece.start, piece.end, piece.loewy):
            simples_f.add(canonical(algebra, i, i))
            cosyzygies_f.add(canonical(algebra, i + 1, i + piece.loewy - 1))
    return (simples_f, cosyzygies_f)


def _inferred_n(algebra: Algebra) -> int | None:
    """2*run/l for the first piece of the deep-ramp ungluing, or None."""
    p = deep_ramp_point(algebra)
    if p is None:
        return None
    k = algebra.kupisch
    c = (1,) + k[p:] + k[:p]  # the Kupisch series of unglue(algebra, p)
    l = read_ramp(c, 1)
    if l is None:
        return None
    run = read_plateau(c, 1, l, len(c))
    return None if (2 * run) % l else 2 * run // l


def gamma(algebra: Algebra, n: int | None = None) -> GammaPresentation:
    """Presentation of the singularity category: a radical-square-zero
    cyclic algebra on r*n vertices whose projectives enumerate the
    F-projectives block by block.

    The algebra is classified once.  Without n, n is read off the first
    piece of the ungluing at the first deep-ramp cut point, which every
    classified self-glued algebra has: that piece has length n*l/2.
    """
    if algebra.kind is not Kind.CYCLIC:
        raise NotInClassifiedCase("need a cyclic algebra")
    found = n if n is not None else _inferred_n(algebra)
    result = classify_nz(algebra, found) if found is not None else None
    if result is None or result.case is not Case.CYCLIC_SELF_GLUED:
        raise NotInClassifiedCase(
            f"{algebra} is not a classified self-glued algebra"
            + (f" for n={n}" if n is not None else "")
        )
    n = found
    blocks = result.decomposition
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
        algebra=algebra,
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


def sing_image(model: GammaPresentation, module: Indec) -> SingImage:
    """Image of a module under the canonical functor to the singularity
    category: zero, or identified with a canonical non-projective F-object
    via an inclusion or a projection."""
    algebra = model.algebra
    piece, i, j = _locate_block(algebra, model.blocks, module)
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


def sing_ct(model: GammaPresentation) -> SingClusterTilting:
    """Cluster tilting downstairs: how many nZ-cluster tilting subcategories
    the stable category of Gamma carries, which simples upstairs the
    distinguished one comes from, and where their F-projective covers sit in
    the Gamma enumeration.

    Gamma's subcategories are the closed-form ones of ``classify_nz``, which
    re-verifies each; the tests check them against brute-force enumeration.
    """
    algebra = model.algebra
    pieces = model.blocks.pieces
    gm = model.gamma

    gamma_projectives = projectives(gm)
    stable = {frozenset(s - gamma_projectives) for s in classify_nz(gm, model.n).subcategories}
    distinguished = frozenset(piece.start for piece in pieces)

    enum = model.projectives_enum
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


def gorenstein_witness(model: GammaPresentation) -> Indec:
    """An injective non-projective module that stays nonzero downstairs,
    witnessing failure of the Iwanaga-Gorenstein property."""
    algebra = model.algebra
    for piece in model.blocks.pieces:
        if piece.loewy >= 3:
            witness = canonical(algebra, piece.end - 1, piece.end)
            if is_projective(algebra, witness) or not is_injective(algebra, witness):
                raise InternalError("witness construction produced a wrong module")
            if sing_image(model, witness).verdict != "NonZero":
                raise InternalError("witness vanishes in the singularity category")
            return witness
    raise InternalError("classified algebra without any deep block")
