"""The matrix-representation oracle for Hom and Ext.

Every uniserial module is realized by per-vertex bases and 0/1 arrow
matrices; Hom spaces are nullspaces of the commuting equations and Ext is
the cohomology of Hom(-, N) applied to the minimal projective resolution,
ranked by exact elimination in ``linalg``.  It takes nothing from
``nakct.modules`` but the ``Indec`` type, and it exists only to cross-check
that module's index arithmetic; it lives with the tests, outside the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

from nakct.algebra import Algebra
from nakct.errors import InvalidParameter
from nakct.modules import Indec

from . import linalg


@dataclass(frozen=True)
class MatrixRep:
    """Per-vertex bases and per-arrow 0/1 matrices of a uniserial module.

    ``basis[v]`` lists the integer labels t (i <= t <= j, t = v mod m) of the
    basis vectors living at vertex v; the arrow at v maps b_t to b_{t-1}.
    """

    algebra: Algebra
    module: tuple[int, int]
    basis: tuple[tuple[int, ...], ...]  # index v-1 holds labels at vertex v
    arrows: tuple[tuple[tuple[int, ...], ...], ...]  # arrows[v-1]: vertex v -> v-1

    def dim(self, v: int) -> int:
        return len(self.basis[v - 1])


def matrix_rep(algebra: Algebra, module: Indec | tuple[int, int]) -> MatrixRep:
    i, j = module
    m = algebra.m
    basis = tuple(
        tuple(t for t in range(i, j + 1) if (t - v) % m == 0) for v in range(1, m + 1)
    )
    arrow_vertices = range(1, m + 1) if algebra.is_cyclic else range(2, m + 1)
    arrows = []
    for v in range(1, m + 1):
        src = basis[v - 1]
        dst = basis[algebra.vertex(v - 1) - 1]
        if v not in arrow_vertices:
            mat = tuple(tuple(0 for _ in src) for _ in dst)
        else:
            mat = tuple(
                tuple(1 if t - 1 == s and t - 1 >= i else 0 for t in src) for s in dst
            )
        arrows.append(mat)
    return MatrixRep(algebra, (i, j), basis, tuple(arrows))


def _hom_constraints(algebra: Algebra, rm: MatrixRep, rn: MatrixRep):
    """Linear system for graded maps X commuting with all arrow actions."""
    m = algebra.m
    dims_m = [rm.dim(v) for v in range(1, m + 1)]
    dims_n = [rn.dim(v) for v in range(1, m + 1)]
    offsets = []
    total = 0
    for v in range(m):
        offsets.append(total)
        total += dims_n[v] * dims_m[v]

    def var(v, p, q):  # entry X_v[p][q], 0-based vertex v
        return offsets[v] + p * dims_m[v] + q

    arrow_vertices = range(1, m + 1) if algebra.is_cyclic else range(2, m + 1)
    rows = []
    for v in arrow_vertices:
        w = algebra.vertex(v - 1)
        na = rn.arrows[v - 1]  # N_v -> N_w
        ma = rm.arrows[v - 1]  # M_v -> M_w
        for p in range(dims_n[w - 1]):
            for q in range(dims_m[v - 1]):
                row = [0] * total
                for r in range(dims_n[v - 1]):
                    row[var(v - 1, r, q)] += na[p][r]
                for s in range(dims_m[w - 1]):
                    row[var(w - 1, p, s)] -= ma[s][q]
                if any(row):
                    rows.append(row)
    return rows, total


def matrix_hom_dim(algebra: Algebra, m1: Indec | tuple[int, int], m2: Indec | tuple[int, int]) -> int:
    """dim Hom via the commuting-equations system; the oracle for hom_dim."""
    rm = matrix_rep(algebra, m1)
    rn = matrix_rep(algebra, m2)
    rows, total = _hom_constraints(algebra, rm, rn)
    return total - linalg.rank(rows)


def _resolution_raw(algebra: Algebra, module: Indec, length: int) -> list:
    """Covers and syzygies in raw integer coordinates.

    Returns a list of (cover, syzygy) pairs, entry k covering Omega^k; None
    once the resolution has terminated.
    """
    out = []
    cur = (module.i, module.j)
    for _ in range(length + 1):
        if cur is None:
            out.append(None)
            continue
        i, j = cur
        a = algebra.lmax(j)
        out.append(((a, j), (i, j)))
        cur = None if i == a else (a, i - 1)
    return out


def matrix_ext_dim(algebra: Algebra, m1: Indec, m2: Indec, k: int) -> int:
    """Independent Ext oracle: the whole cochain realized with matrices.

    Hom spaces come from nullspaces of commuting systems and differentials
    from composing those solution matrices with the canonical resolution
    maps; used to cross-check ext_dim.
    """
    if k < 1:
        raise InvalidParameter("ext needs k >= 1")
    res = _resolution_raw(algebra, m1, k + 1)
    reps = [matrix_rep(algebra, entry[0]) if entry else None for entry in res]
    target = matrix_rep(algebra, m2)
    hom_bases = []
    for rep in reps:
        if rep is None:
            hom_bases.append([])
        else:
            rows, total = _hom_constraints(algebra, rep, target)
            hom_bases.append(linalg.nullspace(rows, total))

    def diff_rank(kk: int) -> int:
        if reps[kk] is None or reps[kk + 1] is None or not hom_bases[kk]:
            return 0
        fmap = _canonical_map_matrices(algebra, reps[kk + 1], reps[kk])
        composites = [
            _compose_flat(algebra, phi, reps[kk], fmap, reps[kk + 1], target)
            for phi in hom_bases[kk]
        ]
        return linalg.rank(composites)

    return len(hom_bases[k]) - diff_rank(k) - diff_rank(k - 1)


def _canonical_map_matrices(algebra: Algebra, src: MatrixRep, dst: MatrixRep):
    """Per-vertex matrices of P_{k+1} ->> Omega c-> P_k (label-preserving)."""
    m = algebra.m
    a_dst = dst.module[0]
    mats = []
    for v in range(1, m + 1):
        cols = src.basis[v - 1]
        rows = dst.basis[v - 1]
        mats.append(
            [[1 if r == t and t >= a_dst else 0 for t in cols] for r in rows]
        )
    return mats


def _compose_flat(algebra, phi_flat, rep_k, fmap, rep_k1, target):
    """Flatten (X . F) where X: P_k -> N is given by the flat vector phi."""
    m = algebra.m
    # unflatten phi into per-vertex matrices X_v (dimN x dimP_k)
    xs = []
    pos = 0
    for v in range(1, m + 1):
        dn, dm = len(target.basis[v - 1]), len(rep_k.basis[v - 1])
        mat = [phi_flat[pos + p * dm : pos + (p + 1) * dm] for p in range(dn)]
        pos += dn * dm
        xs.append(mat)
    out = []
    for v in range(1, m + 1):
        x, f = xs[v - 1], fmap[v - 1]
        dn = len(target.basis[v - 1])
        dc = len(rep_k1.basis[v - 1])
        for p in range(dn):
            for q in range(dc):
                out.append(sum(x[p][s] * f[s][q] for s in range(len(f))))
    return out
