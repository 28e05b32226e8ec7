"""Exact linear algebra over the integers.

Everything here works on lists of lists of Python ints.  Ranks are computed
by fraction-free (Bareiss) elimination, so all intermediate values stay
integral and no tolerance enters anywhere.  The nullspace routine returns an
integer basis of the rational kernel.
"""

from __future__ import annotations

import math


def rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix over the rationals, by Bareiss elimination."""
    if not matrix or not matrix[0]:
        return 0
    a = [row[:] for row in matrix]
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def nullspace(matrix: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the rational kernel of ``matrix`` (ncols unknowns).

    Gauss-Jordan over fractions would do; to stay integral we run a
    fraction-free reduction and clear denominators column by column.
    """
    from fractions import Fraction

    if ncols == 0:
        return []
    if not matrix:
        basis = []
        for k in range(ncols):
            v = [0] * ncols
            v[k] = 1
            basis.append(v)
        return basis

    a = [[Fraction(x) for x in row] for row in matrix]
    rows = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break

    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][fcol]
        lcm = math.lcm(*(x.denominator for x in vec))
        basis.append([int(x * lcm) for x in vec])
    return basis
