"""Dual-route checks: every combinatorial count must match the exact
matrix-representation computation."""

import ast
import itertools
from pathlib import Path

import nakct
from nakct import (
    Kind,
    ext_dim,
    from_kupisch,
    hom_dim,
    homogeneous,
    indecomposables,
    is_projective,
    omega,
    translate,
    ZERO,
)
from conftest import random_algebras
from oracles.matrix import matrix_ext_dim, matrix_hom_dim


def _named(lam_a, lam_b, lam_c):
    return [
        lam_a,
        lam_b,
        lam_c,
        homogeneous(Kind.CYCLIC, 6, 5),
        homogeneous(Kind.ACYCLIC, 9, 2),
        from_kupisch(Kind.CYCLIC, (4, 4)),
        homogeneous(Kind.CYCLIC, 1, 5),
    ]


def test_hom_formula_exhaustive(lam_a, lam_b, lam_c):
    for algebra in _named(lam_a, lam_b, lam_c):
        for x, y in itertools.product(indecomposables(algebra), repeat=2):
            assert hom_dim(algebra, x, y) == matrix_hom_dim(algebra, x, y), (
                algebra,
                x,
                y,
            )


def test_hom_formula_random():
    for algebra in random_algebras(20250809, 12, total_cap=24):
        for x, y in itertools.product(indecomposables(algebra), repeat=2):
            assert hom_dim(algebra, x, y) == matrix_hom_dim(algebra, x, y)


def test_ext_matrix_agreement(lam_a, lam_b):
    for algebra in (lam_a, lam_b, homogeneous(Kind.CYCLIC, 4, 3)):
        mods = indecomposables(algebra)
        for x, y in itertools.product(mods, repeat=2):
            for k in (1, 2, 3):
                assert ext_dim(algebra, x, y, k) == matrix_ext_dim(algebra, x, y, k)


def test_ext_matrix_agreement_random():
    for algebra in random_algebras(424243, 6, total_cap=18):
        mods = indecomposables(algebra)
        for x, y in itertools.product(mods, repeat=2):
            for k in (1, 2, 3, 4, 5):
                assert ext_dim(algebra, x, y, k) == matrix_ext_dim(algebra, x, y, k)


def _ar_formula_ext1(algebra, x, y):
    """dim Ext^1(X, Y) = dim Hom(Y, tau X) - (maps factoring through the
    injective hull of Y); the factoring space is Hom(hull, tau X) modulo
    the maps killing Y, which are Hom of the cosyzygy."""
    from nakct import cover_hull

    tx = translate(algebra, x, "fwd")
    if tx is ZERO:
        return 0
    _, hull, _, _ = cover_hull(algebra, y)
    through = hom_dim(algebra, hull, tx)
    cosyzygy = omega(algebra, y, -1)
    if cosyzygy is not ZERO:
        through -= hom_dim(algebra, cosyzygy, tx)
    return hom_dim(algebra, y, tx) - through


def test_ar_formula_cross_check(lam_a, lam_b):
    algebras = [lam_a, lam_b, homogeneous(Kind.CYCLIC, 6, 3)]
    algebras += random_algebras(777, 8, total_cap=20)
    for algebra in algebras:
        for x, y in itertools.product(indecomposables(algebra), repeat=2):
            if is_projective(algebra, x):
                continue
            assert ext_dim(algebra, x, y, 1) == _ar_formula_ext1(algebra, x, y), (
                algebra,
                x,
                y,
            )


def test_oracle_stays_out_of_production():
    # every module of the package, whatever its name, and the package itself
    paths = sorted(Path(nakct.__file__).parent.glob("*.py"))
    assert {"__init__.py", "errors.py", "cli.py"} <= {path.name for path in paths}
    for path in paths:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        assert not imported & {"oracles", "oracle", "linalg"}, path.name
    assert not [name for name in dir(nakct) if name.startswith("matrix_")]
    for name in ("matrix_hom_dim", "matrix_ext_dim", "matrix_rep", "MatrixRep"):
        assert not hasattr(nakct, name), name  # no lazy re-export either


def test_library_keeps_no_functools_cache():
    # every result is recomputed from its arguments; nothing is memoized
    for path in sorted(Path(nakct.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
        assert not names & {"lru_cache", "cache", "functools"}, path.name
