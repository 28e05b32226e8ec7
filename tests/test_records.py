"""The package's record types: what callers rely on, and the cold-start rule
that builds them without ``dataclasses`` or runtime ``typing``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import nakct
from nakct import (
    Algebra,
    ClassificationResult,
    Decomposition,
    Failure,
    HomogeneitySpec,
    Indec,
    InvalidParameter,
    Kind,
    Piece,
    SingImage,
    ar_quiver,
    classify_nz,
    f_objects,
    gamma,
    is_homogeneous,
    resolution_quiver,
    sing_ct,
    sing_image,
    verify_ct,
)
from nakct.render import RenderSpec

SRC = Path(nakct.__file__).parent
# what dataclasses and typing import that nothing else of the package does
HEAVY = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "copy"}


def test_package_imports_no_dataclasses_or_typing():
    paths = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "algebra.py", "cli.py"} <= {path.name for path in paths}
    for path in paths:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
        assert not imported & {"dataclasses", "typing"}, path.name


def test_cold_import_loads_no_heavy_stdlib_modules():
    # -S: a site-packages .pth file may import typing before nakct runs
    script = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
        "import nakct, nakct.cli; "
        f"print(sorted(set({sorted(HEAVY)!r}) & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def _records(lam_c):
    """One of each record type, built afresh on every call."""
    model = gamma(lam_c, 4)
    return [
        HomogeneitySpec(2),
        Piece(1, 7, 3),
        Decomposition((Piece(1, 7, 3), Piece(7, 15, 2))),
        classify_nz(lam_c, 4),
        classify_nz(lam_c, 3),
        ar_quiver(lam_c),
        Failure("MissingProjective", Indec(1, 2)),
        verify_ct(lam_c, classify_nz(lam_c, 4).subcategories[0], 4),
        verify_ct(lam_c, [Indec(1, 1)], 4),
        resolution_quiver(lam_c),
        f_objects(lam_c, model),
        model,
        sing_image(model, Indec(1, 1)),
        sing_ct(model),
        RenderSpec("tikz", frozenset({Indec(1, 1)})),
        Indec(1, 3),
    ]


def test_records_are_immutable_values(lam_c):
    first, second = _records(lam_c), _records(lam_c)
    assert len({type(record) for record in first}) == 14
    for one, two in zip(first, second):
        assert one is not two
        assert one == two and hash(one) == hash(two), type(one).__name__
        name = repr(one).split("(", 1)[1].split("=", 1)[0]  # the first field
        with pytest.raises(AttributeError):
            setattr(one, name, None)
        with pytest.raises(AttributeError):
            one.unknown = None
    for algebra in (lam_c, Algebra(Kind.CYCLIC, (3, 2, 2))):
        for name in ("kind", "kupisch", "m", "_lmax", "unknown"):
            with pytest.raises(AttributeError):
                setattr(algebra, name, None)
        with pytest.raises(AttributeError):
            del algebra.kind


def test_record_defaults_and_fields():
    assert Decomposition((Piece(1, 3, 2),)).self_glued is False
    failure = Failure("MissingProjective")
    assert (failure.module, failure.other, failure.degree, failure.side) == (None,) * 4
    assert SingImage("Zero").target is None and SingImage("Zero").via is None
    assert Indec(1, 3).length == 3
    assert RenderSpec() == RenderSpec("dot", None, None)
    with pytest.raises(InvalidParameter):
        RenderSpec("svg")
    assert is_homogeneous(nakct.homogeneous(Kind.CYCLIC, 4, 3)) == HomogeneitySpec(3)
    result = ClassificationResult(False, nakct.Case.NONE, None, ())
    assert result.exists is False and not isinstance(result, tuple)


def test_algebra_compares_on_kind_and_kupisch_only():
    algebra = Algebra(kind=Kind.CYCLIC, kupisch=(3, 2, 2))
    assert repr(algebra) == "Algebra(kind=<Kind.CYCLIC: 'cyclic'>, kupisch=(3, 2, 2))"
    assert algebra.m == 3
    assert algebra == Algebra(Kind.CYCLIC, (3, 2, 2))
    assert algebra != Algebra(Kind.CYCLIC, (2, 3, 2))
    assert algebra != Algebra(Kind.ACYCLIC, (1, 2, 2))
    assert algebra != (Kind.CYCLIC, (3, 2, 2))
    # the derived tables take no part: equal series give equal tables anyway,
    # so swap them on one side
    other = Algebra(Kind.CYCLIC, (3, 2, 2))
    for name in ("m", "_lmax", "_rmax"):
        object.__setattr__(other, name, None)
    assert other == algebra and hash(other) == hash(algebra) and repr(other) == repr(algebra)
