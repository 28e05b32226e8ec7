import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nakct.cli import COMMANDS, build_parser, parse_args, run
from nakct.errors import InvalidParameter

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)

    write("a9r2.json", {"kind": "acyclic", "homogeneous": {"m": 9, "l": 2}})
    write("a73.json", {"kind": "acyclic", "kupisch": [1, 2, 3, 3, 3, 3, 3]})
    write("lamA.json", {"kind": "acyclic", "kupisch": [1, 2, 3, 3, 4, 2, 3]})
    write(
        "lamC.json",
        {"kind": "cyclic", "kupisch": [2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2]},
    )
    write(
        "marked.json",
        {
            "members": [
                [1, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 5], [5, 6],
                [6, 7], [7, 8], [8, 9], [9, 9],
            ]
        },
    )
    write("big.json", {"kind": "cyclic", "homogeneous": {"m": 10, "l": 8}})
    write("bad.json", {"kind": "acyclic", "kupisch": [1, 1]})
    write("float.json", {"kind": "acyclic", "kupisch": [1, 2.9, 3]})
    write("float_members.json", {"members": [[1.9, 2.2], [1, 1]]})
    write("a122.json", {"kind": "acyclic", "kupisch": [1, 2, 2]})
    # M(4,4) is not a module over the 3-vertex line, and not M(1,1)
    write("wrapped_members.json", {"members": [[4, 4], [1, 2], [2, 3], [3, 3]]})
    write("huge.json", {"kind": "acyclic", "homogeneous": {"m": 100000000, "l": 3}})
    write("huge_kupisch.json", {"kind": "cyclic", "kupisch": [20001]})
    # malformed files: too deeply nested to decode, and not UTF-8
    for name, data in (("nested.json", b"[" * 100000), ("utf16.json", b"\xff\xfe{}")):
        (tmp_path / name).write_bytes(data)
        paths[name] = str(tmp_path / name)
    return paths


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_command(files, capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "4", files["a9r2.json"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["case"] == "AcyclicHomogRadSq"
    assert len(payload["subcategories"]) == 1
    assert [1, 1] in payload["subcategories"][0]
    assert payload["pieces"] == [[1, 5, 2], [5, 9, 2]]


def test_classify_negative_exit(files, capsys):
    code, out, _ = _run(capsys, ["classify", "--n", "3", files["lamA.json"]])
    assert code == 1
    assert json.loads(out)["exists"] is False


def test_verify_negative_perp_gap(files, capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--n", "2", "--mode", "n", "--subcat", files["marked.json"], files["a9r2.json"]],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    gaps = [f for f in payload["failures"] if f["kind"] == "PerpGap"]
    assert {"kind": "PerpGap", "module": [3, 3], "side": "both"} in gaps


def test_verify_positive(files, capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--n", "4", "--subcat", files["marked.json"], files["a9r2.json"]],
    )
    assert code == 0 and json.loads(out)["verdict"] is True


def test_enumerate_command(files, capsys):
    code, out, _ = _run(capsys, ["enumerate", "--n", "4", files["a73.json"]])
    assert code == 0
    assert len(json.loads(out)["subcategories"]) == 1


def test_ext_command(files, capsys):
    code, out, _ = _run(
        capsys, ["ext", "--x", "3,4", "--y", "2,3", "--k", "1", files["lamA.json"]]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ext"] == [{"dim": 1, "k": 1}]


def test_singularity_command(files, capsys):
    code, out, _ = _run(capsys, ["singularity", "--n", "4", files["lamC.json"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == {"kind": "cyclic", "kupisch": [2] * 12}
    assert payload["distinguished"] == [1, 7, 11]
    assert payload["gamma_indices"] == [3, 7, 11]
    assert payload["count"] == 4
    assert payload["gorenstein_witness"] == [6, 7]
    assert len(payload["f"]["objects"]) == 24
    assert [8, 9] in payload["f"]["f_projectives"]


def test_glue_and_self_glue_and_gldim(files, capsys, tmp_path):
    code, out, _ = _run(capsys, ["glue", files["a73.json"], files["a9r2.json"]])
    assert code == 0
    glued = json.loads(out)
    assert glued["kupisch"] == [1, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2]
    glued_path = tmp_path / "glued.json"
    glued_path.write_text(json.dumps(glued), encoding="utf-8")

    code, out, _ = _run(capsys, ["gldim", str(glued_path)])
    assert code == 0 and json.loads(out) == {"gldim": 12}

    code, out, _ = _run(capsys, ["self-glue", str(glued_path)])
    assert code == 0
    assert json.loads(out)["kupisch"] == [2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    code, out, _ = _run(capsys, ["gldim", files["lamC.json"]])
    assert code == 0 and json.loads(out) == {"gldim": "infinity"}


def test_ar_quiver_dot_counts(files, capsys):
    code, out, _ = _run(capsys, ["ar-quiver", "--render", "dot", files["lamA.json"]])
    assert code == 0
    nodes = [line for line in out.splitlines() if "[label=" in line]
    edges = [line for line in out.splitlines() if "->" in line]
    # 18 indecomposables; the arrow rule yields 22 irreducible maps
    assert len(nodes) == 18
    assert len(edges) == 22


def test_ar_quiver_json(files, capsys):
    code, out, _ = _run(capsys, ["ar-quiver", files["lamA.json"]])
    payload = json.loads(out)
    assert len(payload["nodes"]) == 18
    assert [[2, 4], [2, 5], "mono"] in payload["edges"]


def test_render_formats(files, capsys):
    for fmt in ("dot", "tikz", "ascii"):
        code, out, _ = _run(capsys, ["ar-quiver", "--render", fmt, files["a73.json"]])
        assert code == 0 and out
        code, out, _ = _run(
            capsys, ["resolution-quiver", "--render", fmt, files["lamC.json"]]
        )
        assert code == 0 and out


def test_highlight_render(files, capsys):
    code, out, _ = _run(
        capsys,
        ["ar-quiver", "--render", "ascii", "--highlight", files["marked.json"], files["a9r2.json"]],
    )
    assert code == 0
    assert "[5,5]" in out and "(6,6)" in out


def test_resolution_quiver_json(files, capsys):
    code, out, _ = _run(capsys, ["resolution-quiver", files["lamC.json"]])
    payload = json.loads(out)
    assert payload["successor"]["1"] == 13


def test_input_error_exit_codes(files, capsys):
    code, _, err = _run(capsys, ["gldim", files["bad.json"]])
    assert code == 2
    assert json.loads(err)["error"] == "InvalidKupisch"
    code, _, err = _run(capsys, ["gldim", "/nonexistent/file.json"])
    assert code == 2
    code, out, err = _run(capsys, ["classify", "--n", "2", files["float.json"]])
    assert code == 2 and not out
    assert json.loads(err)["error"] == "InvalidParameter"
    code, out, err = _run(capsys, ["classify", "--n", "x", files["a9r2.json"]])
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParameter"
    code, out, err = _run(
        capsys, ["verify", "--n", "4", "--subcat", files["float_members.json"], files["lamC.json"]]
    )
    assert code == 2 and not out
    assert json.loads(err)["error"] == "InvalidSubcategory"
    # out-of-range coordinates on an acyclic algebra are not wrapped mod m
    code, out, err = _run(
        capsys,
        ["verify", "--n", "2", "--mode", "n", "--subcat", files["wrapped_members.json"],
         files["a122.json"]],
    )
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidSubcategory"
    code, out, err = _run(capsys, ["ext", "--x", "0,0", "--y", "1,1", files["a122.json"]])
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParameter"
    # on a cycle M(i+m, j+m) is M(i,j)
    shifted = _run(capsys, ["ext", "--x", "17,18", "--y", "2,3", files["lamC.json"]])
    assert shifted == _run(capsys, ["ext", "--x", "3,4", "--y", "2,3", files["lamC.json"]])
    assert shifted[0] == 0
    # verify and enumerate tabulate Ext^1..Ext^(n-1), under ext's degree bound
    too_deep = [
        ["ext", "--x", "1,1", "--y", "1,1", "--k", "100000", files["lamC.json"]],
        ["ext", "--x", "1,1", "--y", "1,1", "--max-k", "100000", files["lamC.json"]],
        ["verify", "--n", "1002", "--subcat", files["marked.json"], files["a9r2.json"]],
        ["enumerate", "--n", "10000000", files["a9r2.json"]],
        ["enumerate", "--n", "2", "--max-ground-set", "-1", files["a9r2.json"]],
        ["ext", "--x", "1,1", "--y", "1,1", "--max-k", "-3", files["lamC.json"]],
        ["gldim", files["nested.json"]],
        ["gldim", files["utf16.json"]],
    ]
    for argv in too_deep:
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out, argv
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InvalidParameter"


def test_capacity_exit_code(files, capsys):
    code, _, err = _run(capsys, ["enumerate", "--n", "2", files["big.json"]])
    assert code == 3
    assert json.loads(err)["error"] == "GroundSetTooLarge"
    code, out, _ = _run(
        capsys, ["enumerate", "--n", "2", "--max-ground-set", "80", files["big.json"]]
    )
    assert code == 0
    code, _, err = _run(capsys, ["enumerate", "--n", "2", "--max-ground-set", "0", files["a9r2.json"]])
    assert code == 3
    assert json.loads(err)["error"] == "GroundSetTooLarge"


def test_size_cap_exit_code(files, capsys):
    for name in ("huge.json", "huge_kupisch.json"):
        code, out, err = _run(capsys, ["gldim", files[name]])
        assert code == 3 and not out
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "GroundSetTooLarge"


def test_determinism_across_processes(files):
    argv = [sys.executable, "-m", "nakct.cli", "classify", "--n", "4", files["lamC.json"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    first = subprocess.run(argv, env=env, capture_output=True, text=True)
    second = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n") and "\r" not in first.stdout


def test_determinism_in_process(files, capsys):
    commands = [
        ["classify", "--n", "4", files["a9r2.json"]],
        ["enumerate", "--n", "4", files["a73.json"]],
        ["ar-quiver", "--render", "dot", files["lamA.json"]],
        ["singularity", "--n", "4", files["lamC.json"]],
        ["resolution-quiver", files["lamC.json"]],
    ]
    for argv in commands:
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second


def _parse_outcome(parse, argv):
    """What parse(argv) does: a Namespace, an error message, or an exit with
    the text printed on the way out."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return ("namespace", parse(argv))
    except InvalidParameter as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue())


def test_single_subparser_parses_like_the_full_parser():
    names = [name for name, *_ in COMMANDS]
    corpus = [
        [],
        ["bogus"],
        ["bogus", "--n", "2"],
        ["--help"],
        ["-h"],
        ["-h", "classify"],
        ["classify", "--n", "4", "a.json"],
        ["classify", "--n", "4"],
        ["classify", "a.json"],
        ["classify", "--n", "x", "a.json"],
        ["classify", "--n", "4", "a.json", "extra"],
        ["classify", "--m", "4"],
        ["enumerate", "--n", "2", "--mode", "n", "--max-ground-set", "80", "a.json"],
        ["enumerate", "--n", "2", "--mode", "q", "a.json"],
        ["enumerate", "--n", "2", "--max-ground-set", "many"],
        ["verify", "--n", "4", "--subcat", "s.json", "a.json"],
        ["verify", "--n", "4", "a.json"],
        ["verify", "--n", "4", "--mode", "nZ", "--subcat", "s.json", "-"],
        ["ext", "--x", "1,2", "--y", "2,3", "--k", "1", "a.json"],
        ["ext", "--x", "1,2", "--y", "2,3", "--max-k", "9"],
        ["ext", "--x", "1,2"],
        ["ar-quiver", "--render", "dot", "--highlight", "s.json", "--circle", "c.json", "a.json"],
        ["ar-quiver", "--render", "svg"],
        ["resolution-quiver", "--render", "ascii", "a.json"],
        ["resolution-quiver"],
        ["singularity", "--n", "4", "a.json"],
        ["singularity", "--n"],
        ["glue", "a.json", "b.json"],
        ["glue", "a.json"],
        ["self-glue", "a.json"],
        ["gldim"],
        ["gldim", "a.json", "b.json"],
    ]
    corpus += [[name, "--help"] for name in names]
    corpus += [[name, "-h", "--n", "2"] for name in names]
    for argv in corpus:
        full = _parse_outcome(build_parser().parse_args, argv)
        single = _parse_outcome(parse_args, argv)
        assert full == single, argv
    # the named parser holds only that command; any other word gets them all
    assert build_parser("gldim").format_usage() == "usage: nakct gldim [-h] [algebra]\n"
    assert "{" + ",".join(names) + "}" in build_parser("bogus").format_usage()


_DOCS = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["acyclic", "cyclic", "other"]),
            "kupisch": st.lists(st.integers(-1, 6), max_size=6),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["acyclic", "cyclic"]),
            "homogeneous": st.fixed_dictionaries(
                {"m": st.integers(-1, 8), "l": st.integers(-1, 6)}
            ),
        }
    ),
    st.fixed_dictionaries(
        {"members": st.lists(st.lists(st.integers(-2, 8), max_size=3), max_size=6)}
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 9) | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    ),
)
_TOKENS = st.one_of(
    st.sampled_from(
        ["--n", "--mode", "--k", "--max-k", "--max-ground-set", "--x", "--y", "--subcat",
         "--render", "--highlight", "--circle", "-h", "-", "--", "n", "nZ", "q", "dot",
         "ascii", "tikz", "1,2", "2,1", "0,0", "x", "@0", "@1", "@missing"]
    ),
    st.integers(-2, 7).map(str),
)
_COMMAND_WORDS = [name for name, *_ in COMMANDS] + ["bogus"]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(_COMMAND_WORDS),
    tokens=st.lists(_TOKENS, max_size=7),
    docs=st.lists(_DOCS, min_size=2, max_size=2),
)
def test_run_on_arbitrary_argv_and_small_json(command, tokens, docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for idx, doc in enumerate(docs):
            path = Path(tmp) / f"doc{idx}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[f"@{idx}"] = str(path)
        paths["@missing"] = str(Path(tmp) / "missing.json")
        argv = [command] + [paths.get(token, token) for token in tokens]
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps(docs[0]))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:  # --help
                    code = exc.code
        finally:
            sys.stdin = stdin
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, (argv, lines)
    assert "Traceback" not in err.getvalue()
    if lines:
        assert code in (2, 3) and set(json.loads(lines[0])) == {"error", "reason"}
