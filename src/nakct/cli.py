"""Command-line interface.

Every subcommand reads an algebra as JSON from a path (or standard input for
"-"), emits canonical JSON on stdout by default, and switches to a diagram
renderer with --render.  Exit codes: 0 success, 1 negative verdict, 2 input
error, 3 capacity exceeded; errors are one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algebra as alg
from . import classify as cls
from . import modules as mod
from . import singularity as sing
from . import tilting
from .errors import GroundSetTooLarge, InvalidParameter, NakctError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

# largest Ext degree that ext computes, and that verify and enumerate
# tabulate (degrees 1..n-1); one Omega step per degree
MAX_EXT_DEGREE = 1000


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise InvalidParameter(f"cannot read JSON from {path}: {exc}")


def _load_algebra(path: str) -> alg.Algebra:
    return alg.from_json_dict(_read_json(path))


def _parse_module(algebra: alg.Algebra, text: str) -> mod.Indec:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise InvalidParameter(f"module must be 'i,j', got {text!r}")
    return mod.indec(algebra, i, j)


def _check_ext_degree(top: int) -> None:
    if top > MAX_EXT_DEGREE:
        raise InvalidParameter(f"Ext degree {top} exceeds the bound {MAX_EXT_DEGREE}")


def _report_json(report: tilting.VerifyReport) -> dict:
    return {
        "verdict": report.verdict,
        "failures": [f.to_json_dict() for f in report.failures],
    }


def cmd_classify(args) -> int:
    algebra = _load_algebra(args.algebra)
    result = cls.classify_nz(algebra, args.n)
    _emit(cls.result_to_json_dict(result))
    return EXIT_OK if result.exists else EXIT_NEGATIVE


def cmd_enumerate(args) -> int:
    algebra = _load_algebra(args.algebra)
    _check_ext_degree(args.n - 1)
    subs = tilting.enumerate_ct(algebra, args.n, args.mode, max_ground_set=args.max_ground_set)
    _emit({"subcategories": [tilting.members_to_json(s) for s in subs]})
    return EXIT_OK


def cmd_verify(args) -> int:
    algebra = _load_algebra(args.algebra)
    members = tilting.members_from_json(algebra, _read_json(args.subcat))
    _check_ext_degree(args.n - 1)
    report = tilting.verify_ct(algebra, members, args.n, args.mode)
    _emit(_report_json(report))
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_ext(args) -> int:
    algebra = _load_algebra(args.algebra)
    x = _parse_module(algebra, args.x)
    y = _parse_module(algebra, args.y)
    _check_ext_degree(args.k if args.k is not None else args.max_k)
    if args.k is None and args.max_k < 0:
        raise InvalidParameter(f"--max-k must be >= 0, got {args.max_k}")
    if args.k is not None:
        values = [{"k": args.k, "dim": mod.ext_dim(algebra, x, y, args.k)}]
    else:
        dims = mod.ext_dims_upto(algebra, x, y, args.max_k) if args.max_k >= 1 else ()
        values = [{"k": k, "dim": dim} for k, dim in enumerate(dims, start=1)]
    _emit({"ext": values, "hom": mod.hom_dim(algebra, x, y)})
    return EXIT_OK


def cmd_ar_quiver(args) -> int:
    algebra = _load_algebra(args.algebra)
    highlight = circle = None
    if args.highlight:
        highlight = tilting.members_from_json(algebra, _read_json(args.highlight))
    if args.circle:
        circle = tilting.members_from_json(algebra, _read_json(args.circle))
    if args.render:
        from .render import RenderSpec, render_ar

        sys.stdout.write(render_ar(algebra, RenderSpec(args.render, highlight, circle)))
        return EXIT_OK
    quiver = mod.ar_quiver(algebra)
    _emit(
        {
            "nodes": [[v.i, v.j] for v in sorted(quiver.vertices)],
            "edges": [
                [[s.i, s.j], [t.i, t.j], tag] for s, t, tag in sorted(quiver.arrows)
            ],
        }
    )
    return EXIT_OK


def cmd_resolution_quiver(args) -> int:
    algebra = _load_algebra(args.algebra)
    quiver = sing.resolution_quiver(algebra)
    if args.render:
        from .render import render_resolution

        sys.stdout.write(render_resolution(quiver, args.render))
        return EXIT_OK
    _emit({"successor": {str(i): j for i, j in quiver.successor}})
    return EXIT_OK


def cmd_singularity(args) -> int:
    algebra = _load_algebra(args.algebra)
    model = sing.gamma(algebra, args.n)
    quiver = sing.resolution_quiver(algebra)
    on_cycle = sing.cyclic_simples(algebra, quiver)
    fcat = sing.f_objects(algebra, model, on_cycle=on_cycle)
    record = sing.sing_ct(model)
    witness = sing.gorenstein_witness(model)
    _emit(
        {
            "gamma": alg.to_json_dict(model.gamma),
            "gamma_projectives": [[p.i, p.j] for p in model.projectives_enum],
            "block_offsets": list(model.block_offsets),
            "pieces": [[p.start, p.end, p.loewy] for p in model.blocks.pieces],
            "distinguished": sorted(record.distinguished_simple_indices),
            "gamma_indices": sorted(record.gamma_indices),
            "count": record.count,
            "cyclic_simples": sorted(on_cycle),
            "f": fcat.to_json_dict(),
            "resolution": {str(i): j for i, j in quiver.successor},
            "gorenstein_witness": [witness.i, witness.j],
        }
    )
    return EXIT_OK


def cmd_glue(args) -> int:
    first = _load_algebra(args.first)
    second = _load_algebra(args.second)
    _emit(alg.to_json_dict(alg.glue(first, second)))
    return EXIT_OK


def cmd_self_glue(args) -> int:
    algebra = _load_algebra(args.algebra)
    _emit(alg.to_json_dict(alg.self_glue(algebra)))
    return EXIT_OK


def cmd_gldim(args) -> int:
    algebra = _load_algebra(args.algebra)
    value = mod.gldim(algebra)
    _emit({"gldim": "infinity" if value == mod.INFINITY else value})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InvalidParameter, so it prints as one JSON line."""

    def error(self, message):
        raise InvalidParameter(message)


def _arg(*flags, **kwargs):
    return flags, kwargs


_N = _arg("--n", type=int, required=True)
_MODE = _arg("--mode", choices=("n", "nZ"), default="nZ")
_RENDER = _arg("--render", choices=("dot", "tikz", "ascii"), default=None)
_ALGEBRA = _arg("algebra", nargs="?", default="-")

# (name, handler, help, arguments) of every subcommand, in --help order
COMMANDS = (
    ("classify", cmd_classify, "decide nZ-cluster tilting existence", (_N, _ALGEBRA)),
    (
        "enumerate",
        cmd_enumerate,
        "brute-force all (n|nZ)-cluster tilting subcategories",
        (_N, _MODE, _arg("--max-ground-set", type=int, default=None), _ALGEBRA),
    ),
    (
        "verify",
        cmd_verify,
        "verify a candidate subcategory",
        (
            _N,
            _MODE,
            _arg("--subcat", required=True, help="JSON file with {\"members\": [[i,j],...]}"),
            _ALGEBRA,
        ),
    ),
    (
        "ext",
        cmd_ext,
        "Hom and Ext dimensions between two indecomposables",
        (
            _arg("--x", required=True, help="source module as 'i,j'"),
            _arg("--y", required=True, help="target module as 'i,j'"),
            _arg("--k", type=int, default=None),
            _arg("--max-k", type=int, default=4),
            _ALGEBRA,
        ),
    ),
    (
        "ar-quiver",
        cmd_ar_quiver,
        "the Auslander-Reiten quiver",
        (
            _RENDER,
            _arg("--highlight", default=None, help="subcategory JSON to box"),
            _arg("--circle", default=None, help="module set JSON to circle"),
            _ALGEBRA,
        ),
    ),
    ("resolution-quiver", cmd_resolution_quiver, "the resolution quiver", (_RENDER, _ALGEBRA)),
    ("singularity", cmd_singularity, "singularity-category model data", (_N, _ALGEBRA)),
    ("glue", cmd_glue, "glue two acyclic algebras", (_arg("first"), _arg("second"))),
    ("self-glue", cmd_self_glue, "self-glue an acyclic algebra", (_ALGEBRA,)),
    ("gldim", cmd_gldim, "global dimension", (_ALGEBRA,)),
)
_ROWS = {name: (func, arguments) for name, func, _, arguments in COMMANDS}


def _fill(parser: argparse.ArgumentParser, name: str, func, arguments) -> argparse.ArgumentParser:
    """Give parser the arguments and defaults of one COMMANDS row."""
    parser.set_defaults(func=func, command=name)
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The standalone parser of the named subcommand, or (for None or any
    other word) the full parser with every subcommand.

    The named parser, prog "nakct <name>", parses the rest of an argv that
    starts with the name exactly as the full parser parses all of it: the
    same namespace, error text, exit code and help.  Building that one
    parser, instead of a top-level parser and a subparser, is most of a
    small command's start-up.
    """
    if command in _ROWS:
        return _fill(_Parser(prog=f"nakct {command}"), command, *_ROWS[command])
    parser = _Parser(
        prog="nakct",
        description="Exact computations over Nakayama algebras: AR quivers, "
        "Ext groups, cluster-tilting subcategories, singularity models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in COMMANDS:
        _fill(sub.add_parser(name, help=help_text), name, func, arguments)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, by the one parser of the
    subcommand it names (or, for --help, no argv or an unknown word, by the
    full parser)."""
    if argv and argv[0] in _ROWS:
        return build_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def run(argv=None) -> int:
    """Run one command line and return its exit code (--help still exits
    through argparse).  An argv that starts with a subcommand name builds
    that subcommand's parser alone."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return args.func(args)
    except GroundSetTooLarge as exc:
        sys.stderr.write(json.dumps({"error": "GroundSetTooLarge", "reason": str(exc)}) + "\n")
        return EXIT_CAPACITY
    except NakctError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "reason": str(exc)}) + "\n"
        )
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
