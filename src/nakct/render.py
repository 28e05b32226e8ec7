"""Diagram rendering: DOT, TikZ and plain-text views of AR and resolution
quivers, with cluster-tilting members boxed and F-objects circled the way
the figures in this area are usually drawn."""

from __future__ import annotations

from collections import namedtuple

from .algebra import Algebra
from .errors import InvalidParameter, InvalidSubcategory
from .modules import ARQuiver, Indec, ar_quiver, indecomposables
from .singularity import ResolutionQuiver

FORMATS = ("dot", "tikz", "ascii")


class RenderSpec(namedtuple("RenderSpec", "format highlight circle")):
    """The output format and the modules to box (highlight) and circle."""

    __slots__ = ()

    def __new__(cls, format: str = "dot", highlight=None, circle=None):
        if format not in FORMATS:
            raise InvalidParameter(f"format must be one of {FORMATS}")
        return super().__new__(cls, format, highlight, circle)


def _check_members(algebra: Algebra, spec: RenderSpec) -> None:
    ground = set(indecomposables(algebra))
    for name, members in (("highlight", spec.highlight), ("circle", spec.circle)):
        if members and not set(members) <= ground:
            bad = sorted(set(members) - ground)[0]
            raise InvalidSubcategory(f"{name} member {bad} is not a module")


def render_ar(algebra: Algebra, spec: RenderSpec) -> str:
    _check_members(algebra, spec)
    quiver = ar_quiver(algebra)
    if spec.format == "dot":
        return _ar_dot(quiver, spec)
    if spec.format == "tikz":
        return _ar_tikz(quiver, spec)
    return _ar_ascii(quiver, spec)


def _ar_dot(quiver: ARQuiver, spec: RenderSpec) -> str:
    highlight = spec.highlight or frozenset()
    circle = spec.circle or frozenset()
    lines = ["digraph ar_quiver {", "  rankdir=LR;"]
    for module in sorted(quiver.vertices):
        attrs = [f'label="({module.i},{module.j})"']
        attrs.append("shape=box" if module in highlight else "shape=ellipse")
        if module in circle:
            attrs.append("peripheries=2")
        lines.append(f'  "{module.i}_{module.j}" [{", ".join(attrs)}];')
    for src, dst, tag in sorted(quiver.arrows):
        style = "solid" if tag == "mono" else "dashed"
        lines.append(
            f'  "{src.i}_{src.j}" -> "{dst.i}_{dst.j}" [style={style}, tooltip="{tag}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ar_tikz(quiver: ARQuiver, spec: RenderSpec) -> str:
    highlight = spec.highlight or frozenset()
    circle = spec.circle or frozenset()
    lines = ["\\begin{tikzpicture}[scale=0.9]"]
    for module in sorted(quiver.vertices):
        x = 0.7 * (module.i + module.j)
        y = 0.7 * (module.j - module.i)
        opts = []
        if module in highlight:
            opts.append("draw, rectangle")
        if module in circle:
            opts.append("draw, circle")
        opt = f"[{', '.join(opts)}]" if opts else ""
        lines.append(
            f"  \\node{opt} (m{module.i}x{module.j}) at ({x:.2f},{y:.2f})"
            f" {{$({module.i},{module.j})$}};"
        )
    for src, dst, _ in sorted(quiver.arrows):
        lines.append(f"  \\draw[->] (m{src.i}x{src.j}) -- (m{dst.i}x{dst.j});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _ar_ascii(quiver: ARQuiver, spec: RenderSpec) -> str:
    highlight = spec.highlight or frozenset()
    circle = spec.circle or frozenset()
    by_length: dict[int, list[Indec]] = {}
    for module in quiver.vertices:
        by_length.setdefault(module.length, []).append(module)
    lines = []
    for length in sorted(by_length, reverse=True):
        cells = []
        for module in sorted(by_length[length]):
            cell = f"({module.i},{module.j})"
            if module in highlight:
                cell = f"[{module.i},{module.j}]"
            if module in circle:
                cell += "*"
            cells.append(cell)
        lines.append(f"len {length}: " + " ".join(cells))
    return "\n".join(lines) + "\n"


def render_resolution(quiver: ResolutionQuiver, fmt: str) -> str:
    if fmt == "dot":
        lines = ["digraph resolution_quiver {"]
        for v in range(1, quiver.m + 1):
            lines.append(f'  "S_{v}";')
        for src, dst in sorted(quiver.successor):
            lines.append(f'  "S_{src}" -> "S_{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "tikz":
        lines = ["\\begin{tikzpicture}"]
        for v in range(1, quiver.m + 1):
            lines.append(f"  \\node (s{v}) at ({v},0) {{$S_{{{v}}}$}};")
        for src, dst in sorted(quiver.successor):
            bend = "[->, bend left=15]" if dst > src else "[->]"
            lines.append(f"  \\draw{bend} (s{src}) to (s{dst});")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines) + "\n"
    if fmt == "ascii":
        successor = quiver.as_dict()
        cells = []
        for v in range(1, quiver.m + 1):
            cells.append(f"S_{v} -> S_{successor[v]}" if v in successor else f"S_{v} (sink)")
        return "\n".join(cells) + "\n"
    raise InvalidParameter(f"format must be one of {FORMATS}")
