"""Spans around the calls into each layer of ``nakct``, recorded from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``nakct`` module that binds it (``nakct.tilting.ext_dims_upto`` as well as
``nakct.modules.ext_dims_upto`` and ``nakct.ext_dims_upto``), so calls made
inside the library are seen too.  A wrapper records one span: the layer's
name, start and end (``perf_counter_ns``), the span that was open when it
was called, and whether a span of the same name was already open (so that a
recursive call is not counted twice in total time).  Spans live in typed
arrays while the run lasts; they are written out when it ends, and the
per-layer figures are derived from the file.

Functions called millions of times per round (``Algebra.lmax`` and
``Algebra.rmax``) get a plain call counter instead of spans.  A target the
library no longer has is listed in ``missing`` and reports zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (layer name, module, attribute path, how): "span" records spans, "count"
# only counts calls.  The layer name is the module path below nakct.
TARGETS = (
    ("algebra.from_json_dict", "nakct.algebra", "from_json_dict", "span"),
    ("algebra.Algebra.lmax", "nakct.algebra", "Algebra.lmax", "count"),
    ("algebra.Algebra.rmax", "nakct.algebra", "Algebra.rmax", "count"),
    ("algebra.unglue", "nakct.algebra", "unglue", "span"),
    ("modules.ext_dims_upto", "nakct.modules", "ext_dims_upto", "span"),
    ("modules.ext_dim", "nakct.modules", "ext_dim", "span"),
    ("modules.hom_dim", "nakct.modules", "hom_dim", "span"),
    ("modules.omega", "nakct.modules", "omega", "span"),
    ("modules.gldim", "nakct.modules", "gldim", "span"),
    ("linalg.rank", "nakct.linalg", "rank", "span"),
    ("tilting.verify_ct", "nakct.tilting", "verify_ct", "span"),
    ("tilting.enumerate_ct", "nakct.tilting", "enumerate_ct", "span"),
    ("tilting.tau_n_closure", "nakct.tilting", "tau_n_closure", "span"),
    ("classify.classify_nz", "nakct.classify", "classify_nz", "span"),
    ("classify.decompose", "nakct.classify", "decompose", "span"),
    ("singularity.gamma", "nakct.singularity", "gamma", "span"),
    ("singularity.f_objects", "nakct.singularity", "f_objects", "span"),
    ("singularity.sing_ct", "nakct.singularity", "sing_ct", "span"),
    ("singularity.gorenstein_witness", "nakct.singularity", "gorenstein_witness", "span"),
    ("singularity.sing_image", "nakct.singularity", "sing_image", "span"),
    ("singularity.cyclic_simples", "nakct.singularity", "cyclic_simples", "span"),
    ("cli.run", "nakct.cli", "run", "span"),
)

# per-layer metrics: (metric name, layer, statistic, unit)
METRICS = (
    ("algebra.from_json_dict.total_s", "algebra.from_json_dict", "total_s", "s"),
    ("algebra.Algebra.lmax.calls", "algebra.Algebra.lmax", "calls", "count"),
    ("algebra.Algebra.rmax.calls", "algebra.Algebra.rmax", "calls", "count"),
    ("algebra.unglue.calls", "algebra.unglue", "calls", "count"),
    ("modules.ext_dims_upto.calls", "modules.ext_dims_upto", "calls", "count"),
    ("modules.ext_dims_upto.total_s", "modules.ext_dims_upto", "total_s", "s"),
    ("modules.ext_dim.calls", "modules.ext_dim", "calls", "count"),
    ("modules.hom_dim.calls", "modules.hom_dim", "calls", "count"),
    ("modules.hom_dim.total_s", "modules.hom_dim", "total_s", "s"),
    ("modules.omega.calls", "modules.omega", "calls", "count"),
    ("modules.gldim.calls", "modules.gldim", "calls", "count"),
    ("modules.gldim.total_s", "modules.gldim", "total_s", "s"),
    ("linalg.rank.calls", "linalg.rank", "calls", "count"),
    ("linalg.rank.total_s", "linalg.rank", "total_s", "s"),
    ("tilting.verify_ct.calls", "tilting.verify_ct", "calls", "count"),
    ("tilting.verify_ct.total_s", "tilting.verify_ct", "total_s", "s"),
    ("tilting.verify_ct.self_s", "tilting.verify_ct", "self_s", "s"),
    ("tilting.verify_ct.accept_ratio", "tilting.verify_ct", "accept_ratio", "ratio"),
    ("tilting.enumerate_ct.calls", "tilting.enumerate_ct", "calls", "count"),
    ("tilting.enumerate_ct.total_s", "tilting.enumerate_ct", "total_s", "s"),
    ("tilting.enumerate_ct.self_s", "tilting.enumerate_ct", "self_s", "s"),
    ("tilting.tau_n_closure.calls", "tilting.tau_n_closure", "calls", "count"),
    ("tilting.tau_n_closure.total_s", "tilting.tau_n_closure", "total_s", "s"),
    ("classify.classify_nz.calls", "classify.classify_nz", "calls", "count"),
    ("classify.classify_nz.total_s", "classify.classify_nz", "total_s", "s"),
    ("classify.classify_nz.self_s", "classify.classify_nz", "self_s", "s"),
    ("classify.decompose.calls", "classify.decompose", "calls", "count"),
    ("singularity.gamma.total_s", "singularity.gamma", "total_s", "s"),
    ("singularity.f_objects.total_s", "singularity.f_objects", "total_s", "s"),
    ("singularity.sing_ct.total_s", "singularity.sing_ct", "total_s", "s"),
    ("singularity.gorenstein_witness.total_s", "singularity.gorenstein_witness", "total_s", "s"),
    ("singularity.sing_image.calls", "singularity.sing_image", "calls", "count"),
    ("singularity.cyclic_simples.calls", "singularity.cyclic_simples", "calls", "count"),
    ("cli.run.total_s", "cli.run", "total_s", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, list[int]] = {}
        self.accepted = [0]
        self.missing: list[str] = []
        self._stack = [-1]
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers -----------------------------------

    def install(self) -> None:
        for layer, module_name, path, how in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(layer)
                continue
            if how == "count":
                wrapper = self._counter(layer, original)
            else:
                accept = layer == "tilting.verify_ct"
                wrapper = self._spanner(layer, original, accept)
            if owner_name:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "nakct" and not name.startswith("nakct."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counter(self, layer, fn):
        cell = self.counts.setdefault(layer, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, layer, fn, accept: bool):
        nid = len(self.names)
        self.names.append(layer)
        self._depth.append(0)
        clock = time.perf_counter_ns
        names, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends = self.span_start, self.span_end
        stack, depth, accepted = self._stack, self._depth, self.accepted

        def spanned(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            level = depth[nid]
            outer.append(1 if level == 0 else 0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            depth[nid] = level + 1
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish = clock()
                depth[nid] = level
                stack.pop()
                starts[idx] = begin
                ends[idx] = finish
            if accept and result.verdict:
                accepted[0] += 1
            return result

        return spanned

    # -- writing out ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """A JSON header line, then the five arrays in native byte order."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["outer", self.span_outer.typecode],
                ["start_ns", self.span_start.typecode],
                ["end_ns", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
            "call_counts": {layer: cell[0] for layer, cell in self.counts.items()},
            "verify_accepted": self.accepted[0],
            "missing": self.missing,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_outer,
                        self.span_start, self.span_end):
                arr.tofile(handle)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a spans file back: the header and one array per field."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        fields = {}
        for field, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(handle, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            fields[field] = arr
    return header, fields


def layer_stats(header: dict, fields: dict[str, array]) -> dict[str, dict[str, float]]:
    """calls, total_s (outermost spans only) and self_s for every layer."""
    duration = [e - s for s, e in zip(fields["start_ns"], fields["end_ns"])]
    children = [0] * header["count"]
    for idx, parent in enumerate(fields["parent"]):
        if parent >= 0:
            children[parent] += duration[idx]
    stats = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0} for layer, _, _, _ in TARGETS}
    names = header["names"]
    for idx, (nid, outer) in enumerate(zip(fields["name"], fields["outer"])):
        entry = stats[names[nid]]
        entry["calls"] += 1
        if outer:
            entry["total_ns"] += duration[idx]
        entry["self_ns"] += duration[idx] - children[idx]
    for layer, calls in header["call_counts"].items():
        stats[layer]["calls"] = calls
    out = {
        layer: {
            "calls": entry["calls"],
            "total_s": entry["total_ns"] / 1e9,
            "self_s": entry["self_ns"] / 1e9,
        }
        for layer, entry in stats.items()
    }
    verify = out["tilting.verify_ct"]
    verify["accept_ratio"] = header["verify_accepted"] / verify["calls"] if verify["calls"] else 0.0
    return out


def per_layer_metrics(stats: dict, stdout_bytes: int, overhead: float) -> dict:
    metrics = {}
    for name, layer, statistic, unit in METRICS:
        metrics[name] = {"value": stats[layer][statistic], "unit": unit}
    metrics["cli.stdout_bytes"] = {"value": stdout_bytes, "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics
