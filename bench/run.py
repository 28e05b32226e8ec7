"""Benchmark for nakct: one workload per invocation.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

A closed loop with one caller, in one process and one thread, repeats
whole rounds of the workload's operation list until ``--seconds`` have
passed.  Every round starts cold: functools caches in ``nakct`` are cleared
and garbage is collected between rounds, outside the timed region.  The
outputs of every round must equal those of the first round, and the first
round's outputs are checked against ``checker.py`` after the loop.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` the run adds one traced set-up and one traced
round (see ``tracing.py``) and reports the per-layer metrics instead.  Results
and spans are written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# fresh processes timed for setup_s, after one discarded warm-up that may
# compile bytecode; they run between rounds, spread over the run, since the
# machine's speed drifts within tens of seconds
SETUP_PROBES = 15
MIN_TAIL_BEYOND = 10  # samples beyond the tail percentile
MAX_RUN_FACTOR = 3  # stop starting rounds after this many --seconds


def import_nakct():
    """Import nakct from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nakct" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nakct sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nakct
    import nakct.cli  # noqa: F401  (the singularity workload calls it)

    if Path(nakct.__file__).resolve().parent != SRC / "nakct":
        raise SystemExit(f"bench: imported nakct from {nakct.__file__}, not {SRC}")
    return nakct


def measure_setup(inputs: Path, probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter on ``setup_probe.py`` to its
    report that nakct is imported and every input parsed, once per probe."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), str(inputs)],
            stdout=subprocess.PIPE,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or not line.startswith(b"ready"):
            raise SystemExit(f"bench: set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


def clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "nakct" or name.startswith("nakct."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Failed:
    """Placeholder output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.text == self.text


def run_round(ops, cold_each: bool):
    """One pass over the operation list: (busy ns, latencies ns with None
    for an operation that raised, outputs, failed).  Busy time is the sum of
    the operations' latencies, so that clearing caches between operations
    (``cold_each``) is not counted."""
    clock = time.perf_counter_ns
    latencies = []
    outputs = []
    failed = 0
    busy = 0
    for op in ops:
        if cold_each:
            clear_library_caches()
        start = clock()
        try:
            out = op()
        except Exception as exc:  # counted as failed, reported after the run
            busy += clock() - start
            latencies.append(None)
            out = Failed(exc)
            failed += 1
        else:
            elapsed = clock() - start
            busy += elapsed
            latencies.append(elapsed)
        outputs.append(out)
    return busy, latencies, outputs, failed


def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    os.environ.pop("NAKCT_MAX_GROUND_SET", None)
    nakct = import_nakct()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = run_dir / "inputs.json"
    inputs.write_text(json.dumps(workload.docs), encoding="utf-8")
    workload.write_inputs(run_dir / "algebras")
    measure_setup(inputs, 1)
    setup_samples: list[float] = []

    algebras = [nakct.algebra.from_json_dict(doc) for doc in workload.docs]
    ops = workload.make_ops(nakct, algebras)
    pct = workload.tail_percentile
    min_samples = -(-MIN_TAIL_BEYOND * 100 // (100 - pct))

    problems: list[str] = []
    round_ns: list[int] = []
    round_latencies: list[list[int | None]] = []
    samples = 0
    failures: list[str] = []
    attempted = failed = 0
    first = None
    loop_start = time.perf_counter()
    while True:
        clear_library_caches()
        gc.collect()
        busy, lat, outputs, nfailed = run_round(ops, workload.cold_each)
        round_ns.append(busy)
        round_latencies.append(lat)
        samples += len(lat) - nfailed
        attempted += len(ops)
        failed += nfailed
        if first is None:
            first = outputs
            failures = [out.text for out in outputs if isinstance(out, Failed)]
        elif outputs != first:
            problems.append(f"round {len(round_ns)} outputs differ from round 1")
        elapsed = time.perf_counter() - loop_start
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / args.seconds))
        setup_samples += measure_setup(inputs, due - len(setup_samples))
        if elapsed >= MAX_RUN_FACTOR * args.seconds:
            break
        if elapsed >= args.seconds and samples >= min_samples and len(round_ns) >= 3:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples += measure_setup(inputs, SETUP_PROBES - len(setup_samples))

    if not samples:
        raise SystemExit("bench: every operation failed: " + "; ".join(failures[:3]))
    median_round_s = statistics.median(round_ns) / 1e9
    # each operation's latency is its mean over the rounds.  With every
    # operation repeated the same number of times, a percentile of the raw
    # samples would sit on the edge between two operations' clusters; and
    # when the machine's speed shifts between rounds, a median over a few
    # rounds jumps to one side while the mean moves in proportion
    per_op = [
        statistics.fmean(ok)
        for ok in ([ns for ns in column if ns is not None] for column in zip(*round_latencies))
        if ok
    ]
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(ops) / median_round_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) / 1e6, "unit": "ms"},
        "op_tail_ms": {"value": percentile(per_op, pct) / 1e6, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "operations_per_round": len(ops),
        "rounds": len(round_ns),
        "round_s": [ns / 1e9 for ns in round_ns],
        "latency_samples": samples,
        "tail_percentile": pct,
        "setup_samples_s": setup_samples,
        "python": sys.version.split()[0],
        "end_to_end": end_to_end,
        "failures": failures[:20],
    }

    if workload.repeat_check:
        # byte determinism: one operation again, outside the timed region
        clear_library_caches()
        if ops[0]() != first[0]:
            problems.append("a repeated CLI command printed different bytes")

    metrics = end_to_end
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        clear_library_caches()
        gc.collect()
        try:
            for doc in workload.docs:
                nakct.algebra.from_json_dict(doc)
            traced_busy, _, traced_outputs, nfailed = run_round(ops, workload.cold_each)
        finally:
            tracer.remove()
        attempted += len(ops)
        failed += nfailed
        if traced_outputs != first:
            problems.append("the traced round changed the outputs")
        stdout_bytes = sum(len(out[1].encode()) for out in traced_outputs
                           if isinstance(out, tuple))
        overhead = traced_busy / 1e9 / median_round_s
        spans = run_dir / "spans.bin"
        tracer.write_spans(spans)
        stats = tracing.layer_stats(*tracing.read_spans(spans))
        metrics = tracing.per_layer_metrics(stats, stdout_bytes, overhead)
        details["per_layer"] = metrics
        details["trace_missing"] = tracer.missing
        if tracer.missing:
            print(f"bench: not in this version, reported as 0: {tracer.missing}", file=sys.stderr)

    try:
        problems += workload.check(
            nakct, algebras, [None if isinstance(out, Failed) else out for out in first]
        )
    except Exception:  # an output of unexpected shape is a failed check
        traceback.print_exc()
        problems.append("the output check raised; see the traceback above")
    for line in problems[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    for line in failures[:5]:
        print(f"bench: operation failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details["problems"] = problems[:50]
    details["result"] = result
    (run_dir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    (run_dir / "latencies_ns.json").write_text(json.dumps(round_latencies), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
