"""The four workloads: seeded inputs, the operations on them, and the checks.

Every workload draws from a fixed pool so that every seed does the same
amount of work.  The seed changes what the program is given, not how much:
it relabels every cyclic algebra by a rotation of its vertices and, except
on ``glued``, shuffles the order of the operations.  Relabelling changes
the module labels in the answers but none of the work, so run-to-run
spread comes from the machine and not from the draw.  Blocks keep their
order within a chain: permuting them would give a different algebra with a
different cost.

A workload object has ``docs`` (the algebras as JSON, loaded through the
program's parser at set-up), ``make_ops(nakct, algebras)`` (the list of
operations of one round, each a zero-argument callable) and
``check(nakct, algebras, outputs)``, which returns a list of problems found
in one round's outputs (None stands for an operation that raised).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checker

DATA = Path(__file__).resolve().parent / "data"
POSITIVES_FILE = DATA / "classify_positives.json"

CLASSIFY_NS = (2, 3, 4, 5, 6)
CLASSIFY_POOL_SEED = 0x5EED0C1A
CLASSIFY_POOL_SIZE = 100

ENUMERATE_NS = (2, 3, 4)
ENUMERATE_MODES = ("n", "nZ")
ENUMERATE_POOL_SEED = 0x5EED0E17
ENUMERATE_POOL_SIZE = 50

# (n, Loewy lengths of the homogeneous blocks of global dimension n), glued
# in this order.  The self-gluings have m = 14 to 26 vertices, and 42 and 56
# on the last two slots, where the cost of recursive ungluing is superlinear
# in m; those two have few long blocks, since at m = 56 four blocks cost
# 0.7 s and ten cost 4.5 s, which would leave too few rounds in a run.
GLUED_SLOTS = (
    (2, (3, 3, 3, 3, 2)),
    (2, (4, 4, 3, 3)),
    (2, (5, 4, 3, 2, 2)),
    (2, (6, 5, 4, 3)),
    (2, (4, 3, 3, 3, 3, 2, 2)),
    (2, (5, 5, 4, 4, 3, 3)),
    (4, (3, 2, 2)),
    (4, (3, 3, 2)),
    (4, (4, 3, 2)),
    (4, (3, 3, 3, 2)),
    (4, (4, 4, 3)),
    (4, (5, 3, 3, 2)),
    (6, (3, 2)),
    (6, (3, 3)),
    (6, (4, 3)),
    (6, (4, 2, 2)),
    (6, (4, 4, 3, 3)),
    (4, (7, 7, 7, 7)),
)

# self-glued chains for the singularity command; each has a block of Loewy
# length >= 3, which the Gorenstein witness needs.  (4, (3, 2, 2)) is the
# 14-vertex standard example up to relabelling.
SINGULARITY_SLOTS = (
    (2, (3, 2)),
    (2, (3, 3)),
    (2, (4, 2)),
    (2, (5, 3)),
    (2, (3, 2, 2)),
    (2, (3, 3, 2)),
    (2, (4, 3, 2)),
    (2, (3, 3, 3)),
    (2, (3, 2, 3, 2)),
    (2, (4, 4, 2, 2)),
    (4, (3, 2)),
    (4, (3, 3)),
    (4, (4, 2)),
    (4, (3, 2, 2)),
    (4, (3, 3, 2)),
    (4, (4, 3, 3)),
    (6, (3, 2)),
    (6, (3, 3)),
)


def _doc(kind: str, series) -> dict:
    return {"kind": kind, "kupisch": list(series)}


def _rotate(series, offset: int) -> tuple[int, ...]:
    series = tuple(series)
    return series[offset:] + series[:offset]


def random_series(rng: random.Random, max_m: int, total_cap: int, max_entry: int,
                  min_total: int = 0) -> tuple[str, tuple[int, ...]]:
    """A random admissible non-homogeneous Kupisch series within the caps."""
    while True:
        kind = rng.choice(("acyclic", "cyclic"))
        m = rng.randint(2, max_m)
        cap = rng.randint(2, max_entry)
        if kind == "acyclic":
            c = [1]
            for j in range(2, m + 1):
                c.append(rng.randint(2, min(j, c[-1] + 1, cap)))
        else:
            c = [rng.randint(2, cap)]
            for _ in range(2, m + 1):
                c.append(rng.randint(2, min(c[-1] + 1, cap)))
            if c[0] > c[-1] + 1:
                continue
        if not min_total <= sum(c) <= total_cap:
            continue
        if checker.is_homogeneous(kind, c) is not None:
            continue
        return kind, tuple(c)


def _distinct_pool(seed: int, size: int, **caps) -> list[tuple[str, tuple[int, ...]]]:
    rng = random.Random(seed)
    seen = set()
    pool = []
    while len(pool) < size:
        kind, c = random_series(rng, **caps)
        key = (kind, checker.canonical_rotation(kind, c))
        if key not in seen:
            seen.add(key)
            pool.append((kind, c))
    return pool


def classify_grid() -> list[tuple[str, int, int]]:
    grid = [("acyclic", m, l) for m in range(2, 11) for l in range(2, 9)]
    grid += [("cyclic", m, l) for m in range(1, 11) for l in range(2, 9)]
    return grid


def classify_pool() -> list[tuple[str, tuple[int, ...]]]:
    return _distinct_pool(CLASSIFY_POOL_SEED, CLASSIFY_POOL_SIZE,
                          max_m=16, total_cap=48, max_entry=8)


def classify_universe() -> list[tuple[str, tuple[int, ...]]]:
    """Every algebra the classify workload can draw, unrotated."""
    grid = [(k, checker.homogeneous_series(k, m, l)) for k, m, l in classify_grid()]
    return grid + classify_pool()


def chain_series(n: int, loewys) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """Glue homogeneous blocks of global dimension n (each of n*l/2 arrows)
    into one line; returns the series and the blocks as (start, end, l)."""
    series = [1]
    blocks = []
    start = 1
    for l in loewys:
        length = n * l // 2
        series += [min(t + 1, l) for t in range(1, length + 1)]
        blocks.append((start, start + length, l))
        start += length
    return tuple(series), blocks


def self_glue_series(series) -> tuple[int, ...]:
    return (series[-1],) + tuple(series[1:-1])


class Workload:
    # the highest whole percentile with at least ten latency samples beyond
    # it in a normal run; run.py adds rounds until there are that many
    tail_percentile = 99
    repeat_check = False  # run one operation again and compare its output
    cold_each = False  # clear the library's caches before every operation

    def write_inputs(self, directory: Path) -> None:
        """Files the operations read, if any."""


class Classify(Workload):
    name = "classify"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for kind, m, l in classify_grid():
            cases.append({"doc": {"kind": kind, "homogeneous": {"m": m, "l": l}},
                          "kind": kind, "c": checker.homogeneous_series(kind, m, l)})
        for kind, c in classify_pool():
            if kind == "cyclic":
                c = _rotate(c, rng.randrange(len(c)))
            cases.append({"doc": _doc(kind, c), "kind": kind, "c": c})
        rng.shuffle(cases)
        self.cases = cases
        self.docs = [case["doc"] for case in cases]

    def make_ops(self, nakct, algebras):
        ops = []
        for algebra in algebras:
            for n in CLASSIFY_NS:
                ops.append(lambda a=algebra, n=n: nakct.classify_nz(a, n))
        return ops

    def check(self, nakct, algebras, outputs):
        problems = _check_loaded(self.cases, algebras)
        want = {}
        for kind, c, n, count in json.loads(POSITIVES_FILE.read_text())["positives"]:
            want[(kind, tuple(c), n)] = count
        got = {}
        outputs = iter(outputs)
        for case in self.cases:
            kind, c = case["kind"], case["c"]
            alg = checker.Nakayama(kind, c)
            homogeneous = checker.is_homogeneous(kind, c) is not None
            for n in CLASSIFY_NS:
                result = next(outputs)
                if result is None:
                    continue
                where = f"{kind}{list(c)} n={n}"
                count = len(result.subcategories)
                if result.exists != (count > 0):
                    problems.append(f"{where}: exists={result.exists} with {count} subcategories")
                if count not in (0, 1, n):
                    problems.append(f"{where}: {count} subcategories")
                if count == n and not (kind == "cyclic" and homogeneous):
                    problems.append(f"{where}: n subcategories on a non-selfinjective algebra")
                if count and n % 2 and not homogeneous:
                    problems.append(f"{where}: positive at odd n on a non-homogeneous algebra")
                for members in result.subcategories:
                    reason = checker.verify(alg, members, n, "nZ")
                    if reason:
                        problems.append(f"{where}: checker rejects a subcategory: {reason}")
                if count:
                    got[(kind, checker.canonical_rotation(kind, c), n)] = count
        if got != want:
            extra = sorted(set(got.items()) - set(want.items()))[:3]
            lost = sorted(set(want.items()) - set(got.items()))[:3]
            problems.append(f"positive pairs differ from the regenerated list: "
                            f"unexpected {extra}, missing {lost}")
        return problems


class Glued(Workload):
    name = "glued"
    tail_percentile = 95

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for n, loewys in GLUED_SLOTS:
            chain, blocks = chain_series(n, loewys)
            cyc = self_glue_series(chain)
            offset = rng.randrange(len(cyc))
            cases.append({"n": n, "loewys": loewys, "chain": chain, "blocks": blocks,
                          "offset": offset, "cyclic": _rotate(cyc, offset)})
        # the slots keep their order: the Ext memo holds the tables of the
        # algebras classified before, so the order decided the peak memory
        # (80 to 104 MB across seeds when it was shuffled)
        self.cases = cases
        # each self-gluing comes right before its chain: the chain is one of
        # its ungluings, so the second operation can reuse Ext data
        self.docs = []
        for case in cases:
            self.docs += [_doc("cyclic", case["cyclic"]), _doc("acyclic", case["chain"])]

    def make_ops(self, nakct, algebras):
        ns = [case["n"] for case in self.cases for _ in ("cyclic", "acyclic")]
        return [lambda a=algebra, n=n: nakct.classify_nz(a, n) for algebra, n in zip(algebras, ns)]

    def check(self, nakct, algebras, outputs):
        expected = []
        for case in self.cases:
            expected += [("cyclic", case["cyclic"]), ("acyclic", case["chain"])]
        problems = _check_loaded([{"kind": k, "c": c} for k, c in expected], algebras)
        outputs = list(outputs)
        for idx, case in enumerate(self.cases):
            n = case["n"]
            blocks = [nakct.homogeneous(nakct.Kind.ACYCLIC, end - start + 1, l)
                      for start, end, l in case["blocks"]]
            glued = blocks[0]
            for block in blocks[1:]:
                glued = nakct.glue(glued, block)
            if glued.kupisch != case["chain"] or nakct.self_glue(glued).kupisch != self_glue_series(case["chain"]):
                problems.append(f"glue/self_glue of {case['loewys']} disagree with the benchmark's series")
            m = len(case["cyclic"])
            want = {
                "cyclic": sorted(((s - 1 - case["offset"]) % m + 1, e - s, l) for s, e, l in case["blocks"]),
                "acyclic": sorted((s, e - s, l) for s, e, l in case["blocks"]),
            }
            for kind, series, result in (("cyclic", case["cyclic"], outputs[2 * idx]),
                                         ("acyclic", case["chain"], outputs[2 * idx + 1])):
                where = f"{kind}{list(series)} n={n}"
                if result is None:
                    continue
                if not result.exists or len(result.subcategories) != 1:
                    problems.append(f"{where}: expected exactly one subcategory")
                    continue
                reason = checker.verify(checker.Nakayama(kind, series), result.subcategories[0], n, "nZ")
                if reason:
                    problems.append(f"{where}: checker rejects the subcategory: {reason}")
                pieces = sorted((p.start, p.end - p.start, p.loewy) for p in result.decomposition.pieces)
                if pieces != want[kind]:
                    problems.append(f"{where}: pieces {pieces} are not the glued blocks {want[kind]}")
        return problems


class Singularity(Workload):
    name = "singularity"
    tail_percentile = 95
    repeat_check = True
    # each command stands for a separate CLI process, which starts cold
    cold_each = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for n, loewys in SINGULARITY_SLOTS:
            chain, blocks = chain_series(n, loewys)
            cyc = self_glue_series(chain)
            offset = rng.randrange(len(cyc))
            cases.append({"n": n, "r": len(loewys), "blocks": blocks, "offset": offset,
                          "cyclic": _rotate(cyc, offset)})
        rng.shuffle(cases)
        self.cases = cases
        self.docs = [_doc("cyclic", case["cyclic"]) for case in cases]
        self.files: list[Path] = []

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.files = []
        for idx, doc in enumerate(self.docs):
            path = directory / f"algebra{idx:02d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files.append(path)

    def argv(self, idx: int) -> list[str]:
        return ["singularity", "--n", str(self.cases[idx]["n"]), str(self.files[idx])]

    def make_ops(self, nakct, algebras):
        return [lambda argv=self.argv(idx): run_cli(nakct, argv) for idx in range(len(self.cases))]

    def check(self, nakct, algebras, outputs):
        problems = _check_loaded([{"kind": "cyclic", "c": case["cyclic"]} for case in self.cases], algebras)
        for case, output in zip(self.cases, outputs):
            if output is None:
                continue
            code, stdout = output
            n, r, series = case["n"], case["r"], case["cyclic"]
            where = f"cyclic{list(series)} n={n}"
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            payload = json.loads(stdout)
            if payload["gamma"] != {"kind": "cyclic", "kupisch": [2] * (r * n)}:
                problems.append(f"{where}: Gamma is {payload['gamma']}, not the 2-cycle on {r * n} vertices")
            if payload["count"] != n:
                problems.append(f"{where}: count {payload['count']} != n")
            alg = checker.Nakayama("cyclic", series)
            witness = tuple(payload["gorenstein_witness"])
            if not alg.is_injective(witness) or alg.is_projective(witness):
                problems.append(f"{where}: witness {witness} is not injective non-projective")
            objects = sorted(tuple(x) for x in payload["f"]["objects"])
            if objects != sorted(alg.f_objects()):
                problems.append(f"{where}: F objects differ from the resolution-quiver filter")
            m = len(series)
            want = sorted(((s - 1 - case["offset"]) % m + 1, e - s, l) for s, e, l in case["blocks"])
            pieces = sorted((s, e - s, l) for s, e, l in payload["pieces"])
            if pieces != want:
                problems.append(f"{where}: pieces {pieces} are not the glued blocks {want}")
        return problems


def run_cli(nakct, argv) -> tuple[int, str]:
    """One CLI command in this process, with its stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = nakct.cli.run(argv)
    return code, buffer.getvalue()


def enumerate_homogeneous() -> list[tuple[str, int, int]]:
    """Small homogeneous algebras (l <= 5, at most 40 indecomposables)
    inside the range where the test suite checks the existence theorem
    against brute force (cyclic m <= 8, line m <= 10, l <= 6)."""
    out = []
    for kind, ms in (("acyclic", range(3, 11)), ("cyclic", range(2, 9))):
        for m in ms:
            for l in range(2, 6):
                if sum(checker.homogeneous_series(kind, m, l)) <= 40:
                    out.append((kind, m, l))
    return out


def enumerate_pool() -> list[tuple[str, tuple[int, ...]]]:
    return _distinct_pool(ENUMERATE_POOL_SEED, ENUMERATE_POOL_SIZE,
                          max_m=12, total_cap=36, max_entry=6, min_total=16)


class Enumerate(Workload):
    name = "enumerate"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for kind, m, l in enumerate_homogeneous():
            cases.append({"doc": {"kind": kind, "homogeneous": {"m": m, "l": l}},
                          "kind": kind, "c": checker.homogeneous_series(kind, m, l), "ml": (m, l)})
        for kind, c in enumerate_pool():
            if kind == "cyclic":
                c = _rotate(c, rng.randrange(len(c)))
            cases.append({"doc": _doc(kind, c), "kind": kind, "c": c, "ml": None})
        rng.shuffle(cases)
        self.cases = cases
        self.docs = [case["doc"] for case in cases]

    def make_ops(self, nakct, algebras):
        ops = []
        for algebra in algebras:
            for n in ENUMERATE_NS:
                for mode in ENUMERATE_MODES:
                    ops.append(lambda a=algebra, n=n, mode=mode: nakct.enumerate_ct(a, n, mode))
        return ops

    def check(self, nakct, algebras, outputs):
        problems = _check_loaded(self.cases, algebras)
        outputs = iter(outputs)
        for case in self.cases:
            kind, c = case["kind"], case["c"]
            alg = checker.Nakayama(kind, c)
            for n in ENUMERATE_NS:
                for mode in ENUMERATE_MODES:
                    subs = next(outputs)
                    if subs is None:
                        continue
                    where = f"{kind}{list(c)} n={n} mode={mode}"
                    for members in subs:
                        reason = checker.verify(alg, members, n, mode)
                        if reason:
                            problems.append(f"{where}: checker rejects a subcategory: {reason}")
                    if mode == "nZ" and len(subs) not in (0, 1, n):
                        problems.append(f"{where}: {len(subs)} subcategories")
                    if mode == "n" and case["ml"] is not None:
                        m, l = case["ml"]
                        if bool(subs) != checker.homogeneous_admits_n_ct(kind, m, l, n):
                            problems.append(f"{where}: existence disagrees with the homogeneous theorem")
        return problems


def _check_loaded(cases, algebras) -> list[str]:
    """The parser must give back exactly the series the benchmark meant."""
    problems = []
    for case, algebra in zip(cases, algebras):
        if (algebra.kind.value, tuple(algebra.kupisch)) != (case["kind"], tuple(case["c"])):
            problems.append(f"loaded {algebra} for {case['kind']}{list(case['c'])}")
    if len(cases) != len(algebras):
        problems.append(f"{len(algebras)} algebras loaded for {len(cases)} inputs")
    return problems


WORKLOADS = {cls.name: cls for cls in (Classify, Glued, Singularity, Enumerate)}
