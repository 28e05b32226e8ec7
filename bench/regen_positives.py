"""Regenerate ``data/classify_positives.json`` from the brute-force oracle.

    python3 bench/regen_positives.py
    git diff bench/data/classify_positives.json  # did anything change?

For every algebra the classify workload can draw (the homogeneous grid and
the fixed random pool, unrotated) and every n it asks about, runs the
exhaustive enumerator ``enumerate_ct`` in nZ mode and records the pairs
with at least one nZ-cluster tilting subcategory, with their count.  Cyclic
series are stored in their smallest rotation, since the workload relabels
them by seed.  The classify workload compares its positive verdicts with
this file; nothing else in the benchmark uses the enumerator as a reference.
"""

from __future__ import annotations

import json
import sys

import checker
import workloads
from run import import_nakct


def positives(nakct) -> list:
    out = []
    for kind, c in workloads.classify_universe():
        algebra = nakct.from_kupisch(kind, c)
        bound = max(64, sum(c))
        for n in workloads.CLASSIFY_NS:
            found = nakct.enumerate_ct(algebra, n, "nZ", max_ground_set=bound)
            if found:
                out.append([kind, list(checker.canonical_rotation(kind, c)), n, len(found)])
    out.sort()
    return out


def main() -> int:
    nakct = import_nakct()
    found = positives(nakct)
    header = {
        "source": "enumerate_ct(algebra, n, 'nZ') over workloads.classify_universe()",
        "ns": list(workloads.CLASSIFY_NS),
        "pool_seed": workloads.CLASSIFY_POOL_SEED,
        "pool_size": workloads.CLASSIFY_POOL_SIZE,
    }
    # one [kind, series, n, count] row per line keeps diffs readable
    rows = ",\n".join("  " + json.dumps(row) for row in found)
    text = json.dumps(header, indent=1)[:-2] + ',\n "positives": [\n' + rows + "\n ]\n}\n"
    workloads.POSITIVES_FILE.parent.mkdir(parents=True, exist_ok=True)
    workloads.POSITIVES_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {len(found)} positive pairs to {workloads.POSITIVES_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
