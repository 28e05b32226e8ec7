"""Set-up probe: import nakct from this checkout and parse every input.

    python3 bench/setup_probe.py INPUTS.json

``run.py`` times fresh interpreters on this script for ``setup_s``.  It
imports only what ``nakct`` imports itself, so the figure is the program's
set-up and not the benchmark's.  Prints ``ready <count>`` when done.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import nakct  # noqa: E402
import nakct.cli  # noqa: E402,F401  (the singularity workload calls it)

with open(sys.argv[1], encoding="utf-8") as handle:
    docs = json.load(handle)
algebras = [nakct.algebra.from_json_dict(doc) for doc in docs]
sys.stdout.write(f"ready {len(algebras)}\n")
sys.stdout.flush()
