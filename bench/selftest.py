"""Show that the independent checker agrees with nakct on small algebras.

    python3 bench/selftest.py

On every pair of modules of a few small algebras, compares the checker's
module list, projectives, injectives, syzygies, Hom and Ext^1..Ext^4 with
``indecomposables``, ``projectives``, ``injectives``, ``omega``, ``hom_dim``
and ``ext_dims_upto``.  It then compares verdicts with ``verify_ct`` in both
modes: on every subcategory ``enumerate_ct`` returns, and on seeded random
candidates that contain the projectives and injectives.  On the cyclic
algebras it compares the Frobenius objects with ``f_objects``.  Exits 1 on
the first kind of disagreement it finds, after listing a few.
"""

from __future__ import annotations

import random
import sys

import checker
import workloads
from run import import_nakct

ALGEBRAS = (
    ("acyclic", (1, 2, 3, 3, 4, 2, 3)),
    ("cyclic", (2, 3, 3, 3, 4, 2, 3)),
    ("cyclic", (5, 5, 5, 5, 5, 5)),
    ("acyclic", (1, 2, 2, 2, 2, 2, 2, 2, 2)),
    ("cyclic", (3,)),
    ("cyclic", (2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2)),
) + tuple(workloads.enumerate_pool()[:6])

NS = (2, 3, 4)
KMAX = 4
RANDOM_CANDIDATES = 20


def compare(nakct, kind, series, rng, problems) -> int:
    """Append disagreements to ``problems``; return the number of checks."""
    algebra = nakct.from_kupisch(kind, series)
    alg = checker.Nakayama(kind, series)
    where = f"{kind}{list(series)}"
    checks = 0

    def agree(label, ours, theirs):
        nonlocal checks
        checks += 1
        if ours != theirs:
            problems.append(f"{where}: {label}: checker {ours} != nakct {theirs}")

    mods = alg.modules()
    agree("modules", mods, [tuple(x) for x in nakct.indecomposables(algebra)])
    agree("projectives", {x for x in mods if alg.is_projective(x)},
          {tuple(x) for x in nakct.projectives(algebra)})
    agree("injectives", {x for x in mods if alg.is_injective(x)},
          {tuple(x) for x in nakct.injectives(algebra)})
    for x in mods:
        theirs = nakct.omega(algebra, nakct.Indec(*x), 1)
        agree(f"omega {x}", alg.omega(x), None if theirs is nakct.ZERO else tuple(theirs))
    for x in mods:
        for y in mods:
            agree(f"hom {x} {y}", alg.hom(x, y), nakct.hom_dim(algebra, nakct.Indec(*x), nakct.Indec(*y)))
            agree(f"ext {x} {y}", alg.ext_upto(x, y, KMAX),
                  nakct.ext_dims_upto(algebra, nakct.Indec(*x), nakct.Indec(*y), KMAX))

    forced = {x for x in mods if alg.is_projective(x) or alg.is_injective(x)}
    others = [x for x in mods if x not in forced]
    for n in NS:
        for mode in ("n", "nZ"):
            candidates = list(nakct.enumerate_ct(algebra, n, mode, max_ground_set=len(mods)))
            for _ in range(RANDOM_CANDIDATES):
                extra = rng.sample(others, rng.randint(0, len(others)))
                candidates.append(frozenset(nakct.Indec(*x) for x in forced | set(extra)))
            for members in candidates:
                ours = checker.verify(alg, members, n, mode) is None
                theirs = nakct.verify_ct(algebra, members, n, mode).verdict
                agree(f"verify n={n} mode={mode} {sorted(tuple(x) for x in members)}", ours, theirs)

    if kind == "cyclic" and nakct.gldim(algebra) == nakct.INFINITY:
        agree("F objects", alg.f_objects(),
              {tuple(x) for x in nakct.f_objects(algebra).objects})
    return checks


def main() -> int:
    nakct = import_nakct()
    rng = random.Random(0x5E1F)
    problems: list[str] = []
    checks = 0
    for kind, series in ALGEBRAS:
        checks += compare(nakct, kind, series, rng, problems)
    for line in problems[:10]:
        print(line)
    print(f"{checks} comparisons on {len(ALGEBRAS)} algebras, {len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
