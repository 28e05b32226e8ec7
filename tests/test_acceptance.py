"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact integer combinatorics, so every comparison is
equality with zero tolerance.  Run with ``pytest tests/test_acceptance.py -v``;
the per-criterion verdict lines bypass capture so they always appear.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nakct import (
    Case,
    Indec,
    Kind,
    ZERO,
    canonical,
    classify_nz,
    cyclic_simples,
    enumerate_ct,
    ext_dim,
    f_objects,
    from_kupisch,
    gamma,
    gldim,
    glue,
    gorenstein_witness,
    hom_dim,
    homogeneous,
    indecomposables,
    injectives,
    is_homogeneous,
    is_injective,
    is_projective,
    admits_homog_nct,
    omega,
    projectives,
    resolution_quiver,
    self_glue,
    simple,
    sing_ct,
    sing_image,
    tau_n,
    translate,
)
from nakct.modules import cover_hull
from nakct.tilting import subcategory_key
from oracles.matrix import matrix_hom_dim
from conftest import random_kupisch, register_acceptance

ROOT = Path(__file__).resolve().parent.parent
SWEEP_NS = (2, 3, 4, 5, 6)


def _report(criterion: int, detail: str) -> None:
    # one verdict line per criterion, echoed in the terminal summary
    register_acceptance(criterion, detail)


@pytest.fixture(scope="module")
def sweep_algebras():
    grid = []
    for m in range(2, 11):
        for l in range(2, 9):
            grid.append(homogeneous(Kind.ACYCLIC, m, l))
    for m in range(1, 11):
        for l in range(2, 9):
            grid.append(homogeneous(Kind.CYCLIC, m, l))
    rng = random.Random(0xACCE97)
    randoms = [random_kupisch(rng, total_cap=48) for _ in range(500)]
    return grid, randoms


@pytest.fixture(scope="module")
def sweep_results(sweep_algebras):
    grid, randoms = sweep_algebras
    results = []
    for algebra in grid + randoms:
        bound = max(64, sum(algebra.kupisch))
        for n in SWEEP_NS:
            decided = classify_nz(algebra, n)
            brute = enumerate_ct(algebra, n, "nZ", max_ground_set=bound)
            results.append((algebra, n, decided, brute))
    return results


def test_criterion_1_classification_vs_brute_force(sweep_results):
    checked = 0
    for algebra, n, decided, brute in sweep_results:
        got = sorted(map(subcategory_key, decided.subcategories))
        want = sorted(map(subcategory_key, brute))
        assert got == want, (algebra, n)
        count = len(decided.subcategories)
        if decided.case in (Case.CYCLIC_HOMOG_RADSQ, Case.CYCLIC_HOMOG_STACKED):
            assert count == n, (algebra, n)
        elif decided.exists:
            assert count == 1, (algebra, n)
        else:
            assert count == 0, (algebra, n)
        checked += 1
    _report(1, f"classify == enumerate on {checked} (algebra, n) pairs; counts in {{0, 1, n}}")


def test_criterion_2_homogeneous_nct_theorem():
    checked = 0
    for kind, m_max in ((Kind.CYCLIC, 8), (Kind.ACYCLIC, 10)):
        m_min = 1 if kind is Kind.CYCLIC else 2
        for m in range(m_min, m_max + 1):
            for l in range(2, 7):
                algebra = homogeneous(kind, m, l)
                bound = max(64, sum(algebra.kupisch))
                for n in range(2, 6):
                    predicted = admits_homog_nct(kind, m, l, n)
                    brute = bool(enumerate_ct(algebra, n, "n", max_ground_set=bound))
                    assert predicted == brute, (kind, m, l, n)
                    checked += 1
    _report(2, f"closed-form n-cluster-tilting existence matches brute force on {checked} grid points")


def test_criterion_3_paper_fixtures():
    # (a) the seven-vertex algebra with two extra relations
    lam_a = from_kupisch(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3))
    assert [lam_a.rmax(i) for i in range(1, 8)] == [3, 5, 5, 5, 7, 7, 7]
    assert len(indecomposables(lam_a)) == 18

    # (b) radical square, nine vertices, n = 4
    a92 = homogeneous(Kind.ACYCLIC, 9, 2)
    decided = classify_nz(a92, 4)
    expected = frozenset(
        projectives(a92) | {simple(a92, 1), simple(a92, 5), simple(a92, 9)}
    )
    assert decided.subcategories == (expected,)

    # (c) depth three, seven vertices, n = 4
    a73 = homogeneous(Kind.ACYCLIC, 7, 3)
    decided = classify_nz(a73, 4)
    assert decided.subcategories == (frozenset(projectives(a73) | injectives(a73)),)

    # (d) selfinjective with loewy length five, n = 3
    c65 = homogeneous(Kind.CYCLIC, 6, 5)
    decided = classify_nz(c65, 3)
    assert len(decided.subcategories) == 3
    with_s1 = [s for s in decided.subcategories if Indec(1, 1) in s]
    assert with_s1 == [
        frozenset(projectives(c65) | {Indec(1, 1), Indec(4, 4), Indec(1, 4), Indec(4, 7)})
    ]

    # (e) the fifteen-vertex gluing
    glued = glue(a73, a92)
    assert gldim(glued) == 12
    decided = classify_nz(glued, 4)
    rectangles = {
        (1, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7), (7, 7),
        (7, 8), (8, 9), (9, 10), (10, 11), (11, 11), (11, 12), (12, 13),
        (13, 14), (14, 15), (15, 15),
    }
    assert {(x.i, x.j) for x in decided.subcategories[0]} == rectangles

    # (f) its self-gluing: same rectangles with both copies of (1,1) identified
    lam_c = self_glue(glued)
    decided = classify_nz(lam_c, 4)
    assert len(decided.subcategories) == 1
    folded = {tuple(canonical(lam_c, i, j)) for i, j in rectangles}
    assert {(x.i, x.j) for x in decided.subcategories[0]} == folded
    _report(3, "all six worked-example fixtures reproduced exactly")


def test_criterion_4_singularity_fixtures():
    lam_c = self_glue(glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2)))
    successor = resolution_quiver(lam_c).as_dict()
    assert successor == {
        1: 13, 13: 11, 11: 9, 9: 7, 7: 4, 4: 1,
        5: 2, 2: 14, 3: 14, 14: 12, 12: 10, 10: 8, 8: 6, 6: 3,
    }
    assert cyclic_simples(lam_c) == set(range(1, 15)) - {2, 5}
    presentation = gamma(lam_c, 4)
    fcat = f_objects(lam_c, presentation)
    assert len(fcat.objects) == 24
    assert Indec(8, 9) in fcat.objects and Indec(3, 4) not in fcat.objects
    assert presentation.gamma == homogeneous(Kind.CYCLIC, 12, 2)
    record = sing_ct(presentation)
    assert record.distinguished_simple_indices == frozenset({1, 7, 11})
    witness = gorenstein_witness(presentation)
    assert is_injective(lam_c, witness) and not is_projective(lam_c, witness)
    assert sing_image(presentation, witness).verdict == "NonZero"
    _report(4, "resolution quiver, cyclic simples, F, Gamma, witnesses all match")


def test_criterion_5_documented_discrepancy():
    # The worked example in the source text asserts three 4Z-cluster tilting
    # subcategories for the twelve-vertex radical-square-zero cycle; the
    # "precisely n" count for selfinjective algebras predicts four, and the
    # brute-force enumeration below confirms four.  The implementation must
    # not hard-code three.
    lam_c = self_glue(glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2)))
    record = sing_ct(gamma(lam_c, 4))
    assert record.count == 4
    gm = homogeneous(Kind.CYCLIC, 12, 2)
    subs = enumerate_ct(gm, 4, "nZ")
    gamma_proj = projectives(gm)
    stable = {frozenset(s - gamma_proj) for s in subs}
    assert len(stable) == 4
    _report(5, "stable count over the 12-vertex radical-square cycle is 4 (text says 3)")


def test_criterion_6_oracle_equivalence(sweep_algebras):
    grid, randoms = sweep_algebras
    pairs = 0
    for algebra in grid + randoms:
        for x, y in itertools.product(indecomposables(algebra), repeat=2):
            assert hom_dim(algebra, x, y) == matrix_hom_dim(algebra, x, y), (algebra, x, y)
            pairs += 1

    rng = random.Random(0x0AC1E)
    sampled = rng.sample(grid + randoms, 50)
    ext_checks = 0
    for algebra in sampled:
        mods = indecomposables(algebra)
        for x in mods:
            if is_projective(algebra, x):
                continue
            tx = translate(algebra, x, "fwd")
            for y in mods:
                _, hull, _, _ = cover_hull(algebra, y)
                through = hom_dim(algebra, hull, tx)
                cosyzygy = omega(algebra, y, -1)
                if cosyzygy is not ZERO:
                    through -= hom_dim(algebra, cosyzygy, tx)
                assert ext_dim(algebra, x, y, 1) == hom_dim(algebra, y, tx) - through
                ext_checks += 1
    _report(6, f"hom oracle on {pairs} pairs; AR-formula Ext^1 on {ext_checks} pairs")


def test_criterion_7_section_three_properties(sweep_results):
    admitting = [(a, n, d) for a, n, d, _ in sweep_results if d.exists]
    assert admitting
    for algebra, n, decided in admitting:
        for members in decided.subcategories:
            non_proj = {x for x in members if not is_projective(algebra, x)}
            non_inj = {x for x in members if not is_injective(algebra, x)}
            forward = {x: tau_n(algebra, x, n, "fwd") for x in non_proj}
            assert set(forward.values()) == non_inj
            for x, image in forward.items():
                assert tau_n(algebra, image, n, "bwd") == x
            for x in non_proj:
                for k in range(1, n):
                    assert omega(algebra, x, k) is not ZERO
                image = omega(algebra, x, n)
                # Zero only on short tails (projective dimension below n)
                assert image is ZERO or image in members
                assert omega(algebra, translate(algebra, x, "fwd"), -1) in members
            for x in non_inj:
                for k in range(1, n):
                    assert omega(algebra, x, -k) is not ZERO
                assert omega(algebra, translate(algebra, x, "bwd"), 1) in members
        # no peaks in the AR quiver of an admitting algebra
        for module in indecomposables(algebra):
            i, j = module
            left = algebra.exists(i - 1, j - 1)
            right = algebra.exists(i + 1, j + 1)
            assert left or right, (algebra, module)
    # odd n admits only on homogeneous algebras
    for algebra, n, decided in admitting:
        if n % 2:
            assert is_homogeneous(algebra) is not None, (algebra, n)

    # tetragon nonvanishing on 1000 sampled valid quadruples
    rng = random.Random(0x7E7A60)
    algebras = [a for a, _, _, _ in sweep_results]
    samples = 0
    while samples < 1000:
        algebra = rng.choice(algebras)
        mods = indecomposables(algebra)
        i, j = rng.choice(mods)
        top = algebra.rmax(i)
        if top < j + 1:
            continue
        i2 = rng.randint(i + 1, j + 1)
        j2 = rng.randint(j + 1, top)
        other = canonical(algebra, i2, j2)
        assert algebra.exists(other.i, other.j)
        assert ext_dim(algebra, other, canonical(algebra, i, j), 1) >= 1
        samples += 1
    _report(7, f"translate bijections, closure laws, no-peaks, {samples} tetragon samples, odd-n law")


def test_criterion_8_cli_determinism(tmp_path):
    fixtures = {
        "a9r2.json": {"kind": "acyclic", "homogeneous": {"m": 9, "l": 2}},
        "lamA.json": {"kind": "acyclic", "kupisch": [1, 2, 3, 3, 4, 2, 3]},
        "lamC.json": {
            "kind": "cyclic",
            "kupisch": [2, 2, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2],
        },
    }
    paths = {}
    for name, payload in fixtures.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    subcat = tmp_path / "subcat.json"
    subcat.write_text(
        json.dumps({"members": [[1, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 5],
                                [5, 6], [6, 7], [7, 8], [8, 9], [9, 9]]}),
        encoding="utf-8",
    )
    commands = [
        ["classify", "--n", "4", paths["a9r2.json"]],
        ["classify", "--n", "4", paths["lamC.json"]],
        ["enumerate", "--n", "4", paths["a9r2.json"]],
        ["verify", "--n", "4", "--subcat", str(subcat), paths["a9r2.json"]],
        ["ext", "--x", "3,4", "--y", "2,3", "--max-k", "3", paths["lamA.json"]],
        ["ar-quiver", "--render", "dot", paths["lamA.json"]],
        ["ar-quiver", paths["lamA.json"]],
        ["resolution-quiver", "--render", "dot", paths["lamC.json"]],
        ["singularity", "--n", "4", paths["lamC.json"]],
        ["gldim", paths["lamC.json"]],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:
        full = [sys.executable, "-m", "nakct.cli", *argv]
        runs = [subprocess.run(full, env=env, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, argv
        assert b"\r" not in runs[0].stdout
    _report(8, f"{len(commands)} CLI commands byte-identical across repeated runs")
