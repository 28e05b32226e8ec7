import argparse
import ast
import json
import sys
from pathlib import Path

import pytest

import nakct
from nakct import (
    FiniteGlobalDimension,
    Indec,
    Kind,
    KindMismatch,
    NotInClassifiedCase,
    canonical,
    classify_nz,
    cyclic_simples,
    enumerate_ct,
    f_objects,
    from_kupisch,
    gamma,
    glue,
    gorenstein_witness,
    hom_dim,
    homogeneous,
    is_injective,
    is_projective,
    omega,
    resolution_quiver,
    self_glue,
    simple,
    sing_ct,
    sing_image,
)
from nakct.algebra import to_json_dict
from nakct.cli import COMMANDS, run
from nakct.tilting import subcategory_key
from oracles.matrix import matrix_hom_dim


def test_resolution_quiver_lam_c(lam_c):
    successor = resolution_quiver(lam_c).as_dict()
    assert successor == {
        1: 13, 13: 11, 11: 9, 9: 7, 7: 4, 4: 1,
        5: 2, 2: 14, 3: 14, 14: 12, 12: 10, 10: 8, 8: 6, 6: 3,
    }


def test_resolution_quiver_acyclic_chains():
    successor = resolution_quiver(homogeneous(Kind.ACYCLIC, 7, 3)).as_dict()
    assert successor == {4: 1, 5: 2, 6: 3, 7: 4}  # sinks at 1, 2, 3


def test_resolution_quiver_radical_square_loops():
    # sigma(i) = lmax(i) - 1 lands back on i when m = 2 and l = 2
    successor = resolution_quiver(homogeneous(Kind.CYCLIC, 2, 2)).as_dict()
    assert successor == {1: 1, 2: 2}
    assert cyclic_simples(homogeneous(Kind.CYCLIC, 2, 2)) == {1, 2}


def test_cyclic_simples(lam_c, lam_b):
    assert cyclic_simples(lam_c) == set(range(1, 15)) - {2, 5}
    for m in (2, 3, 5):
        algebra = homogeneous(Kind.CYCLIC, m, 2)
        assert cyclic_simples(algebra) == set(range(1, m + 1))
    # no closed form claimed for lam_b; just check it agrees with iteration
    successor = resolution_quiver(lam_b).as_dict()
    walked = set()
    for start in successor:
        seen = []
        v = start
        while v not in seen:
            seen.append(v)
            v = successor[v]
        walked.update(seen[seen.index(v):])
    assert cyclic_simples(lam_b) == walked


def test_cyclic_simples_needs_cyclic(lam_a):
    with pytest.raises(KindMismatch):
        cyclic_simples(lam_a)


def test_f_objects_lam_c(lam_c):
    fcat = f_objects(lam_c, gamma(lam_c, 4))
    assert len(fcat.objects) == 24
    assert Indec(8, 9) in fcat.objects
    assert Indec(3, 4) not in fcat.objects
    expected_proj = {
        (1, 3), (2, 4), (4, 6), (5, 7), (7, 8), (8, 9), (9, 10), (10, 11),
        (11, 12), (12, 13), (13, 14), (14, 15),
    }
    assert {(x.i, x.j) for x in fcat.f_projectives} == {
        tuple(canonical(lam_c, i, j)) for i, j in expected_proj
    }
    # inference without n gives the same answer
    assert f_objects(lam_c, gamma(lam_c)).f_projectives == fcat.f_projectives


def test_f_objects_small_loop():
    algebra = homogeneous(Kind.CYCLIC, 2, 2)
    fcat = f_objects(algebra)
    assert len(fcat.objects) == 4


def test_f_objects_rejects_finite_gldim(lam_b):
    # cyclic algebras can have finite global dimension, e.g. (3,2) and
    # the seven-vertex companion algebra; F is undefined there
    from nakct import gldim, INFINITY

    for algebra in (from_kupisch(Kind.CYCLIC, (3, 2)), lam_b):
        assert gldim(algebra) is not INFINITY
        with pytest.raises(FiniteGlobalDimension):
            f_objects(algebra)


def test_f_objects_unclassified_has_no_projectives():
    # infinite global dimension but no nZ-cluster tilting subcategory
    for c in ((3, 4), (2, 2, 3, 3)):
        algebra = from_kupisch(Kind.CYCLIC, c)
        fcat = f_objects(algebra)
        assert fcat.f_projectives is None
        on_cycle = cyclic_simples(algebra)
        for module in fcat.objects:
            assert algebra.vertex(module.j) in on_cycle
            assert algebra.vertex(module.i - 1) in on_cycle


def test_gamma_presentation(lam_c):
    presentation = gamma(lam_c, 4)
    assert presentation.gamma == homogeneous(Kind.CYCLIC, 12, 2)
    assert presentation.block_offsets == (0, 4, 8)
    enum = presentation.projectives_enum
    assert enum[0] == Indec(1, 3)
    assert enum[4] == Indec(7, 8)
    assert enum[11] == Indec(14, 15)
    assert hom_dim(lam_c, enum[0], enum[1]) == 1
    assert hom_dim(lam_c, enum[0], enum[2]) == 0
    # top of the last projective is the first distinguished simple
    assert canonical(lam_c, enum[11].j, enum[11].j) == Indec(1, 1)


def test_gamma_needs_classified_case(lam_b):
    with pytest.raises(NotInClassifiedCase):
        gamma(lam_b, 4)
    with pytest.raises(NotInClassifiedCase):
        gamma(homogeneous(Kind.CYCLIC, 6, 2), 2)


def test_sing_image_fixtures(lam_c):
    model = gamma(lam_c, 4)
    image = sing_image(model, Indec(6, 7))
    assert (image.verdict, image.target, image.via) == ("NonZero", Indec(7, 7), "Projection")
    image = sing_image(model, Indec(2, 2))
    assert (image.verdict, image.target, image.via) == ("NonZero", Indec(2, 3), "Inclusion")
    assert sing_image(model, Indec(1, 2)).verdict == "Zero"
    assert sing_image(model, Indec(7, 7)).via == "Identity"


def test_sing_image_targets_cover_f_objects(lam_c):
    from nakct import indecomposables

    model = gamma(lam_c, 4)
    fcat = f_objects(lam_c, model)
    non_proj = fcat.objects - fcat.f_projectives
    targets = set()
    for module in indecomposables(lam_c):
        image = sing_image(model, module)
        if image.verdict == "NonZero":
            assert image.target in non_proj
            targets.add(image.target)
    assert targets == non_proj


def test_sing_image_syzygy_compatibility(lam_c):
    # both the nonzero and the zero locus are closed under syzygies; nonzero
    # modules in particular never resolve away
    from nakct import ZERO, indecomposables

    model = gamma(lam_c, 4)
    for module in indecomposables(lam_c):
        verdict = sing_image(model, module).verdict
        current = module
        for _ in range(8):
            current = omega(lam_c, current, 1)
            if current is ZERO:
                assert verdict == "Zero"
                break
            assert sing_image(model, current).verdict == verdict


def test_sing_ct_fixtures(lam_c):
    record = sing_ct(gamma(lam_c, 4))
    assert record.distinguished_simple_indices == frozenset({1, 7, 11})
    assert record.gamma_indices == frozenset({3, 7, 11})
    # the paper's closing example text says three; the brute-force count
    # over Gamma = 12 vertices with radical square zero is four, matching
    # the "precisely n" count for selfinjective algebras
    assert record.count == 4


def test_distinguished_simples_form_omega_orbit(lam_c):
    starts = {1, 7, 11}
    for v in starts:
        orbit = {v}
        current = simple(lam_c, v)
        for _ in range(6):
            current = omega(lam_c, current, -4)
            orbit.add(current.i)
        assert orbit == starts


def test_gorenstein_witness(lam_c):
    model = gamma(lam_c, 4)
    witness = gorenstein_witness(model)
    assert witness == Indec(6, 7)
    assert is_injective(lam_c, witness) and not is_projective(lam_c, witness)
    assert sing_image(model, witness).verdict == "NonZero"


def test_gorenstein_witness_other_algebra():
    base = glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2))
    closed = self_glue(base)
    model = gamma(closed)
    witness = gorenstein_witness(model)
    assert is_injective(closed, witness) and not is_projective(closed, witness)
    assert sing_image(model, witness).verdict == "NonZero"
    # a second family with the deep block elsewhere
    other = self_glue(glue(homogeneous(Kind.ACYCLIC, 9, 2), homogeneous(Kind.ACYCLIC, 7, 3)))
    witness2 = gorenstein_witness(gamma(other))
    assert is_injective(other, witness2) and not is_projective(other, witness2)


def test_f_object_count_matches_gamma(lam_c):
    # |X_c| equals the total Kupisch mass of Gamma
    presentation = gamma(lam_c, 4)
    assert len(f_objects(lam_c, presentation).objects) == sum(presentation.gamma.kupisch)


def test_congruence_criterion_matches_sigma_cycles(lam_c):
    result = cyclic_simples(lam_c)
    from nakct.classify import classify_nz

    pieces = classify_nz(lam_c, 4).decomposition.pieces
    by_congruence = set()
    for piece in pieces:
        for i in range(piece.start, piece.end):
            offset = (i - piece.start) % piece.loewy
            if offset in (0, piece.loewy - 1):
                by_congruence.add(lam_c.vertex(i))
    assert by_congruence == result


def _self_glued_chain(blocks):
    """Self-gluing of `blocks` copies of the (7,3)+(9,2) gluing."""
    block = glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2))
    chain = block
    for _ in range(blocks - 1):
        chain = glue(chain, block)
    return self_glue(chain)


def _classified_fixtures(lam_c):
    """Self-glued algebras the singularity model covers at n = 4."""
    other = self_glue(glue(homogeneous(Kind.ACYCLIC, 9, 2), homogeneous(Kind.ACYCLIC, 7, 3)))
    return [lam_c, other, _self_glued_chain(2)]


def test_gamma_constructions_match_brute_force(lam_c):
    # the cross-check sing_ct ran before it took classify_nz's answer alone
    cases = [(gamma(algebra, 4).gamma, 4) for algebra in _classified_fixtures(lam_c)]
    cases += [
        (homogeneous(Kind.CYCLIC, m, 2), n)
        for m in range(2, 13)
        for n in range(2, m + 1)
        if m % n == 0
    ]
    assert len(cases) == 26
    for gm, n in cases:
        constructed = sorted(map(subcategory_key, classify_nz(gm, n).subcategories))
        assert constructed == sorted(map(subcategory_key, enumerate_ct(gm, n, "nZ"))), (gm, n)
        assert len(constructed) == n


def test_gamma_adjacency_against_matrix_oracle(lam_c):
    # gamma checks only the pairs the closed form can make nonzero; here
    # every pair is checked, against the independent matrix computation
    for algebra in [lam_c] + [_self_glued_chain(k) for k in (2, 3, 4)]:
        enum = gamma(algebra, 4).projectives_enum
        total = len(enum)
        for a, source in enumerate(enum):
            for b, target in enumerate(enum):
                expected = 1 if b in (a, (a + 1) % total) else 0
                assert matrix_hom_dim(algebra, source, target) == expected, (algebra, a, b)


def test_singularity_module_does_not_enumerate():
    source = (Path(nakct.__file__).parent / "singularity.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "enumerate_ct" not in names


def _write_algebra(path, algebra):
    path.write_text(json.dumps(to_json_dict(algebra)), encoding="utf-8")
    return str(path)


def _count_calls(monkeypatch, original):
    """A one-element list counting calls of original from now on."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    # rebind every name the package holds for it, as a tracer would
    for name, module in list(sys.modules.items()):
        if name == "nakct" or name.startswith("nakct."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_singularity_command_makes_no_enumerate_calls(monkeypatch, tmp_path, capsys, lam_c):
    calls = _count_calls(monkeypatch, nakct.tilting.enumerate_ct)
    for idx, algebra in enumerate(_classified_fixtures(lam_c)):
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        assert run(["singularity", "--n", "4", path]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 4
    assert calls[0] == 0
    nakct.tilting.enumerate_ct(homogeneous(Kind.CYCLIC, 4, 2), 2)
    assert calls[0] == 1  # the counter does see a call


def test_singularity_command_builds_two_ext_tables(monkeypatch, tmp_path, capsys, lam_c):
    # one for the input's subcategory and one for all n of Gamma's, however
    # large n is; 300 vertices at n = 200 used to build 201
    calls = _count_calls(monkeypatch, nakct.modules.ext_table)
    wide = self_glue(homogeneous(Kind.ACYCLIC, 301, 3))
    cases = [(algebra, 4) for algebra in _classified_fixtures(lam_c)] + [(wide, 200)]
    for idx, (algebra, n) in enumerate(cases):
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        calls[0] = 0
        assert run(["singularity", "--n", str(n), path]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == n
        assert calls[0] == 2, (algebra, n)


def test_singularity_command_scales_past_brute_force(tmp_path, capsys):
    # 56 vertices and twelve pieces, so Gamma has 48 vertices; brute force
    # over its 96 indecomposables took seconds, the closed form milliseconds
    path = _write_algebra(tmp_path / "chain4.json", _self_glued_chain(4))
    assert run(["singularity", "--n", "4", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert len(payload["pieces"]) == 12
    assert payload["gamma"] == {"kind": "cyclic", "kupisch": [2] * 48}


def test_singularity_command_builds_gamma_once(monkeypatch, tmp_path, capsys, lam_c):
    original = nakct.singularity.gamma
    calls = _count_calls(monkeypatch, original)
    for idx, algebra in enumerate(_classified_fixtures(lam_c)):
        calls[0] = 0
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        assert run(["singularity", "--n", "4", path]) == 0
        capsys.readouterr()
        assert calls[0] == 1, algebra
        assert sing_ct(original(algebra, 4)) == sing_ct(original(algebra))


def test_singularity_command_classifies_input_and_gamma_once(monkeypatch, tmp_path, capsys, lam_c):
    calls = _count_calls(monkeypatch, nakct.classify.classify_nz)
    for idx, algebra in enumerate(_classified_fixtures(lam_c)):
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        calls[0] = 0
        assert run(["singularity", "--n", "4", path]) == 0
        capsys.readouterr()
        assert calls[0] == 2, algebra


def test_gamma_without_n_classifies_once(monkeypatch, lam_c):
    calls = _count_calls(monkeypatch, nakct.classify.classify_nz)
    for algebra in _classified_fixtures(lam_c):
        calls[0] = 0
        assert gamma(algebra).n == 4
        assert calls[0] == 1, algebra


@pytest.mark.parametrize(
    "original, expected",
    [
        (nakct.singularity.resolution_quiver, 1),
        (nakct.singularity.cyclic_simples, 1),
        (nakct.modules.projectives, 1),  # Gamma's, in sing_ct; classify_nz reads a bitset
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_singularity_command_builds_each_part_once(
    monkeypatch, tmp_path, capsys, lam_c, original, expected
):
    # the resolution quiver and the cyclic simples are handed on to f_objects
    # and to the output; classify_nz takes Gamma's projectives from its check
    calls = _count_calls(monkeypatch, original)
    for idx, algebra in enumerate(_classified_fixtures(lam_c)):
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        calls[0] = 0
        assert run(["singularity", "--n", "4", path]) == 0
        capsys.readouterr()
        assert calls[0] == expected, algebra


def _count_parsers(monkeypatch):
    """A one-element list counting ArgumentParser constructions from now on."""
    calls = [0]
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return calls


def test_singularity_command_builds_one_parser(monkeypatch, tmp_path, capsys, lam_c):
    calls = _count_parsers(monkeypatch)
    for idx, algebra in enumerate(_classified_fixtures(lam_c)):
        path = _write_algebra(tmp_path / f"algebra{idx}.json", algebra)
        calls[0] = 0
        assert run(["singularity", "--n", "4", path]) == 0
        capsys.readouterr()
        assert calls[0] == 1, algebra
    # --help and an unknown word get the full parser: the top and every subcommand
    full = 1 + len(COMMANDS)
    calls[0] = 0
    with pytest.raises(SystemExit):
        run(["--help"])
    assert calls[0] == full
    calls[0] = 0
    assert run(["singularities", "--n", "4"]) == 2
    assert calls[0] == full
    capsys.readouterr()
