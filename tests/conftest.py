import random

import pytest

from nakct import Kind, from_kupisch, glue, homogeneous, is_homogeneous, self_glue

# acceptance verdicts registered by test_acceptance, echoed after the run
_acceptance_details = {}
_acceptance_outcomes = {}


def register_acceptance(criterion, detail):
    _acceptance_details[criterion] = detail


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_criterion_" not in report.nodeid:
        return
    tail = report.nodeid.split("test_criterion_", 1)[1]
    criterion = int(tail.split("_", 1)[0])
    _acceptance_outcomes[criterion] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_acceptance_outcomes):
        if _acceptance_outcomes[criterion]:
            detail = _acceptance_details.get(criterion, "")
            terminalreporter.write_line(f"ACCEPTANCE {criterion}: PASS  {detail}")
        else:
            terminalreporter.write_line(f"ACCEPTANCE {criterion}: FAIL  (see test report)")


@pytest.fixture(scope="session")
def lam_a():
    """kA_7 with relations killing the two long paths; Kupisch (1,2,3,3,4,2,3)."""
    return from_kupisch(Kind.ACYCLIC, (1, 2, 3, 3, 4, 2, 3))


@pytest.fixture(scope="session")
def lam_b():
    """The cyclic companion of lam_a; Kupisch (2,3,3,3,4,2,3)."""
    return from_kupisch(Kind.CYCLIC, (2, 3, 3, 3, 4, 2, 3))


@pytest.fixture(scope="session")
def glued15():
    """The 15-vertex gluing of the depth-3 block with the radical-square run."""
    return glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2))


@pytest.fixture(scope="session")
def lam_c(glued15):
    """Self-gluing of glued15: cyclic, 14 vertices, Kupisch (2,2,3,3,3,3,3,2,...)."""
    return self_glue(glued15)


def random_kupisch(rng, total_cap=48, max_m=16, max_entry=8, require_nonhomog=True):
    """A uniformly scruffy valid Kupisch series within the size caps."""
    while True:
        kind = rng.choice([Kind.ACYCLIC, Kind.CYCLIC])
        m = rng.randint(2 if kind is Kind.ACYCLIC else 1, max_m)
        cap = rng.randint(2, max_entry)
        if kind is Kind.ACYCLIC:
            c = [1]
            for j in range(2, m + 1):
                c.append(rng.randint(2, min(j, c[-1] + 1, cap)))
        else:
            c = [rng.randint(2, cap)]
            for j in range(2, m + 1):
                c.append(rng.randint(2, min(c[-1] + 1, cap)))
            if c[0] > c[-1] + 1:
                continue
        if sum(c) > total_cap:
            continue
        algebra = from_kupisch(kind, c)
        if require_nonhomog and is_homogeneous(algebra) is not None:
            continue
        return algebra


def random_algebras(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_kupisch(rng, **kwargs) for _ in range(count)]


# (n, Loewy lengths of its homogeneous blocks of global dimension n) for the
# glued chains of the benchmark's ``glued`` workload, m = 15 to 57
GLUED_CHAINS = (
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


def glued_chain(n, loewys):
    blocks = [homogeneous(Kind.ACYCLIC, n * l // 2 + 1, l) for l in loewys]
    chain = blocks[0]
    for block in blocks[1:]:
        chain = glue(chain, block)
    return chain
