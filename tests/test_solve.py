"""Decision procedure: status correctness against the oracle, witness
normalization and determinism, pruning agreement, budgets, parallel mode."""

import json
import os
import random
import signal
import time

import pytest

from expodio import (
    NumberField,
    ResourceLimitExceeded,
    SearchLimits,
    TooManyVariables,
    decide,
    oracle_search,
    parse_system,
    verify,
)
from expodio.solve import SAT, UNSAT, prepare
from expodio.solve import _chunks, _fork_map
from helpers import (
    P_I,
    P_MINUS_ONE,
    P_SQRT2,
    P_THREE_HALVES,
    P_TWO,
    multi_base_system,
    system_over,
)

TWO = NumberField(P_TWO)


def nonhom(coeffs, rhs, poly=P_TWO):
    k = len(coeffs)
    doc = {
        "vars": k,
        "bases": [{"min_poly": poly}],
        "equations": [
            {"base": 0, "coeffs": [[str(c)] for c in coeffs], "rhs": [str(rhs)]}
        ],
    }
    return parse_system(json.dumps(doc))


def test_decide_power_equation():
    result = decide(nonhom([1], 4))
    assert result.status == SAT
    assert result.witness.entries == (2,)
    assert result.stats.box_limit >= 1


def test_decide_sum_of_ones():
    result = decide(nonhom([1, 1], 2))
    assert result.status == SAT
    assert result.witness.entries == (0, 0)


def test_decide_five_as_sum_of_two_powers():
    # 1 + 4 = 5 is the only way: witness (0, 2) or (2, 0); lexicographic
    # enumeration of the homogenized box yields (0, 2)
    result = decide(nonhom([1, 1], 5))
    assert result.status == SAT
    assert sorted(result.witness.entries) == [0, 2]
    assert verify(nonhom([1, 1], 5), result.witness)


def test_decide_unsat():
    # 2^x1 + 2^x2 = 7 has no solution (7 is not a sum of two powers of 2)
    assert decide(nonhom([1, 1], 7)).status == UNSAT


def test_witness_in_box_for_homogeneous():
    system = system_over(TWO, [[1, -2]])
    result = decide(system)
    assert result.status == SAT
    assert all(0 <= x <= result.stats.box_limit for x in result.witness.entries)


def test_witness_is_lex_least_in_box():
    system = system_over(TWO, [[1, -1]])
    result = decide(system)
    box = result.stats.box_limit
    all_solutions = [s.entries for s in oracle_search(system, 0, box)]
    assert result.witness.entries == min(all_solutions)


def test_decide_deterministic():
    system = nonhom([1, 1, -1], 0)
    first = decide(system)
    second = decide(system)
    assert first.status == second.status
    assert first.witness == second.witness
    assert first.stats.candidates_tested == second.stats.candidates_tested


def test_oracle_diagonal():
    system = system_over(TWO, [[1, -1]])
    sols = oracle_search(system, -3, 3)
    assert [s.entries for s in sols] == [(a, a) for a in range(-3, 4)]


def test_oracle_simple_power():
    sols = oracle_search(nonhom([1], 4), 0, 5)
    assert [s.entries for s in sols] == [(2,)]


def test_oracle_partition_encoding():
    from expodio import PartitionInstance, encode_partition

    system = encode_partition(PartitionInstance((1, 2, 3)), 2)
    sols = oracle_search(system, 0, 1)
    assert (0, 0, 1) in [s.entries for s in sols]


def test_oracle_budget():
    system = system_over(TWO, [[1, -1]])
    with pytest.raises(ResourceLimitExceeded):
        oracle_search(system, -100, 100, SearchLimits(max_candidates=100))


def test_decide_budget_exhaustion_is_an_error():
    # UNSAT instance with a tiny candidate budget: must raise, never report
    # UNSAT without having swept the box
    system = nonhom([1, 1], 7)
    with pytest.raises(ResourceLimitExceeded):
        decide(system, SearchLimits(max_candidates=10))


def test_decide_sat_within_tiny_budget():
    # the witness of 2^x = 1 appears at the very first candidates
    system = nonhom([1], 1)
    result = decide(system, SearchLimits(max_candidates=12))
    assert result.status == SAT


def test_too_many_variables():
    system = system_over(TWO, [[1] * 12 + [-1]], num_vars=13)
    with pytest.raises(TooManyVariables):
        decide(system)


def test_pruning_agreement():
    rng = random.Random(71)
    fields = [TWO, NumberField(P_THREE_HALVES), NumberField(P_MINUS_ONE), NumberField(P_SQRT2)]
    for trial in range(25):
        field = rng.choice(fields)
        k = rng.randint(1, 2)
        coeffs = [rng.choice([c for c in range(-4, 5) if c]) for _ in range(k)]
        rhs = rng.randint(-4, 4)
        system = system_over(field, [coeffs], rhs=[rhs] if rhs else None, num_vars=k)
        pruned = decide(system)
        plain = decide(system, prune=False)
        assert pruned.status == plain.status
        assert pruned.witness == plain.witness  # lexicographic in both cases


def test_pruned_sweep_finds_identical_solution_sets():
    from expodio.solve import _run_search, prepare

    rng = random.Random(313)
    fields = [TWO, NumberField(P_THREE_HALVES), NumberField(P_I), NumberField(P_SQRT2)]
    done = 0
    while done < 15:
        field = rng.choice(fields)
        k = rng.randint(1, 2)
        coeffs = [rng.choice([c for c in range(-3, 4) if c]) for _ in range(k)]
        rhs = rng.choice([0, 0, rng.randint(-3, 3)])
        system = system_over(field, [coeffs], rhs=[rhs] if rhs else None, num_vars=k)
        _, work, report = prepare(system)
        limits = SearchLimits(max_candidates=10**6, max_seconds=30)
        try:
            with_prune, _, _ = _run_search(work, report.box_limit, limits, collect_all=True)
            without, _, _ = _run_search(
                work, report.box_limit, limits, prune=False, collect_all=True
            )
        except ResourceLimitExceeded:
            continue
        assert with_prune == without
        done += 1


def test_decide_matches_oracle_on_small_corpus():
    rng = random.Random(81)
    fields = [TWO, NumberField(P_MINUS_ONE), NumberField(P_I), NumberField(P_THREE_HALVES)]
    checked = 0
    for _ in range(40):
        field = rng.choice(fields)
        k = rng.randint(1, 2)
        coeffs = [rng.choice([c for c in range(-3, 4) if c]) for _ in range(k)]
        hom = rng.random() < 0.5
        rhs = [rng.randint(-3, 3)] if not hom else None
        system = system_over(field, [coeffs], rhs=rhs, num_vars=k)
        result = decide(system)
        bound = result.stats.box_limit + 5
        sols = oracle_search(system, -bound, bound, SearchLimits(max_candidates=10**7))
        assert (result.status == SAT) == bool(sols)
        checked += 1
    assert checked == 40


def test_mixed_base_system_decision():
    fields = [NumberField(P_MINUS_ONE), NumberField(P_TWO)]
    system = multi_base_system(fields, [(0, [1, 1], 0), (1, [2, -1], 0)], 2)
    result = decide(system)
    assert result.status == SAT
    assert verify(system, result.witness)
    assert result.witness.entries == (0, 1)


def test_box_override():
    system = nonhom([1], 4)
    result = decide(system, box_override=3)
    assert result.status == SAT
    # an override below any witness makes the search miss it (and UNSAT under
    # an uncertified box is exactly what the CLI warns about)
    forced = decide(system, box_override=1)
    assert forced.status == UNSAT


def test_parallel_budget_exhaustion_raises():
    system = nonhom([1, 1], 7)  # UNSAT: the sweep must finish or fail loudly
    with pytest.raises(ResourceLimitExceeded):
        decide(system, SearchLimits(max_candidates=8), jobs=2)


def test_enumerate_budget_exhaustion_raises():
    from expodio import enumerate_semilinear

    system = system_over(TWO, [[1, -1]])
    with pytest.raises(ResourceLimitExceeded):
        enumerate_semilinear(system, SearchLimits(max_candidates=3))


def test_parallel_matches_serial():
    cases = [
        nonhom([1, 1], 5),
        nonhom([1, 1], 7),
        system_over(TWO, [[1, -2]]),
        system_over(NumberField(P_SQRT2), [[1, 1]]),
    ]
    for system in cases:
        serial = decide(system)
        parallel = decide(system, jobs=3)
        assert serial.status == parallel.status
        if parallel.status == SAT:
            assert verify(system, parallel.witness)


def test_mixed_homogeneous_rows():
    # one row already homogeneous, one not: homogenization gives that row a
    # zero coefficient in the auxiliary column
    fields = [NumberField(P_TWO), NumberField([-3, 1])]
    system = multi_base_system(fields, [(0, [1, -1], 0), (1, [1, 1], 6)], 2)
    result = decide(system)
    assert result.status == SAT
    assert result.witness.entries == (1, 1)
    sols = oracle_search(system, -5, 5)
    assert [s.entries for s in sols] == [(1, 1)]


def test_decide_negative_only_solution():
    # 4 * 2^x = 2 forces x = -1; the witness comes out of dehomogenization
    system = nonhom([4], 2)
    result = decide(system)
    assert result.status == SAT
    assert result.witness.entries == (-1,)


def test_decide_matches_oracle_wider_fuzz():
    rng = random.Random(1009)
    polys = [P_TWO, [-3, 1], [2, 1], P_THREE_HALVES, P_MINUS_ONE, P_I, P_SQRT2,
             [-1, -1, 1]]
    done = 0
    while done < 60:
        n_eqs = rng.choice([1, 1, 2])
        names = rng.sample(range(len(polys)), k=n_eqs)
        fields = [NumberField(polys[i]) for i in names]
        k = rng.randint(1, 2)
        entries = []
        for idx, field in enumerate(fields):
            row = [rng.randint(-4, 4) for _ in range(k)]
            rhs = rng.choice([0, 0, rng.randint(-4, 4)])
            entries.append((idx, row, rhs))
        try:
            system = multi_base_system(fields, entries, k)
        except Exception:
            continue
        try:
            result = decide(system, SearchLimits(max_candidates=10**6, max_seconds=30))
        except ResourceLimitExceeded:
            continue
        bound = min(result.stats.box_limit + 5, 40)
        sols = oracle_search(system, -bound, bound, SearchLimits(max_candidates=10**7))
        if result.status == SAT:
            assert verify(system, result.witness)
            if all(abs(x) <= bound for x in result.witness.entries):
                assert sols
        else:
            assert not sols
        done += 1


def test_prepare_pipeline_shape():
    system = nonhom([1, 1], 5)
    homog, work, report = prepare(system)
    assert homog.has_aux
    assert work.num_vars == 3
    assert work.is_homogeneous()
    assert work.has_integer_coords()
    assert report.box_limit >= report.modulus >= 1


def test_worker_count_capped_without_starting_processes():
    cpus = os.cpu_count() or 1
    chunks = _chunks(10, 10**9)
    assert len(chunks) == min(10, cpus)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(10))
    assert len(_chunks(10**9, 10**9)) == cpus


def test_dead_worker_raises():
    def task(chunk, cancel):
        if 1 in chunk:
            os._exit(1)
        return list(chunk)

    def hung(signum, frame):
        raise TimeoutError("the parent waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="without a result"):
            _fork_map(task, [range(0, 1), range(1, 2)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 10
