"""Tests of the benchmark itself: generators, correctness check, tail rule, tracer.

Run with ``python -m pytest benchmarks -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run as bench  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return bench._import_library()


def _small_ops(workload, seed, rounds=2):
    """Operations of the first rounds whose prime is at most 3."""
    wl = workloads.Workload(workload, seed)
    ops = [op for i in range(rounds) for op in wl.round(i)]
    return [op for op in ops if int(op.text.split()[1]) <= 3]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_parse_and_validate(lib, workload, seed):
    ops = _small_ops(workload, seed)
    assert ops
    for op in ops:
        scenario = lib["scenario"].parse(op.text, name=op.name)
        checks = lib["scenario"].validate(scenario)
        assert all(v["status"] == "TRUE" for v in checks.values()), (op.label, checks)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_operations_meet_their_known_answers(lib, workload):
    for op in _small_ops(workload, seed=3, rounds=1):
        record = bench.run_operation(lib, op)
        assert record["failures"] == [], (op.label, record["failures"])
        assert record["queries"] > 0


def test_rounds_keep_the_mix_and_never_repeat_a_text():
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, seed=5)
        rounds = [wl.round(i) for i in range(3)]
        labels = [sorted(op.label for op in ops) for ops in rounds]
        assert labels[0] == labels[1] == labels[2] == sorted(g[0] for g in wl.grid)
        texts = [op.text for ops in rounds for op in ops]
        assert len(set(texts)) == len(texts)


def test_same_seed_same_inputs():
    a = workloads.Workload("towers", seed=9).round(4)
    b = workloads.Workload("towers", seed=9).round(4)
    c = workloads.Workload("towers", seed=10).round(4)
    assert a == b
    assert [op.text for op in a] != [op.text for op in c]


def test_rename_keeps_name_order_and_parameters():
    text = "query bernoulli-perfect p=3 k=1,2\nambient E\n  gens lam lam1\n  d1 lam = lam1\n"
    out = workloads.rename(text, "zq0n1_")
    assert "p=3 k=1,2" in out
    assert "gens zq0n1_lam zq0n1_lam1" in out
    assert "d1 zq0n1_lam = zq0n1_lam1" in out
    assert "ambient zq0n1_E" in out


def test_corpus_answers_agree_with_the_selftest_table(lib):
    from difftrap.cli import _EXPECTED
    from difftrap.forking import BUILTIN_NAMES

    assert set(workloads.CORPUS_NAMES) == set(BUILTIN_NAMES)
    for name, expected in _EXPECTED.items():
        for kind, status in expected.items():
            assert workloads.CORPUS_ANSWERS[name][kind] == status, (name, kind)


def test_tower_degrees_cover_the_grid():
    for shape in workloads.TOWER_SHAPES:
        for order in workloads.TOWER_ORDERS:
            degrees = {
                workloads.tower_degree(shape, p, order) for p in workloads.TOWER_PRIMES
            }
            assert degrees == set(workloads.TOWER_DEGREES)
    at7 = [d for shape, p, _, d in workloads.TOWER_GRID if p == 7]
    assert sorted(at7) == [5, 5, 6, 6, 7, 7]


def test_wrong_known_answer_is_counted_as_failed(lib):
    op = next(op for op in _small_ops("towers", seed=1) if op.label.startswith("d1-constant"))
    assert bench.run_operation(lib, op)["failures"] == []
    flipped = dict(op.answers, pindep="TRUE")
    wrong = workloads.Operation(op.label, op.name, op.text, op.degree, flipped)
    record = bench.run_operation(lib, wrong)
    assert any("expected TRUE" in reason for reason in record["failures"])


def test_inconclusive_is_undecided_not_wrong():
    report = {
        "validation": {"commutation(E)": {"status": "TRUE"}},
        "queries": [
            {"query": "trap M order 2", "status": "INCONCLUSIVE", "bound": 5},
            {"query": "forking K L over k compositum M order 2", "status": "TRUE"},
            {"query": "pindep {x} over {y} in E", "status": "ERROR", "error": {}},
        ],
    }
    answers = {"trap": "TRUE", "forking": "TRUE", "pindep": "FALSE"}
    reasons, queries, decided = bench.check_report(json.dumps(report), answers)
    assert (queries, decided) == (3, 1)
    assert len(reasons) == 1 and "errored" in reasons[0]


def test_raising_operation_is_counted_as_failed(lib):
    op = workloads.Operation("broken", "broken", "prime 4\n", 6, {})
    record = bench.run_operation(lib, op)
    assert record["failures"] and record["failures"][0].startswith("raised")


@pytest.mark.parametrize("n", [1, 19, 20, 39, 40, 54, 99, 100, 199, 200, 999, 1000, 9999, 10000, 10**6])
def test_tail_percentile_rule(n):
    q = bench.tail_percentile(n)
    higher = [x for x in bench.TAIL_LADDER if x > q]
    if n >= 20:
        assert n * (100 - q) / 100 >= 10
    else:
        assert q == 50.0
    for x in higher:
        assert n * (100 - x) / 100 < 10


def test_percentile_interpolates():
    values = list(range(101))
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 99.5) == pytest.approx(99.5)
    assert bench.percentile([3.0], 75) == 3.0


def test_tracer_restores_every_binding(lib):
    # the package re-exports the function constants() under the module's name
    constants_mod = sys.modules["difftrap.constants"]
    kernel = sys.modules["difftrap.linalg"].kernel
    op = _small_ops("towers", seed=2)[0]
    with bench_tracer.Tracer() as tracer:
        assert constants_mod.kernel is not kernel
        assert bench_tracer.leftover_wrappers()
        record = bench.run_operation(lib, op, tracer)
    assert record["failures"] == []
    assert bench_tracer.leftover_wrappers() == []
    assert constants_mod.kernel is kernel
    summary, counters = tracer.summary()
    assert summary["bench.op"]["calls"] == 1
    assert summary["linalg.kernel"]["calls"] > 0
    assert summary["bench.op"]["self_ms"] <= summary["bench.op"]["ms"]


def test_tracer_restores_bindings_after_an_error(lib):
    scenario_mod = sys.modules["difftrap.scenario"]
    validate = scenario_mod.validate
    with pytest.raises(RuntimeError):
        with bench_tracer.Tracer():
            raise RuntimeError("boom")
    assert bench_tracer.leftover_wrappers() == []
    assert scenario_mod.validate is validate


def test_self_time_subtracts_children():
    t = bench_tracer.Tracer()

    def inner():
        return 1

    def outer():
        return t.span("inner", inner) + t.span("inner", inner)

    t.span("outer", outer)
    summary, _ = t.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_ms"] == pytest.approx(
        summary["outer"]["ms"] - summary["inner"]["ms"]
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_min_rounds_leave_ten_operations_beyond_the_tail(workload):
    wl = workloads.Workload(workload, seed=1)
    n = bench.MIN_ROUNDS[workload] * len(wl.grid)
    q = bench.workload_tail_percentile(wl)
    assert q > 50.0
    assert n * (100 - q) / 100 >= 10


def test_towers_tail_percentile_does_not_depend_on_the_round_count():
    wl = workloads.Workload("towers", seed=1)
    q = bench.workload_tail_percentile(wl)
    assert q == 75.0
    for n_rounds in (2, 3, 4):
        rounds = [
            [{"ms": float(i), "queries": 1, "decided": 1} for i in range(len(wl.grid))]
            for _ in range(n_rounds)
        ]
        values, notes = bench.end_to_end(rounds, q, setup_s=0.1)
        latencies = sorted(r["ms"] for rnd in rounds for r in rnd)
        assert values["op_ms_tail"] == bench.percentile(latencies, 75.0)
        assert "p75 of" in notes[0]


def test_measure_runs_at_least_the_minimum_rounds(lib):
    wl = workloads.Workload("corpus", seed=1)
    rounds = bench.measure(lib, wl, budget_s=1e-6, min_rounds=3)
    assert len(rounds) == 3
