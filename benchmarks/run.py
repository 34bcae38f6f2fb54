"""The difftrap benchmark: one closed-loop client driving the library.

One operation is one generated scenario text taken through
``scenario.parse`` -> ``scenario.run(with_certificates=True)`` ->
``Report.to_json()``, which is ``difftrap run FILE --json --certificate``
without the process start.  Operations run one after another in a single
process and thread; rounds (one pass over the workload's grid, see
workloads.py) repeat until the next round would not fit in ``--seconds``,
but an untraced run always measures its workload's MIN_ROUNDS.  Only
complete rounds are measured, so every run sees the same mix.

    python3 benchmarks/run.py --workload towers --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time on an untraced pass and half on a traced pass and prints the per-layer
metrics, per round, with the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Per
operation records (grid point, latency, verdicts, report sha256) and the
traced spans are written under ``benchmarks/out/``.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACED_ROUND_OFFSET = 1_000_000  # traced rounds never reuse untraced texts

# Rounds every untraced run measures at least, whatever --seconds allows.  The
# tail percentile of a workload is fixed by this count (workload_tail_percentile),
# so op_ms_tail means the same percentile however fast the program is.  At
# --seconds 40 these take about 0.6 s (corpus), 30 s (bernoulli) and 34 s
# (towers).  corpus stops at 15 rounds (105 operations, p90): in ten 40 s
# corpus runs on a busy 2-vCPU VM the quartiles of p90 were 10% apart, of
# p95 18% and of p99 41%.
MIN_ROUNDS = {"corpus": 15, "bernoulli": 5, "towers": 3}


class BenchError(Exception):
    """The benchmark cannot run here: no BENCHMARK.json, no sources under src/,
    or others were imported."""


def load_metrics():
    """Units of the end-to-end and of the per-layer metrics, by name, as
    BENCHMARK.json lists them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# -- set-up -------------------------------------------------------------------


def _import_library():
    """Import the package from this checkout's src/, replacing any earlier import."""
    if not (SRC / "difftrap" / "__init__.py").is_file():
        raise BenchError(f"no difftrap sources under {SRC}")
    for name in [n for n in sys.modules if n == "difftrap" or n.startswith("difftrap.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("difftrap")
    if Path(package.__file__).resolve().parent != (SRC / "difftrap").resolve():
        raise BenchError(f"imported difftrap from {package.__file__}, not from {SRC}")
    return {
        "scenario": importlib.import_module("difftrap.scenario"),
        "independence": importlib.import_module("difftrap.independence"),
    }


def setup(workload_name, seed):
    """Import the library and generate the first round, several times.

    numpy is imported before the clock starts: it is a dependency, not part
    of the program, and cannot be imported afresh.  Returns the library
    modules, the workload and the median set-up time in seconds.
    """
    import numpy  # noqa: F401

    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        lib = _import_library()
        workload = workloads.Workload(workload_name, seed)
        workload.round(0)
        times.append(time.perf_counter() - started)
    return lib, workload, statistics.median(times)


# -- one operation ------------------------------------------------------------


def check_report(report_json, answers):
    """Reasons the report is wrong, empty when it is right; and query counts.

    Wrong means: validation failed, a query errored, a query kind has no
    known answer, or a TRUE/FALSE verdict contradicts the known answer.
    INCONCLUSIVE counts as undecided, not as wrong.
    """
    report = json.loads(report_json)
    reasons = []
    for check, verdict in report["validation"].items():
        if verdict.get("status") != "TRUE":
            reasons.append(f"validation {check} is {verdict.get('status')}")
    decided = 0
    for entry in report["queries"]:
        kind = entry["query"].split(" ", 1)[0]
        status = entry["status"]
        if status == "ERROR":
            reasons.append(f"{entry['query']} errored: {entry.get('error')}")
        elif kind not in answers:
            reasons.append(f"{entry['query']} has no known answer")
        elif status in ("TRUE", "FALSE"):
            decided += 1
            if status != answers[kind]:
                reasons.append(f"{entry['query']} is {status}, expected {answers[kind]}")
    return reasons, len(report["queries"]), decided


def _untraced(span_name, fn, /, *args, **kwargs):
    return fn(*args, **kwargs)


def _operation(span, scenario_mod, op, config):
    scenario = span("scenario.parse", scenario_mod.parse, op.text, name=op.name)
    report = span("scenario.run", scenario_mod.run, scenario, config=config, with_certificates=True)
    return span("scenario.report", report.to_json)


def run_operation(lib, op, tracer=None):
    """Run one operation; returns its record (latency, verdict counts, digest)."""
    span = _untraced if tracer is None else tracer.span
    scenario_mod = lib["scenario"]
    config = lib["independence"].EngineConfig(degree_bound=op.degree)
    record = {"label": op.label, "name": op.name}
    if tracer is not None:
        tracer.begin_operation()
    started = time.perf_counter()
    try:
        text = span("bench.op", _operation, span, scenario_mod, op, config)
    except Exception as exc:  # a failing operation is counted, not fatal
        record["ms"] = (time.perf_counter() - started) * 1000.0
        record.update(queries=0, decided=0, failures=[f"raised {exc!r}"], sha256=None)
        return record
    record["ms"] = (time.perf_counter() - started) * 1000.0
    reasons, queries, decided = check_report(text, op.answers)
    record.update(
        queries=queries,
        decided=decided,
        failures=reasons,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
    return record


# -- passes and metrics -------------------------------------------------------


def measure(lib, workload, budget_s, min_rounds=1, first_round=0, tracer=None):
    """Run complete rounds while the next one is expected to fit in budget_s.

    Always runs at least min_rounds rounds.  Returns a list of per-round
    lists of operation records.
    """
    rounds = []
    started = time.perf_counter()
    index = first_round
    while True:
        ops = workload.round(index)
        round_started = time.perf_counter()
        records = [run_operation(lib, op, tracer) for op in ops]
        round_s = time.perf_counter() - round_started
        rounds.append(records)
        if tracer is not None:
            tracer.round_ends.append(len(tracer))
        index += 1
        if len(rounds) >= min_rounds and time.perf_counter() - started + round_s > budget_s:
            return rounds


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is used.
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 50.0


def workload_tail_percentile(workload):
    """The percentile op_ms_tail reports on a workload: the tail rule applied
    to the operations of its MIN_ROUNDS rounds, which every run measures."""
    return tail_percentile(MIN_ROUNDS[workload.name] * len(workload.grid))


def end_to_end(rounds, q, setup_s):
    """End-to-end metrics of an untraced pass, with notes for the table."""
    latencies = sorted(r["ms"] for rnd in rounds for r in rnd)
    queries = sum(r["queries"] for rnd in rounds for r in rnd)
    decided = sum(r["decided"] for rnd in rounds for r in rnd)
    values = {
        "ops_per_s": 1000.0 * len(latencies) / sum(latencies),
        "op_ms_p50": percentile(latencies, 50.0),
        "op_ms_tail": percentile(latencies, q),
        "decided_ratio": decided / queries if queries else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    notes = [
        f"{len(latencies)} operations in {len(rounds)} rounds; op_ms_tail is p{q:g} of "
        f"{len(latencies)} operations",
        f"decided {decided} of {queries} queries",
    ]
    return values, notes


def _mean_round_ms(rounds):
    return sum(r["ms"] for records in rounds for r in records) / len(rounds)


def per_layer(names, tracer, rounds, untraced_rounds):
    """The named per-layer metrics of a traced pass, per round.

    ``layer.<module>.self_ms`` sums the self time of the module's spans;
    ``<span>.calls``, ``.ms`` and ``.self_ms`` come from the span summary;
    any other name is one of the tracer's counters.
    """
    summary, counters = tracer.summary()
    n = len(rounds)
    values = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name == "trace.overhead_pct":
            values[name] = 100.0 * (_mean_round_ms(rounds) / _mean_round_ms(untraced_rounds) - 1.0)
            continue
        if name == "trace.spans":
            value = len(tracer)
        elif name.startswith("layer."):
            module = span.split(".")[1]
            value = sum(row["self_ms"] for s, row in summary.items() if s.split(".")[0] == module)
        elif stat in ("calls", "ms", "self_ms"):
            value = summary.get(span, {}).get(stat, 0)
        else:
            value = counters.get(name, 0)
        values[name] = value / n
    return values


# -- entry point --------------------------------------------------------------


def _write_records(path, runs):
    with open(path, "w", encoding="utf-8") as fh:
        for pass_name, rounds in runs:
            for round_index, records in enumerate(rounds):
                for record in records:
                    fh.write(json.dumps({"pass": pass_name, "round": round_index, **record}) + "\n")


def round_digest(records):
    """sha256 over the report digests of one round, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update((r["sha256"] or "none").encode("ascii"))
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        end_to_end_units, per_layer_units = load_metrics()
        lib, workload, setup_s = setup(args.workload, args.seed)
    except (BenchError, ImportError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        from tracer import Tracer

        plain = measure(lib, workload, args.seconds / 2)
        with Tracer() as tracer:
            traced = measure(
                lib, workload, args.seconds / 2, first_round=TRACED_ROUND_OFFSET, tracer=tracer
            )
        runs = [("untraced", plain), ("traced", traced)]
        units = per_layer_units
        values = per_layer(units, tracer, traced, plain)
        notes = [f"per round; traced {len(traced)} rounds, untraced {len(plain)} rounds"]
    else:
        measured = measure(lib, workload, args.seconds, MIN_ROUNDS[workload.name])
        runs = [("untraced", measured)]
        units = end_to_end_units
        computed, notes = end_to_end(measured, workload_tail_percentile(workload), setup_s)
        values = {name: computed[name] for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_records(OUT_DIR / f"{stem}.ops.jsonl", runs)
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.tsv.gz", limit=tracer.round_ends[0])

    records = [r for _, rounds in runs for rnd in rounds for r in rnd]
    failed = [r for r in records if r["failures"]]
    for r in failed[:10]:
        print(f"FAILED {r['label']} ({r['name']}): {'; '.join(r['failures'])}")
    print(f"workload {args.workload} seed {args.seed}: first-round digest "
          f"sha256:{round_digest(runs[0][1][0])}")
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name:<48} {value:>14.4f} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
