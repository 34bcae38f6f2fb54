"""Command line interface: run scenario files, emit builtins, self-test.

Exit codes: 0 when every query resolved (whatever the verdicts), 1 on
validation failure, 2 on parse failure, 3 on an internal error (a result
failed its own re-verification), in validation or in a query.
"""

import argparse
import sys
from pathlib import Path

from .errors import BadParameterError, InternalError, ScenarioError
from .forking import BUILTIN_NAMES, builtin_scenario, scenario_corpus
from .independence import EngineConfig
from .scenario import parse, print_scenario, run


def _config_from_args(args):
    kwargs = {}
    if getattr(args, "oracle_degree", None) is not None:
        kwargs["degree_bound"] = args.oracle_degree
    if getattr(args, "pure_power_derivatives", False):
        kwargs["mixed_derivatives"] = False
    return EngineConfig(**kwargs)


def _cmd_run(args):
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    return _run_text(text, Path(args.file).stem, args)


def _run_text(text, name, args):
    try:
        scenario = parse(text, name=name)
    except ScenarioError as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    report = run(
        scenario,
        config=config,
        with_certificates=args.certificate,
        with_timings=args.timings,
        order_override=args.order,
    )
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_table())
    if _has_internal_error(report):
        return 3
    if report.validation_failed:
        return 1
    return 0


def _has_internal_error(report):
    return any(
        entry.get("error", {}).get("kind") == InternalError.kind
        for entry in [*report.validation.values(), *report.results]
    )


def _cmd_builtin(args):
    try:
        text = builtin_scenario(args.name)
    except BadParameterError as exc:
        print(f"{exc}", file=sys.stderr)
        print("available: " + ", ".join(BUILTIN_NAMES), file=sys.stderr)
        return 2
    if args.run:
        return _run_text(text, args.name, args)
    sys.stdout.write(text)
    return 0


_EXPECTED = {
    "example-d1-free": {"trap": "TRUE", "forking": "TRUE"},
    "example-d1-constant": {"trap": "FALSE", "forking": "FALSE"},
    "srour-counterexample": {"pindep": "FALSE"},
    "degenerate-base": {"perfect": "TRUE", "forking": "TRUE"},
    "bernoulli-pair(2,1,1)": {"perfect": "TRUE", "forking": "TRUE"},
    "bernoulli-pair(2,1,2)": {
        "perfect": "TRUE",
        "pindep": "TRUE",
        "forking": "TRUE",
        "bernoulli-perfect": "TRUE",
    },
    "bernoulli-pair(3,1,2)": {"perfect": "TRUE", "forking": "TRUE"},
}


def _cmd_selftest(args):
    config = _config_from_args(args)
    failures = 0
    internal = False
    for name, text in scenario_corpus():
        scenario = parse(text, name=name)
        report = run(scenario, config=config)
        internal = internal or _has_internal_error(report)
        if report.validation_failed:
            print(f"[FAIL] {name}: validation failed")
            failures += 1
            continue
        expected = _EXPECTED.get(name, {})
        statuses = {}
        for entry in report.results:
            kind = entry["query"].split(" ", 1)[0]
            statuses.setdefault(kind, entry["status"])
            if entry["status"] == "ERROR":
                print(f"[FAIL] {name}: {entry['query']} errored: {entry['error']}")
                failures += 1
        ok = True
        for kind, want in expected.items():
            got = statuses.get(kind)
            if got != want:
                print(f"[FAIL] {name}: {kind} is {got}, expected {want}")
                failures += 1
                ok = False
        if ok:
            summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
            print(f"[PASS] {name}: {summary}")
    if failures:
        print(f"{failures} selftest failure(s)")
        return 3 if internal else 1
    print("selftest passed")
    return 0


def _add_engine_flags(sub):
    sub.add_argument("--json", action="store_true", help="emit the JSON report")
    sub.add_argument(
        "--certificate", action="store_true", help="attach certificates to the report"
    )
    sub.add_argument(
        "--timings", action="store_true", help="include per-query timings (breaks byte-identical reports)"
    )
    sub.add_argument("--order", type=int, default=None, help="override every query order")
    sub.add_argument(
        "--oracle-degree", type=int, default=None, help="annihilator search degree bound"
    )
    sub.add_argument(
        "--pure-power-derivatives",
        action="store_true",
        help="restrict derivative families to iterates of single derivations",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="difftrap",
        description="exact differential-algebra workbench over F_p",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    _add_engine_flags(p_run)
    p_run.set_defaults(func=_cmd_run)
    p_builtin = subs.add_parser("builtin", help="emit (or run) a builtin scenario")
    p_builtin.add_argument("name")
    p_builtin.add_argument("--run", action="store_true", help="run instead of printing")
    _add_engine_flags(p_builtin)
    p_builtin.set_defaults(func=_cmd_builtin)
    p_self = subs.add_parser("selftest", help="run the builtin corpus with expectations")
    _add_engine_flags(p_self)
    p_self.set_defaults(func=_cmd_selftest)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error [{exc.kind}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
