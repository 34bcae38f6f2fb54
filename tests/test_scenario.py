import json

import pytest

from difftrap import parse, print_scenario, run
from difftrap.cli import main as cli_main
from difftrap.errors import ScenarioError
from difftrap.forking import builtin_scenario, scenario_corpus
from difftrap.presentation import OPAQUE

MINIMAL = """\
prime 2
derivations 1
ambient E
  gens x
  d1 x = 1
"""


def test_parse_minimal():
    s = parse(MINIMAL)
    assert s.prime == 2 and s.derivations == 1
    assert s.ambient.vars == ("x",)
    assert s.fields == {} and s.queries == []


def test_opaque_image_recorded():
    s = parse(MINIMAL.replace("d1 x = 1", "d1 x = ?"))
    assert s.ambient.image("x", 0) is OPAQUE


def test_unknown_variable_in_expression():
    bad = MINIMAL.replace("d1 x = 1", "d1 x = y + 1")
    with pytest.raises(ScenarioError) as err:
        parse(bad)
    assert "UNKNOWN" in str(err.value).upper() or "unknown" in str(err.value)


def test_parse_errors_carry_position():
    with pytest.raises(ScenarioError) as err:
        parse(MINIMAL + "nonsense line\n")
    assert err.value.line == 6
    with pytest.raises(ScenarioError) as err:
        parse("prime 9\nderivations 1\nambient E\n  gens x\n  d1 x = 1\n")
    assert err.value.kind == "BAD_PRIME"
    with pytest.raises(ScenarioError) as err:
        parse(MINIMAL + "ambient F\n  gens y\n  d1 y = 1\n")
    assert err.value.kind == "DUPLICATE_NAME"
    for query in ("perfect NOPE", "forking K nope over k compositum M order 1"):
        with pytest.raises(ScenarioError) as err:
            parse(MINIMAL + f"query {query}\n")
        assert err.value.kind == "UNKNOWN_NAME"


def test_duplicate_generator():
    with pytest.raises(ScenarioError) as err:
        parse("prime 2\nderivations 1\nambient E\n  gens x x\n  d1 x = 1\n")
    assert err.value.kind == "DUPLICATE_NAME"


def test_print_parse_roundtrip_on_builtins():
    for name, text in scenario_corpus():
        s = parse(text, name=name)
        printed = print_scenario(s)
        s2 = parse(printed, name=name)
        assert print_scenario(s2) == printed


def test_print_parse_idempotent_on_noncanonical():
    noisy = MINIMAL + "# trailing comment\nquery pindep {x + x + x} over {} in E\n"
    s = parse(noisy)
    printed = print_scenario(s)
    assert "x + x" not in printed  # canonicalized to x
    assert parse(printed).queries[0].args["elements"] == ["x"]


def test_reports_byte_identical():
    s = parse(builtin_scenario("srour-counterexample"), name="srour")
    r1 = run(s).to_json()
    r2 = run(parse(builtin_scenario("srour-counterexample"), name="srour")).to_json()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["format"] == 1
    assert payload["scenario"]["digest"].startswith("sha256:")
    statuses = {q["query"].split(" ")[0]: q["status"] for q in payload["queries"]}
    assert statuses["pindep"] == "FALSE"
    assert statuses["forking"] != "FALSE"


def test_run_reports_errors_without_aborting():
    text = (
        MINIMAL
        + "field K\n  gens u\n  embed u -> x\n  d1 u = ?\n"
        + "field G\n  gens v\n  embed v -> x\n  d1 v = 1\n"
        + "query trap K order 3\nquery perfect K\nquery constants G\n"
    )
    s = parse(text)
    report = run(s)
    assert not report.validation_failed
    statuses = [e["status"] for e in report.results]
    assert statuses[0] == "ERROR"
    assert report.results[0]["error"]["kind"] == "DEPTH_EXCEEDED"
    assert statuses[1] == "ERROR"  # perfectness needs the opaque image too
    assert statuses[2] == "TRUE"


def test_run_empty_queries():
    report = run(parse(MINIMAL))
    assert report.results == []
    assert not report.validation_failed


def test_validation_failure_blocks_queries():
    text = (
        MINIMAL
        + "field K\n  gens u\n  embed u -> x\n  d1 u = u\n"
        + "query perfect K\n"
    )
    report = run(parse(text))
    assert report.validation_failed
    assert report.results == []


def test_vanishing_denominator_fails_validation(tmp_path, capsys):
    text = MINIMAL + "field K\n  gens u\n  embed u -> x - x\n  d1 u = 1/u\nquery perfect K\n"
    report = run(parse(text))
    assert report.validation_failed and report.results == []
    embedding = report.validation["embedding(K)"]
    assert embedding["status"] == "FALSE"
    assert embedding["certificate"]["kind"] == "ZERO_DENOMINATOR"
    path = tmp_path / "zero.dt"
    path.write_text(text)
    assert cli_main(["run", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["validation"] == report.validation


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.dt"
    good.write_text(builtin_scenario("degenerate-base"))
    assert cli_main(["run", str(good), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["format"] == 1

    bad = tmp_path / "bad.dt"
    bad.write_text("prime 4\n")
    assert cli_main(["run", str(bad)]) == 2

    invalid = tmp_path / "invalid.dt"
    invalid.write_text(
        MINIMAL + "field K\n  gens u\n  embed u -> x\n  d1 u = u\nquery perfect K\n"
    )
    assert cli_main(["run", str(invalid)]) == 1


def test_cli_builtin_and_selftest(capsys):
    assert cli_main(["builtin", "example-d1-constant"]) == 0
    text = capsys.readouterr().out
    assert "query forking" in text
    assert cli_main(["builtin", "bogus"]) == 2
    capsys.readouterr()
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "selftest passed" in out


def test_order_override():
    s = parse(builtin_scenario("example-d1-free"), name="d1")
    report = run(s, order_override=1)
    trap_entries = [e for e in report.results if e["query"].startswith("trap")]
    assert trap_entries[0]["query"].endswith("order 1")
    assert trap_entries[0]["status"] == "TRUE"


def test_certificate_flag_controls_payload():
    s = parse(builtin_scenario("example-d1-constant"), name="d1c")
    bare = json.loads(run(s).to_json())
    certified = json.loads(run(s, with_certificates=True).to_json())
    assert all("certificate" not in q for q in bare["queries"])
    trap_q = [q for q in certified["queries"] if q["query"].startswith("trap")][0]
    assert "certificate" in trap_q
    assert "witness" in trap_q["certificate"]


def test_trap_size_cap_message():
    # four constant generators at p = 2: the p-basis keeps 4 and the next
    # candidate would need 2^5 p-monomials
    gens = "abcd"
    text = "prime 2\nderivations 1\nambient E\n  gens a b c d\n"
    text += "".join(f"  d1 {g} = 0\n" for g in gens)
    text += "field M\n  gens " + " ".join(g.upper() for g in gens) + "\n"
    text += "".join(f"  embed {g.upper()} -> {g}\n" for g in gens)
    text += "".join(f"  d1 {g.upper()} = 0\n" for g in gens)
    text += "query trap M order 1\n"
    report = run(parse(text))
    assert not report.validation_failed
    (entry,) = report.results
    assert entry["status"] == "ERROR"
    assert entry["error"] == {
        "kind": "SIZE_CAP",
        "message": "32 p-monomials of S exceed cap 16",
    }


def test_internal_error_in_validation_exits_3(monkeypatch, capsys):
    # embedding(M) of example-d1-constant searches an annihilator, so a
    # witness that fails re-verification makes that check an INTERNAL entry
    # of a complete report, and no query runs
    from difftrap.independence import AnnihilatorWitness

    monkeypatch.setattr(AnnihilatorWitness, "verify", lambda self: False)
    report = run(parse(builtin_scenario("example-d1-constant")))
    assert report.validation_failed and report.results == []
    assert cli_main(["builtin", "example-d1-constant", "--run", "--json"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    validation = json.loads(captured.out)["validation"]
    assert validation == report.validation
    entry = validation["embedding(M)"]
    assert entry["status"] == "ERROR"
    assert entry["error"]["kind"] == "INTERNAL"
    assert "re-verification" in entry["error"]["message"]
    assert validation["embedding(K)"]["status"] == "TRUE"
    assert cli_main(["builtin", "example-d1-constant", "--run"]) == 3
    assert "validate embedding(M): ERROR  [INTERNAL]" in capsys.readouterr().out


def test_internal_error_in_query_exits_3(monkeypatch, capsys):
    # only witnesses over an empty base (the scalar family member of the
    # trap query) fail re-verification: validation passes, and the trap and
    # forking queries end in INTERNAL entries of a complete report
    from difftrap.independence import AnnihilatorWitness

    verify = AnnihilatorWitness.verify
    monkeypatch.setattr(
        AnnihilatorWitness,
        "verify",
        lambda self: bool(self.base_elements) and verify(self),
    )
    assert cli_main(["builtin", "example-d1-constant", "--run", "--json"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(captured.out)
    assert not any(v["status"] == "FALSE" for v in report["validation"].values())
    kinds = {q["query"].split()[0]: q.get("error", {}).get("kind") for q in report["queries"]}
    assert kinds == {"trap": "INTERNAL", "forking": "INTERNAL"}
