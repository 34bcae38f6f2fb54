import pytest

from difftrap import (
    SubfieldDecl,
    builtin_scenario,
    check_acf_independence,
    check_forking,
    parse,
    run,
    scenario_corpus,
)
from difftrap.errors import BadParameterError

from conftest import presentation


def tower(amb, name, gens):
    """SubfieldDecl with d u = d(embed(u)) for each generator."""
    from difftrap.presentation import derive

    images = {}
    embeds = {}
    for var, expr in gens.items():
        target = amb.parse(expr)
        embeds[var] = target
        images[var] = str(derive(target, 0, amb))
    pres = presentation(name, amb.p, images)
    return SubfieldDecl(name, pres, embeds)


def test_acf_free_generators():
    amb = presentation("E", 2, {"a": "0", "b": "0"})
    v = check_acf_independence([amb.parse("a")], [amb.parse("b")], [], amb)
    assert v.is_true


def test_acf_equal_fields_false():
    amb = presentation("E", 2, {"x": "0"})
    v = check_acf_independence([amb.parse("x")], [amb.parse("x")], [], amb)
    assert v.is_false
    assert v.certificate["witnesses"]


def test_acf_frobenius_shift():
    amb = presentation("E", 2, {"x": "0", "y": "0"})
    v = check_acf_independence(
        [amb.parse("x")], [amb.parse("x + y^2")], [], amb
    )
    # independent, certified through the root closure
    assert not v.is_false
    assert v.status in ("TRUE", "INCONCLUSIVE")


def d1_scenario(free=True):
    return parse(
        builtin_scenario("example-d1-free" if free else "example-d1-constant"),
        name="d1",
    )


def run_forking(scenario):
    q = [q for q in scenario.queries if q.kind == "forking"][0]
    return check_forking(
        scenario.field_decl(q.args["k"]),
        scenario.field_decl(q.args["K"]),
        scenario.field_decl(q.args["L"]),
        scenario.field_decl(q.args["M"]),
        scenario.ambient,
        q.args["order"],
    )


def test_forking_d1_free():
    fv = run_forking(d1_scenario(free=True))
    assert fv.trap_part.is_true
    assert not fv.overall.is_false
    assert fv.diagnostics["perfect(K)"] is True
    assert fv.diagnostics["perfect(M)"] is False


def test_forking_d1_constant():
    fv = run_forking(d1_scenario(free=False))
    assert fv.trap_part.is_false
    assert fv.overall.is_false
    assert fv.overall.certificate["failing_part"] == "trap"


def test_forking_degenerate_base():
    scenario = parse(builtin_scenario("degenerate-base"), name="deg")
    fv = run_forking(scenario)
    assert fv.overall.is_true


def test_forking_mismatched_compositum():
    amb = presentation("E", 2, {"a": "1", "b": "0"})
    k = tower(amb, "k", {})
    K = tower(amb, "K", {"u": "a"})
    L = tower(amb, "L", {"w": "b"})
    M = tower(amb, "M", {"u": "a"})  # forgot L's generator
    with pytest.raises(BadParameterError):
        check_forking(k, K, L, M, amb, 1)


def test_builtin_unknown_name():
    with pytest.raises(BadParameterError):
        builtin_scenario("no-such-scenario")
    with pytest.raises(BadParameterError):
        builtin_scenario("bernoulli-pair(4,1,1)")


def test_corpus_runs_clean():
    corpus = scenario_corpus()
    assert len(corpus) >= 6
    for name, text in corpus:
        report = run(parse(text, name=name))
        assert not report.validation_failed, name
        for entry in report.results:
            assert entry["status"] in ("TRUE", "FALSE", "INCONCLUSIVE"), (
                name,
                entry,
            )


def swap_forking_query(text):
    out = []
    for line in text.splitlines():
        if line.startswith("query forking"):
            parts = line.split()
            parts[2], parts[3] = parts[3], parts[2]
            line = " ".join(parts)
        out.append(line)
    return "\n".join(out) + "\n"


def test_forking_symmetry_over_corpus():
    for name, text in scenario_corpus():
        if "query forking" not in text:
            continue
        direct = run(parse(text, name=name))
        swapped = run(parse(swap_forking_query(text), name=name + "-swapped"))
        d = {e["query"]: e["status"] for e in direct.results}
        s = {e["query"]: e["status"] for e in swapped.results}
        dk = [v for q, v in d.items() if q.startswith("forking")]
        sk = [v for q, v in s.items() if q.startswith("forking")]
        assert dk == sk, name


NESTED = """\
# three generic tower solutions; L sits inside the larger L1
prime 2
derivations 1
ambient E
  gens a b c
  d1 a = a^3
  d1 b = b^5
  d1 c = c^3
field k
  gens
field K
  gens u
  embed u -> a
  d1 u = u^3
field L
  gens w
  embed w -> b
  d1 w = w^5
field L1
  gens w v
  embed w -> b
  embed v -> c
  d1 w = w^5
  d1 v = v^3
field M
  gens u w
  embed u -> a
  embed w -> b
  d1 u = u^3
  d1 w = w^5
field M1
  gens u w v
  embed u -> a
  embed w -> b
  embed v -> c
  d1 u = u^3
  d1 w = w^5
  d1 v = v^3
query forking K L1 over k compositum M1 order 1
query forking K L over k compositum M order 1
"""


def test_monotonicity_surrogate():
    # if the checker passes K against the larger L1, the induced smaller
    # query must not come out FALSE
    report = run(parse(NESTED, name="nested"))
    big, small = [e["status"] for e in report.results]
    assert big == "TRUE"
    assert small != "FALSE"


def test_conjunction_soundness_over_corpus():
    # overall TRUE only with both certified sub-verdicts
    for name, text in scenario_corpus():
        scenario = parse(text, name=name)
        fqs = [q for q in scenario.queries if q.kind == "forking"]
        if not fqs:
            continue
        fv = run_forking(scenario)
        if fv.overall.is_true:
            assert fv.acf_part.is_true and fv.trap_part.is_true, name
