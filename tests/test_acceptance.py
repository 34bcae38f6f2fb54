"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is exact arithmetic, nothing is stochastic except where a
criterion explicitly calls for fuzzing, and those use a fixed seed.
"""

import random
import time

import pytest

from difftrap import (
    BaseSpec,
    SubfieldDecl,
    bernoulli_perfectness,
    builtin_scenario,
    constants,
    derive,
    find_annihilator,
    leibniz_reduce,
    p_independent,
    parse,
    parse_expr,
    power_map_check,
    print_scenario,
    run,
    scenario_corpus,
    trdeg,
    verify_pmonomial_derivative,
)
from difftrap.errors import InapplicableError
from difftrap.independence import certified_trdeg, jacobian, root_closure
from difftrap.linalg import rank
from difftrap.pdecomp import p_decompose
from difftrap.rational import RationalElement, substitute

from conftest import presentation, random_element


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


# -- witness re-verification helpers ---------------------------------------


def reverify_combination(cert, p):
    """p-linear dependence: sum of gamma^p * element * base_factor is 0."""
    total = RationalElement.zero(p)
    nontrivial = False
    for part in cert["combination"]:
        gamma = parse_expr(part["gamma"], p)
        if not gamma.is_zero():
            nontrivial = True
        total = total + (gamma**p) * parse_expr(part["element"], p) * parse_expr(
            part["base_factor"], p
        )
    return nontrivial and total.is_zero()


def reverify_annihilator(witness, p, taken_names):
    """Annihilator dicts carry element strings plus a polynomial over the
    blocks b1.. / y1..; it must vanish on the values and stay nonzero after
    substituting only the base block."""
    base = [parse_expr(s, p) for s in witness["base"]]
    dep = [parse_expr(s, p) for s in witness["dependent"]]
    block = {f"b{i + 1}": base[i] for i in range(len(base))}
    ynames = [f"y{j + 1}" for j in range(len(dep))]
    poly = parse_expr(witness["polynomial"], p, allowed_vars=set(block) | set(ynames))
    full = substitute(poly, {**block, **{n: e for n, e in zip(ynames, dep)}})
    if not full.is_zero():
        return False
    fresh = {}
    for j, n in enumerate(ynames):
        name = f"indet_{j}"
        while name in taken_names:
            name += "_"
        fresh[n] = RationalElement.var(p, name)
    partial_sub = substitute(poly, {**block, **fresh})
    return not partial_sub.is_zero()


def extract_false_witnesses(entry):
    """Yield (kind, payload) pairs for every FALSE certificate in a query."""
    cert = entry.get("certificate") or {}
    if entry["status"] != "FALSE":
        return
    if entry["query"].startswith("pindep"):
        yield "combination", cert
    elif entry["query"].startswith("trap"):
        yield "annihilator", cert["witness"]["witness"]
    elif entry["query"].startswith("forking"):
        overall = cert["overall"]["certificate"]
        if overall.get("failing_part") == "trap":
            yield "annihilator", cert["trap"]["certificate"]["witness"]["witness"]
        else:
            yield "acf-witnesses", cert["acf"]["certificate"]


def extract_twisted_witnesses(node):
    """Yield every witness listed under a ``twisted_witnesses`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "twisted_witnesses":
                yield from value
            else:
                yield from extract_twisted_witnesses(value)
    elif isinstance(node, list):
        for value in node:
            yield from extract_twisted_witnesses(value)


def test_criterion_1_decomposition_roundtrip(rng):
    worst = 0.0
    count = 0
    for i in range(1000):
        p = (2, 3, 5)[i % 3]
        nvars = 1 + (i % 3)
        variables = ["x", "y", "z"][:nvars]
        f = random_element(rng, p, variables, max_degree=6)
        started = time.perf_counter()
        d = p_decompose(f, variables)
        ok = d.reconstruct() == f
        worst = max(worst, time.perf_counter() - started)
        if not ok:
            report(1, False, f"roundtrip failed on {f}")
        count += 1
    report(
        1,
        count == 1000 and worst < 5.0,
        f"1000/1000 exact decomposition roundtrips (worst case {worst:.2f}s)",
    )


def test_criterion_2_constants_kernel():
    ok = True
    for p in (2, 3, 5):
        pres = presentation("line", p, {"x": "1"})
        res = constants(pres)
        ok &= res.dim == 1 and res.perfect
        for c in res.kernel_basis:
            ok &= derive(c, 0, pres).is_zero()
    mixed = constants(presentation("plane", 2, {"x": "1", "y": "0"}))
    for c in mixed.kernel_basis:
        ok &= derive(c, 0, mixed.presentation).is_zero()
    report(2, ok, "constants kernels differentiate to zero; d/dx line is perfect")


def test_criterion_3_bernoulli_perfectness():
    ok = True
    checked = 0
    for p in (2, 3):
        for ks in ([1], [2], [1, 1], [1, 2], [2, 1], [2, 2]):
            v = bernoulli_perfectness(p, ks)
            ok &= v.is_true and v.certificate["constants_dim"] == 1
            checked += 1
    report(3, ok, f"differential perfectness for all {checked} tower specs")


def test_criterion_4_pmonomial_identity():
    ok = True
    checked = 0
    for p in (2, 3):
        for k1 in (1, 2):
            for a1 in range(p):
                ok &= verify_pmonomial_derivative(p, [a1], [k1]).is_true
                checked += 1
                for k2 in (1, 2):
                    for a2 in range(p):
                        ok &= verify_pmonomial_derivative(p, [a1, a2], [k1, k2]).is_true
                        checked += 1
    report(4, ok, f"derivative identity exhaustive over {checked} p-monomials")


def test_criterion_5_leibniz_reduction():
    ok = True
    checked = 0
    for p in (2, 3, 5):
        for n in range(-7, 8):
            applicable = (n - 1) % p != 0
            try:
                _, v = leibniz_reduce(p, n)
                ok &= applicable and v.is_true
            except InapplicableError:
                ok &= not applicable
            checked += 1
    report(5, ok, f"reduction to d(X) = 1 verified over {checked} (p, n) pairs")


def test_criterion_6_power_map():
    ok = True
    checked = 0
    for p in (2, 3):
        for k in (1, 2):
            for m in range(1, 6):
                if m % p == 0:
                    continue
                ok &= power_map_check(p, k, m).is_true
                checked += 1
    report(6, ok, f"power map solutions verified in {checked} cases")


def test_criterion_7_d1_both_branches():
    from difftrap.forking import builtin_scenario

    const = run(
        parse(builtin_scenario("example-d1-constant"), name="d1c"),
        with_certificates=True,
    )
    forking_entry = [
        e for e in const.results if e["query"].startswith("forking")
    ][0]
    cert = forking_entry["certificate"]
    trap_witness_ok = False
    if forking_entry["status"] == "FALSE":
        trap_cert = cert["trap"]["certificate"]
        members = trap_cert.get("family", [])
        trap_witness_ok = any(
            m["root"] == "lam" and m["value"] == "0" for m in members
        )
    free = run(parse(builtin_scenario("example-d1-free"), name="d1f"))
    trap_entry = [e for e in free.results if e["query"].startswith("trap")][0]
    free_fork = [e for e in free.results if e["query"].startswith("forking")][0]
    ok = (
        forking_entry["status"] == "FALSE"
        and trap_witness_ok
        and trap_entry["status"] == "TRUE"
        and free_fork["status"] != "FALSE"
    )
    report(
        7,
        ok,
        "constant branch forking FALSE with witness d(lam) = 0; "
        "free branch trap TRUE at order 2, overall not FALSE",
    )


def test_criterion_8_srour_scenario():
    amb = presentation("E", 2, {"x": "1", "y": None})
    v = p_independent([amb.parse("x")], BaseSpec([amb.parse("x + y^2")]), amb)
    witness_ok = v.is_false and reverify_combination(v.certificate, 2)
    lower, t = trdeg(
        [amb.parse("x"), amb.parse("x + y^2")], BaseSpec([]), amb, degree=6
    )
    degree_ok = t.status in ("TRUE", "INCONCLUSIVE") and (
        not t.is_inconclusive or t.bound == 6
    )
    report(
        8,
        witness_ok and degree_ok,
        f"p-independence FALSE with re-verified witness; trdeg verdict {t.describe()}",
    )


def test_criterion_11_checker_properties():
    corpus = scenario_corpus()
    ok = len(corpus) >= 6
    swapped_checked = 0
    witnesses_checked = 0
    for name, text in corpus:
        scenario = parse(text, name=name)
        direct = run(scenario, with_certificates=True)
        ok &= not direct.validation_failed
        # symmetry of the forking verdict under swapping K and L
        if "query forking" in text:
            swapped_lines = []
            for line in text.splitlines():
                if line.startswith("query forking"):
                    parts = line.split()
                    parts[2], parts[3] = parts[3], parts[2]
                    line = " ".join(parts)
                swapped_lines.append(line)
            swapped = run(
                parse("\n".join(swapped_lines) + "\n", name=name + "-sw"),
                with_certificates=True,
            )
            direct_statuses = [
                e["status"] for e in direct.results if e["query"].startswith("forking")
            ]
            swapped_statuses = [
                e["status"] for e in swapped.results if e["query"].startswith("forking")
            ]
            ok &= direct_statuses == swapped_statuses
            swapped_checked += 1
        # every FALSE verdict's witness re-verifies from its certificate
        p = scenario.prime
        taken = set(scenario.ambient.vars)
        for entry in direct.results:
            for kind, payload in extract_false_witnesses(entry):
                if kind == "combination":
                    ok &= reverify_combination(payload, p)
                elif kind == "annihilator":
                    ok &= reverify_annihilator(payload, p, taken)
                else:
                    ok &= bool(payload.get("witnesses"))
                witnesses_checked += 1
    report(
        11,
        ok and swapped_checked >= 4 and witnesses_checked >= 2,
        f"symmetry on {swapped_checked} forking scenarios over {len(corpus)} "
        f"builtins; {witnesses_checked} FALSE witnesses re-verified",
    )


def test_twisted_base_witnesses_reverify():
    # the d1-free tower at p = 7: a + 4*lam^7 has degree 7 over the closed
    # base (a, 4*lam), so its certificate comes from the twisted retry
    text = (
        builtin_scenario("example-d1-free")
        .replace("prime 2", "prime 7")
        .replace("lam^2", "4*lam^7")
        .replace("order 2", "order 1")
    )
    scenario = parse(text, name="d1-free-p7")
    result = run(scenario, with_certificates=True)
    statuses = [entry["status"] for entry in result.results]
    witnesses = list(extract_twisted_witnesses(result.to_jsonable()))
    taken = set(scenario.ambient.vars)
    ok = statuses == ["TRUE", "TRUE", "TRUE"] and len(witnesses) >= 1
    for witness in witnesses:
        ok &= any(s.endswith("^7") for s in witness["base"])
        ok &= reverify_annihilator(witness, 7, taken)
    report(
        11,
        ok,
        f"{len(witnesses)} twisted-base witnesses of d1-free at p = 7 re-verified",
    )


def test_criterion_12_verdict_lattice_soundness(rng):
    amb = presentation("E", 2, {"x": "0", "y": "0", "z": "0"})
    variables = ["x", "y", "z"]
    conflicts = 0
    stage1_true = 0
    stage2_false = 0
    for trial in range(200):
        p = amb.p
        pool = [
            random_element(rng, p, variables, max_degree=2),
            random_element(rng, p, variables, max_degree=2) ** p,
            random_element(rng, p, variables, max_degree=1)
            + random_element(rng, p, variables, max_degree=1) ** p,
        ]
        f = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))]
        base = [random_element(rng, p, variables, max_degree=1)] if rng.random() < 0.4 else []
        if any(e.is_constant() for e in f):
            continue
        t_base, base_exact, _ = certified_trdeg(base, amb)
        closed_base, _ = root_closure(base, amb)
        r_joint = rank(jacobian(closed_base + f, amb))
        stage1 = base_exact and r_joint == t_base + len(f)
        witness = find_annihilator(f, closed_base, amb, degree=3)
        if stage1:
            stage1_true += 1
        if witness is not None:
            stage2_false += 1
        if stage1 and witness is not None:
            conflicts += 1
    report(
        12,
        conflicts == 0 and stage1_true > 0 and stage2_false > 0,
        f"no Jacobian/oracle conflicts in 200 fuzzed instances "
        f"({stage1_true} certified, {stage2_false} refuted)",
    )
