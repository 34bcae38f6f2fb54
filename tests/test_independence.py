from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftrap import (
    BaseSpec,
    certified_trdeg,
    constants,
    find_annihilator,
    linear_independent_over_pk,
    p_basis_extend,
    p_independent,
    parse_expr,
    separably_independent,
    trdeg,
)
from difftrap.errors import PreconditionError, SizeCapError
from difftrap.independence import EngineConfig, root_closure
from difftrap.linalg import kernel_mod_p
from difftrap.pdecomp import frobenius_inverse, is_pth_power
from difftrap.poly import exact_div
from difftrap.rational import RationalElement, common_denominator

from conftest import presentation, random_element


@pytest.fixture
def exy():
    return presentation("E", 2, {"x": "1", "y": None})


def verify_plinear_witness(verdict, ambient):
    """Re-verify a p-linear dependence combination from its certificate."""
    p = ambient.p
    total = parse_expr("0", p)
    for part in verdict.certificate["combination"]:
        gamma = ambient.parse(part["gamma"])
        elem = ambient.parse(part["element"])
        base = ambient.parse(part["base_factor"])
        total = total + (gamma**p) * elem * base
    assert any(
        not ambient.parse(part["gamma"]).is_zero()
        for part in verdict.certificate["combination"]
    )
    return total.is_zero()


def test_linear_independent_spec_examples(exy):
    # dependence of {1, x} over the span of {x + y^2}
    v = linear_independent_over_pk(
        [exy.parse("1"), exy.parse("x")], BaseSpec([exy.parse("x + y^2")]), exy
    )
    assert v.is_false
    assert verify_plinear_witness(v, exy)
    assert linear_independent_over_pk([exy.parse("1")], BaseSpec([]), exy).is_true
    v = linear_independent_over_pk([exy.parse("0")], BaseSpec([]), exy)
    assert v.is_false and verify_plinear_witness(v, exy)
    assert [part["gamma"] for part in v.certificate["combination"]] == ["1"]
    eab = presentation("E2", 2, {"a": "1", "b": "0"})
    v = linear_independent_over_pk(
        [eab.parse("1"), eab.parse("a"), eab.parse("b")], BaseSpec([]), eab
    )
    assert v.is_true


def test_p_independent_examples(exy):
    assert p_independent([exy.parse("x")], BaseSpec([exy.parse("x + y^2")]), exy).is_false
    assert p_independent([exy.parse("x")], BaseSpec([]), exy).is_true
    ex = presentation("E1", 2, {"x": "1"})
    assert p_independent([ex.parse("x^2")], BaseSpec([]), ex).is_false


def test_p_independent_witness_reverifies(exy):
    v = p_independent([exy.parse("x")], BaseSpec([exy.parse("x + y^2")]), exy)
    assert v.is_false
    assert verify_plinear_witness(v, exy)


def test_size_cap(exy):
    config = EngineConfig(pmonomial_cap_exponent=1)
    with pytest.raises(SizeCapError):
        p_independent([exy.parse("x"), exy.parse("y")], BaseSpec([]), exy, config)


def test_p_basis_extend(exy):
    x, y = exy.parse("x"), exy.parse("y")
    assert p_basis_extend([], [x, y], BaseSpec([]), exy) == [x, y]
    # x + y^2 is rejected after x (it lies in E^2(x)); y is kept
    got = p_basis_extend([], [x, exy.parse("x + y^2"), y], BaseSpec([]), exy)
    assert got == [x, y]
    assert p_basis_extend([x], [exy.parse("x^2")], BaseSpec([]), exy) == [x]
    with pytest.raises(PreconditionError):
        p_basis_extend([exy.parse("x^2")], [], BaseSpec([]), exy)


def test_p_basis_extend_precondition_over_a_base(exy):
    # x = (x + y^2) - y^2 lies in E^2(x + y^2); y does not
    base = BaseSpec([exy.parse("x + y^2")])
    with pytest.raises(PreconditionError):
        p_basis_extend([exy.parse("x")], [exy.parse("y")], base, exy)
    assert p_basis_extend([exy.parse("y")], [exy.parse("x")], base, exy) == [
        exy.parse("y")
    ]


def greedy_by_p_independent(S, candidates, base, ambient, config=None):
    """The p-basis loop as it was: one full p_independent test per candidate."""
    current = list(S)
    if current and not p_independent(current, base, ambient, config).is_true:
        raise PreconditionError("S is not p-independent over the base")
    for c in candidates:
        if p_independent(current + [c], base, ambient, config).is_true:
            current.append(c)
    return current


def outcome(extend, *args):
    try:
        return extend(*args)
    except (PreconditionError, SizeCapError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_basis_extend_matches_the_full_test_loop(p):
    E = presentation("E", p, {"x": "1", "y": "0", "z": None})
    candidates = [
        E.parse(t)
        for t in ["1", f"x^{p}", "x", f"x + y^{p}", "x*y", "y", "x + z", f"z^{p}", "z"]
    ]
    bases = [[], [f"x + y^{p}"], ["y", "y^2 + 1"], ["x*z", f"z^{p} + x"]]
    config = EngineConfig(pmonomial_cap_exponent=3)
    for base in bases:
        spec = BaseSpec([E.parse(t) for t in base])
        for S in ([], [E.parse("z")]):
            args = (S, candidates, spec, E, config)
            want = outcome(greedy_by_p_independent, *args)
            assert outcome(p_basis_extend, *args) == want


@settings(max_examples=30, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 2),
    st.integers(0, 4),
)
def test_p_basis_extend_matches_the_full_test_loop_on_random_sets(
    rnd, p, nbase, ncand
):
    # small enough for the reference loop, whose cost grows as p^(|kept|+1)
    # per candidate: two variables, degree 2, denominators only at p = 2
    E = presentation("E", p, {"x": "1", "y": "0"})
    base = BaseSpec(
        [random_element(rnd, p, ["x", "y"], 2, False) for _ in range(nbase)]
    )
    candidates = [
        random_element(rnd, p, ["x", "y"], 2, p == 2) for _ in range(ncand)
    ]
    config = EngineConfig(pmonomial_cap_exponent=3 if p < 5 else 2)
    args = ([], candidates, base, E, config)
    assert outcome(p_basis_extend, *args) == outcome(greedy_by_p_independent, *args)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_basis_extend_matches_on_the_towers_constants_kernels(p):
    # the compositum M of the benchmark towers: d u = d w = 1
    M = presentation("M", p, {"u": "1", "w": "1"})
    kernel = constants(M).kernel_basis
    args = ([], kernel, BaseSpec([]), M)
    chosen = p_basis_extend(*args)
    assert chosen == greedy_by_p_independent(*args)
    assert len(kernel) == p ** len(chosen) == p


def test_separably_independent():
    F = presentation("F", 2, {"t": "0", "a": "0"})
    assert separably_independent(["a"], ["t"], F).is_true
    assert separably_independent([], ["t", "a"], F).is_true
    F1 = presentation("F1", 2, {"a": "0"})
    assert separably_independent(["a"], [], F1).is_true
    with pytest.raises(PreconditionError):
        separably_independent(["a"], [], F)


def test_trdeg_free_generators():
    amb = presentation("E", 2, {"a": "0", "lam": "0"})
    lower, v = trdeg([amb.parse("a"), amb.parse("lam")], BaseSpec([]), amb)
    assert v.is_true and lower == 2


def test_trdeg_spec_inconclusive_example():
    amb = presentation("E", 2, {"a": "1", "lam": None})
    lower, v = trdeg(
        [amb.parse("a"), amb.parse("a + lam^2")], BaseSpec([]), amb, degree=4
    )
    assert v.is_inconclusive and v.bound == 4
    assert lower == 1


def test_trdeg_false_with_witness():
    amb = presentation("E", 2, {"x": "0"})
    lower, v = trdeg([amb.parse("x"), amb.parse("x^2")], BaseSpec([]), amb)
    assert v.is_false
    assert v.certificate["witness"]["polynomial"] == "y2 + y1^2"
    assert lower == 1


def test_trdeg_zero_member_fast_path():
    amb = presentation("E", 2, {"x": "0"})
    lower, v = trdeg([parse_expr("0", 2)], BaseSpec([]), amb)
    assert v.is_false
    assert v.certificate["witness"]["polynomial"] == "y1"


def test_root_closure_finds_hidden_roots():
    amb = presentation("E", 2, {"a": "1", "lam": "0"})
    base = [amb.parse("a"), amb.parse("a + lam^2")]
    closed, added = root_closure(base, amb)
    assert amb.parse("lam") in closed
    assert added == [amb.parse("lam")]
    value, exact, details = certified_trdeg(base, amb)
    assert (value, exact) == (2, True)


def test_root_closure_adjoins_one_root_per_kernel_vector():
    amb = presentation("E", 7, {"a": "1", "lam": None})
    base = [amb.parse("a"), amb.parse("a + 4*lam^7")]
    closed, added = root_closure(base, amb)
    assert added == [amb.parse("4*lam")]
    assert closed == base + added
    value, exact, details = certified_trdeg(base, amb)
    assert (value, exact) == (2, True)
    # a + 4*lam^7 has degree 7 over (a, 4*lam); over the twisted base it is
    # linear, and the witness names the base it uses
    (twisted,) = details["twisted_witnesses"]
    assert twisted["base"] == ["a", "4*lam", "4*lam^7"]
    assert details["annihilators"] == [twisted["polynomial"]]


def test_root_closure_sees_roots_beyond_five_generators():
    # 7^5 combinations: an enumeration capped at 4096 never looked here
    gens = {"x1": "1", "x2": "1", "x3": "1", "x4": "1", "lam": None}
    amb = presentation("E", 7, gens)
    base = [amb.parse(s) for s in ("x1", "x2", "x3", "x4", "x1 + lam^7")]
    _, added = root_closure(base, amb)
    assert added == [amb.parse("lam")]
    value, exact, _ = certified_trdeg(base, amb)
    assert (value, exact) == (5, True)


def test_twisted_retry_over_the_cap_leaves_the_element_unproven():
    amb = presentation("E", 7, {"a": "1", "lam": None})
    base = [amb.parse("a"), amb.parse("a + 4*lam^7")]
    # the plain search has C(3+6, 6) = 84 unknowns, the largest twisted one 210
    config = EngineConfig(annihilator_cap=100)
    value, exact, details = certified_trdeg(base, amb, config)
    assert (value, exact) == (2, False)
    assert details["unproven"] == ["4*lam^7 + a"]
    assert "twisted_witnesses" not in details


def pth_root_tower(f, max_steps=64):
    """Peel p-th roots until the element is no longer a p-th power.

    Returns (root, k) with root^(p^k) = f.  Scalars are their own roots, so
    peeling stops when a step no longer changes the element.
    """
    k = 0
    cur = f
    while k < max_steps and is_pth_power(cur):
        nxt = frobenius_inverse(cur)
        if nxt == cur:
            break
        cur = nxt
        k += 1
    return cur, k


def enumerated_closure(elements, p, cap=4096, passes=8):
    """Root closure by enumerating every F_p-combination (test oracle).

    Adjoins the highest p-th root of every combination of two or more
    elements that is a p-th power, unless a scalar multiple of it is
    already there.  Returns (closed, converged); converged is False when
    the cap or the pass limit stopped the search before a pass found
    nothing new.
    """
    work = []
    for e in elements:
        if e not in work:
            work.append(e)
    for e in list(work):
        root, k = pth_root_tower(e)
        if k and not root.is_constant() and root not in work:
            work.append(root)
    for _ in range(passes):
        n = len(work)
        if p**n > cap:
            return work, False
        changed = False
        for vector in product(range(p), repeat=n):
            nz = [i for i, c in enumerate(vector) if c]
            if len(nz) < 2:
                continue
            comb = RationalElement.zero(p)
            for i in nz:
                comb = comb + work[i] * vector[i]
            if comb.is_constant():
                continue
            root, k = pth_root_tower(comb)
            if k and not any(root * c in work for c in range(1, p)):
                work.append(root)
                changed = True
        if not changed:
            return work, True
    return work, False


def fp_rank(elements, p):
    """Dimension of the F_p-span of the elements (cleared coefficients)."""
    elements = [e for e in elements if not e.is_zero()]
    if not elements:
        return 0
    denom = common_denominator(elements)
    rows = {}
    for col, e in enumerate(elements):
        cleared = e.num * exact_div(denom, e.den)
        for mono, c in cleared.terms.items():
            rows.setdefault(mono, [0] * len(elements))[col] = c
    matrix = np.array(list(rows.values()), dtype=np.int64)
    return len(elements) - len(kernel_mod_p(matrix, p))


def test_root_closure_spans_what_enumeration_spans(rng):
    variables = ["x", "y", "z"]
    compared = 0
    grew = 0
    # oracle caps that keep the enumeration at about a thousand combinations
    for p, cap in ((2, 2**10), (3, 3**6), (5, 5**4)):
        amb = presentation("E", p, {v: "0" for v in variables})
        bases = [
            # roots at two depths: x^p + y is the root of a sum
            [amb.parse(f"x^{p * p}"), amb.parse(f"y^{p}")],
            [amb.parse(f"x^{p * p} + y^{p}"), amb.parse(f"y^{p}")],
        ]
        for _ in range(12):
            atoms = [random_element(rng, p, variables, max_degree=2) for _ in range(3)]
            pool = [
                atoms[0],
                atoms[0] + rng.randrange(1, p) * atoms[1] ** p,
                atoms[1] ** p + atoms[2],
                atoms[2] ** p,
                atoms[0] ** p + rng.randrange(1, p) * atoms[2] ** p,
            ]
            if p == 2:
                pool.append(atoms[1] ** 4 + atoms[2] ** 2)
            bases.append(rng.sample(pool, rng.randint(2, 3)))
        for base in bases:
            oracle, converged = enumerated_closure(base, p, cap)
            if not converged:
                continue
            closed, added = root_closure(base, amb)
            assert root_closure(closed, amb)[1] == []
            one = [RationalElement.one(p)]
            joint = fp_rank(one + closed + oracle, p)
            assert fp_rank(one + closed, p) == joint == fp_rank(one + oracle, p)
            compared += 1
            grew += bool(added)
    assert compared >= 20 and grew >= 10


def test_annihilator_respects_dependent_base():
    # base (x, x^2) is dependent; y must not be reported dependent on it
    amb = presentation("E", 2, {"x": "0", "y": "0"})
    base = [amb.parse("x"), amb.parse("x^2")]
    assert find_annihilator([amb.parse("y")], base, amb) is None
    w = find_annihilator([amb.parse("x^4 + y^2")], [amb.parse("x"), amb.parse("y")], amb)
    assert w is not None and w.verify()


def test_monotonicity_of_p_independence(rng):
    # independence over a larger base implies independence over a smaller one
    amb = presentation("E", 2, {"x": "0", "y": "0", "z": "0"})
    checked = 0
    for _ in range(25):
        s = [random_element(rng, 2, ["x", "y", "z"], 2)]
        extra = [random_element(rng, 2, ["x", "y", "z"], 2)]
        base = [random_element(rng, 2, ["x", "y", "z"], 2)]
        big = p_independent(s, BaseSpec(base + extra), amb)
        small = p_independent(s, BaseSpec(base), amb)
        if big.is_true:
            checked += 1
            assert small.is_true
    assert checked >= 3


def test_subsets_of_free_generators_are_independent():
    amb = presentation("E", 3, {"x": "0", "y": "0", "z": "0"})
    gens = [amb.parse(n) for n in ("x", "y", "z")]
    assert p_independent(gens[:2], BaseSpec([]), amb).is_true
    lower, v = trdeg(gens, BaseSpec([]), amb)
    assert v.is_true and lower == 3
