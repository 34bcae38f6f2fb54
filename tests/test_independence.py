import pytest

from difftrap import (
    BaseSpec,
    certified_trdeg,
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
