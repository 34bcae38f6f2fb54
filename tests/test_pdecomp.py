import pytest
from hypothesis import given, settings, strategies as st

from difftrap import parse_expr
from difftrap.errors import NotAPthPowerError, UnknownVariableError
from difftrap.pdecomp import (
    PMonomial,
    all_pmonomials,
    frobenius_inverse,
    is_pth_power,
    p_decompose,
)
from difftrap.rational import RationalElement

from conftest import random_element


def E(p, text):
    return parse_expr(text, p)


def W(p, text):
    if text == "1":
        return PMonomial.one(p)
    exps = []
    for part in text.split("*"):
        if "^" in part:
            v, e = part.split("^")
            exps.append((v, int(e)))
        else:
            exps.append((part, 1))
    return PMonomial(p, tuple(exps))


def test_decompose_cubic_example():
    d = p_decompose(E(2, "x^3 + x^2"), ["x"])
    assert d.coords == {W(2, "1"): E(2, "x"), W(2, "x"): E(2, "x")}
    assert d.reconstruct() == E(2, "x^3 + x^2")


def test_decompose_rational_example():
    f = E(2, "1/(x+1)")
    d = p_decompose(f, ["x"])
    assert d.coords == {W(2, "1"): f, W(2, "x"): f}
    assert d.reconstruct() == f


def test_decompose_cube_is_trivial():
    d = p_decompose(E(3, "x^3"), ["x"])
    assert d.coords == {W(3, "1"): E(3, "x")}
    assert set(d.coords) <= {PMonomial.one(3)}


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        p_decompose(E(2, "x + y"), ["x"])


def test_pth_power_detection():
    assert is_pth_power(E(2, "x^2 + 1"))
    assert frobenius_inverse(E(2, "x^2 + 1")) == E(2, "x + 1")
    assert not is_pth_power(E(2, "x"))
    assert frobenius_inverse(E(3, "x^6")) == E(3, "x^2")
    with pytest.raises(NotAPthPowerError):
        frobenius_inverse(E(2, "x"))


def test_pth_power_agrees_with_decomposition(rng):
    for p in (2, 3, 5):
        for _ in range(40):
            f = random_element(rng, p, ["x", "y"], max_degree=4)
            d = p_decompose(f, ["x", "y"])
            assert is_pth_power(f) == (set(d.coords) <= {PMonomial.one(p)})
            if is_pth_power(f):
                r = frobenius_inverse(f)
                assert r**p == f


def test_all_pmonomials_order():
    ws = all_pmonomials(2, ["x", "y"])
    assert [str(w) for w in ws] == ["1", "y", "x", "x*y"]
    assert len(all_pmonomials(3, ["x", "y"])) == 9
    assert [str(w) for w in all_pmonomials(5, [])] == ["1"]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_roundtrip_property(r, p):
    f = random_element(r, p, ["x", "y", "z"], max_degree=6)
    d = p_decompose(f, ["x", "y", "z"])
    assert d.reconstruct() == f


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_semilinearity_property(r, p):
    variables = ["x", "y"]
    f = random_element(r, p, variables, max_degree=3)
    g = random_element(r, p, variables, max_degree=3)
    lam = random_element(r, p, variables, max_degree=2)
    lhs = p_decompose(f + (lam**p) * g, variables)
    df = p_decompose(f, variables)
    dg = p_decompose(g, variables)
    keys = set(df.coords) | set(dg.coords)
    for w in keys:
        assert lhs.coefficient(w) == df.coefficient(w) + lam * dg.coefficient(w)
    for w in set(lhs.coords) - keys:
        raise AssertionError(f"unexpected coordinate {w}")


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_frobenius_property(r, p):
    f = random_element(r, p, ["x", "y"], max_degree=3)
    d = p_decompose(f**p, ["x", "y"])
    if f.is_zero():
        assert d.coords == {}
    else:
        assert d.coords == {PMonomial.one(p): f}
