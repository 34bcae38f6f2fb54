import pytest
from hypothesis import given, settings, strategies as st

from difftrap.errors import BadParameterError, InexactDivisionError
from difftrap.poly import Poly, check_prime, exact_div, formal_partial, gcd, lcm, monic

from conftest import random_poly


def P(p, text):
    from difftrap import parse_expr

    e = parse_expr(text, p)
    assert e.is_polynomial()
    return e.num


def test_prime_field_validation():
    check_prime(2)
    check_prime(13)
    with pytest.raises(BadParameterError):
        check_prime(1)
    with pytest.raises(BadParameterError):
        check_prime(6)


def test_scalars_are_their_own_pth_roots():
    for p in (2, 3, 5, 7):
        for a in range(p):
            assert pow(a, p, p) == a


def test_mod_p_collapse():
    assert P(2, "x + x").is_zero()
    assert P(3, "x + x + x").is_zero()
    assert P(2, "(x+1)*(x+1)") == P(2, "x^2+1")


def test_gcd_univariate():
    assert gcd(P(2, "x^2+1"), P(2, "x+1")) == P(2, "x+1")
    assert gcd(P(5, "x^2-1"), P(5, "x-1")) == P(5, "x+4")
    # coprime
    g = gcd(P(3, "x+1"), P(3, "x+2"))
    assert g == Poly.one(3)


def test_gcd_multivariate():
    f = P(2, "(x+y)*(x*y+1)")
    g = P(2, "(x+y)*(x+1)")
    assert gcd(f, g) == P(2, "x+y")
    # content in one variable
    f = P(3, "y*x^2 - y")
    g = P(3, "y^2*x + y^2")
    assert gcd(f, g) == P(3, "y*x + y")


def test_exact_div_errors():
    with pytest.raises(InexactDivisionError):
        exact_div(P(2, "x^2+x+1"), P(2, "x+1"))
    assert exact_div(P(2, "x^2+1"), P(2, "x+1")) == P(2, "x+1")


def test_monic_and_lcm():
    assert monic(P(5, "2*x+2")) == P(5, "x+1")
    l = lcm(P(2, "x+1"), P(2, "x^2+1"))
    assert l == P(2, "x^2+1")


def test_formal_partial_kills_pth_powers():
    assert formal_partial(P(2, "x^2"), "x").is_zero()
    assert formal_partial(P(3, "x^3*y"), "x").is_zero()
    assert formal_partial(P(3, "x^3*y"), "y") == P(3, "x^3")
    assert formal_partial(P(5, "x^2*y"), "x") == P(5, "2*x*y")


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_gcd_divides_both(r, p):
    f = random_poly(r, p, ["x", "y"], max_degree=4)
    g = random_poly(r, p, ["x", "y"], max_degree=4)
    d = gcd(f, g)
    if f.is_zero() and g.is_zero():
        assert d.is_zero()
        return
    assert exact_div(f, d) * d == f
    assert exact_div(g, d) * d == g


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_gcd_detects_common_factor(r, p):
    f = random_poly(r, p, ["x", "y"], max_degree=3)
    g = random_poly(r, p, ["x", "y"], max_degree=3)
    h = random_poly(r, p, ["x", "y"], max_degree=2)
    if h.is_zero() or h.is_constant():
        return
    d = gcd(f * h, g * h)
    if f.is_zero() and g.is_zero():
        return
    # gcd must be divisible by h; exact_div raises otherwise
    exact_div(d, monic(h))
