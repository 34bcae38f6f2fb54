import pytest
from hypothesis import given, settings, strategies as st

from difftrap import (
    DiffPresentation,
    OPAQUE,
    SubfieldDecl,
    check_commutation,
    check_embedding,
    derive,
    derive_iter,
    parse_expr,
)
from difftrap.errors import (
    BadParameterError,
    DepthExceededError,
    UnknownVariableError,
)
from difftrap.rational import RationalElement

from conftest import presentation, random_element


def test_leibniz_example():
    pres = presentation("P", 2, {"a": "a^3", "b": "b^5"})
    assert derive(pres.parse("a*b"), 0, pres) == pres.parse("a^3*b + a*b^5")


def test_inverse_power_example():
    pres = presentation("P", 3, {"T": "T^3"})
    assert derive(pres.parse("T^-2"), 0, pres) == pres.parse("1")


def test_pth_powers_are_constants():
    pres = presentation("P", 2, {"a": "a^3", "b": "b^5"})
    assert derive(pres.parse("(a*b + a + 1)^2"), 0, pres).is_zero()
    # even across the opaque boundary
    opq = presentation("Q", 2, {"x": "1", "y": None})
    assert derive(opq.parse("y^2 + x"), 0, opq) == opq.parse("1")


def test_derive_iter_examples():
    pres = presentation("P", 2, {"a": "1"})
    assert derive_iter(pres.parse("a"), 0, 2, pres).is_zero()
    chain = presentation("C", 2, {"lam": "lam1", "lam1": "lam2", "lam2": None})
    assert derive_iter(chain.parse("lam"), 0, 2, chain) == chain.parse("lam2")
    bern = presentation("B", 2, {"a": "a^3"})
    assert derive_iter(bern.parse("a"), 0, 2, bern) == bern.parse("a^5")


def test_depth_exceeded():
    pres = presentation("P", 2, {"x": "1", "y": None})
    with pytest.raises(DepthExceededError):
        derive(pres.parse("y"), 0, pres)


def test_unknown_variable():
    pres = presentation("P", 2, {"x": "1"})
    with pytest.raises(UnknownVariableError):
        derive(parse_expr("z", 2), 0, pres)
    with pytest.raises(BadParameterError):
        DiffPresentation("bad", 2, 1, ["x"], [{}])


def test_commutation_trivial_and_true():
    single = presentation("S", 2, {"x": "1"})
    assert check_commutation(single).is_true
    two = presentation(
        "T", 2, [{"x": "y", "y": "0"}, {"x": "0", "y": "0"}], m=2
    )
    assert check_commutation(two).is_true


def test_commutation_false():
    bad = presentation(
        "B", 2, [{"x": "y", "y": "0"}, {"x": "x", "y": "0"}], m=2
    )
    v = check_commutation(bad)
    assert v.is_false
    assert v.certificate["generator"] == "x"
    assert {v.certificate["value_ij"], v.certificate["value_ji"]} == {"0", "y"}


def test_embedding_true():
    amb = presentation("E", 2, {"a": "1"})
    K = presentation("K", 2, {"u": "1"})
    decl = SubfieldDecl("K", K, {"u": amb.parse("a")})
    assert check_embedding(decl, amb).is_true


def test_embedding_compat_false():
    amb = presentation("E", 2, {"a": "1"})
    K = presentation("K", 2, {"u": "u"})
    decl = SubfieldDecl("K", K, {"u": amb.parse("a")})
    v = check_embedding(decl, amb)
    assert v.is_false and v.certificate["kind"] == "embedding-compatibility"


def test_embedding_dependence_false():
    amb = presentation("E", 2, {"a": "1"})
    K = presentation("K", 2, {"u": "1", "v": "0"})
    decl = SubfieldDecl(
        "K", K, {"u": amb.parse("a"), "v": amb.parse("a^2")}
    )
    v = check_embedding(decl, amb)
    assert v.is_false and v.certificate["kind"] == "embedding-dependence"
    assert v.certificate["witnesses"]


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_leibniz_and_quotient_rules(r, p):
    pres = presentation("P", p, {"x": "x^2", "y": "1"})
    f = random_element(r, p, ["x", "y"], max_degree=3)
    g = random_element(r, p, ["x", "y"], max_degree=3)
    df = derive(f, 0, pres)
    dg = derive(g, 0, pres)
    assert derive(f * g, 0, pres) == df * g + f * dg
    if not f.is_zero():
        assert derive(f.inverse(), 0, pres) == -df / (f * f)
    # F_p-linearity and Frobenius-kill
    assert derive(f + g, 0, pres) == df + dg
    assert derive(f**p, 0, pres).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_commuting_derivations_on_composites(r):
    pres = presentation(
        "T", 3, [{"x": "1", "y": "0"}, {"x": "0", "y": "y"}], m=2
    )
    assert check_commutation(pres).is_true
    f = random_element(r, 3, ["x", "y"], max_degree=3)
    ab = derive(derive(f, 0, pres), 1, pres)
    ba = derive(derive(f, 1, pres), 0, pres)
    assert ab == ba
