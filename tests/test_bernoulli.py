import pytest

from difftrap import (
    BernoulliSpec,
    bernoulli_perfectness,
    derive,
    leibniz_reduce,
    make_bernoulli,
    power_map_check,
    verify_pmonomial_derivative,
)
from difftrap.errors import BadParameterError, InapplicableError


def test_make_bernoulli_examples():
    pres = make_bernoulli(BernoulliSpec(2, [3]))
    assert pres.vars == ("a",)
    assert str(pres.image("a", 0)) == "a^3"
    pres = make_bernoulli(BernoulliSpec(2, [3, 5]))
    assert pres.vars == ("a", "b")
    assert str(pres.image("a", 0)) == "a^3"
    assert str(pres.image("b", 0)) == "b^5"
    pres = make_bernoulli(BernoulliSpec(3, [3]))
    assert str(pres.image("a", 0)) == "a^3"
    # negative exponents pass through the rational representation
    pres = make_bernoulli(BernoulliSpec(3, [-2]))
    assert str(pres.image("a", 0)) == "1/a^2"


def test_pmonomial_derivative_examples():
    assert verify_pmonomial_derivative(2, [1], [1]).is_true
    assert verify_pmonomial_derivative(3, [2, 1], [1, 2]).is_true
    assert verify_pmonomial_derivative(2, [0, 0], [1, 1]).is_true


def test_pmonomial_derivative_exhaustive():
    for p in (2, 3):
        for k1 in (1, 2):
            for a1 in range(p):
                assert verify_pmonomial_derivative(p, [a1], [k1]).is_true
                for k2 in (1, 2):
                    for a2 in range(p):
                        assert verify_pmonomial_derivative(
                            p, [a1, a2], [k1, k2]
                        ).is_true


def test_leibniz_examples():
    x, v = leibniz_reduce(3, 3)
    assert str(x) == "1/T^2" and v.is_true
    with pytest.raises(InapplicableError):
        leibniz_reduce(2, 3)
    x, v = leibniz_reduce(5, 2)
    assert str(x) == "4/T" and v.is_true


def test_leibniz_consistency_with_presentation():
    # the returned element really solves d(X) = 1 under d(T) = T^n
    for p, n in ((3, 2), (5, -3), (2, 2)):
        x, v = leibniz_reduce(p, n)
        assert v.is_true
        pres = make_bernoulli(BernoulliSpec(p, [n], variables=["T"]))
        assert derive(x, 0, pres) == pres.parse("1")


def test_leibniz_sweep():
    for p in (2, 3, 5):
        for n in range(-7, 8):
            if (n - 1) % p == 0:
                with pytest.raises(InapplicableError):
                    leibniz_reduce(p, n)
            else:
                _, v = leibniz_reduce(p, n)
                assert v.is_true, (p, n)


def test_power_map_examples():
    v = power_map_check(2, 1, 3)
    assert v.is_true and v.certificate["solution"] == "a^3"
    assert power_map_check(3, 1, 1).is_true
    with pytest.raises(BadParameterError):
        power_map_check(2, 1, 2)
    with pytest.raises(BadParameterError):
        power_map_check(2, 0, 1)


def test_power_map_sweep():
    for p in (2, 3):
        for k in (1, 2):
            for m in range(1, 6):
                if m % p:
                    assert power_map_check(p, k, m).is_true, (p, k, m)


def test_perfectness_examples():
    assert bernoulli_perfectness(2, [1]).is_true
    v = bernoulli_perfectness(2, [1, 2])
    assert v.is_true and v.certificate["constants_dim"] == 1
    assert bernoulli_perfectness(3, [1]).is_true
    with pytest.raises(BadParameterError):
        bernoulli_perfectness(2, [0])


def test_perfectness_sampled_specs():
    for p in (2, 3):
        for ks in ([1], [2], [1, 1], [1, 2], [2, 2]):
            assert bernoulli_perfectness(p, ks).is_true, (p, ks)
