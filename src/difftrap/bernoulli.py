"""Tools around the Bernoulli equation d(T) = T^n in characteristic p.

The generic solution model is the free presentation F_p(a_1, ..., a_s) with
d(a_i) = a_i^{n_i}: solutions are transcendentals and every identity below
is verified symbolically in that presentation.
"""

from dataclasses import dataclass

from .constants import constants
from .errors import BadParameterError, InapplicableError
from .independence import BaseSpec, default_config, linear_independent_over_pk
from .poly import check_prime
from .presentation import DiffPresentation, derive
from .rational import RationalElement
from .verdict import Verdict


@dataclass
class BernoulliSpec:
    """d(a_i) = a_i^{n_i} on the free presentation F_p(a_1, ..., a_s)."""

    p: int
    exponents: list
    variables: list | None = None

    def __post_init__(self):
        check_prime(self.p)
        self.exponents = list(self.exponents)
        if not self.exponents:
            raise BadParameterError("at least one equation required")
        if self.variables is None:
            defaults = ["a", "b", "c", "d"]
            if len(self.exponents) <= len(defaults):
                self.variables = defaults[: len(self.exponents)]
            else:
                self.variables = [f"a{i + 1}" for i in range(len(self.exponents))]
        if len(self.variables) != len(self.exponents):
            raise BadParameterError("one variable per exponent")


def make_bernoulli(spec):
    """The presentation F_p(a_1..a_s) with d(a_i) = a_i^{n_i}."""
    p = spec.p
    images = {}
    for v, n in zip(spec.variables, spec.exponents):
        images[v] = RationalElement.var(p, v) ** n
    return DiffPresentation(
        "bernoulli(" + ",".join(str(n) for n in spec.exponents) + ")",
        p,
        1,
        spec.variables,
        [images],
    )


def verify_pmonomial_derivative(p, alphas, ks):
    """Check d(w) = (sum alpha_i a_i^{p^(k_i - 1)})^p * w symbolically.

    w is the p-monomial with the given exponents on generic solutions of
    d(a_i) = a_i^{p^{k_i} + 1}.
    """
    if len(alphas) != len(ks):
        raise BadParameterError("one exponent per tower height")
    for a in alphas:
        if not 0 <= a <= p - 1:
            raise BadParameterError("p-monomial exponents lie in [0, p-1]")
    for k in ks:
        if k < 1:
            raise BadParameterError("tower heights must be at least 1")
    spec = BernoulliSpec(p, [p**k + 1 for k in ks])
    pres = make_bernoulli(spec)
    w = RationalElement.one(p)
    for v, a in zip(spec.variables, alphas):
        if a:
            w = w * pres.element(v) ** a
    lhs = derive(w, 0, pres)
    factor = RationalElement.zero(p)
    for v, a, k in zip(spec.variables, alphas, ks):
        if a:
            factor = factor + pres.element(v) ** (p ** (k - 1)) * a
    rhs = factor**p * w
    if lhs == rhs:
        return Verdict.true(
            lhs=str(lhs), rhs=str(rhs), monomial=str(w), prime=p
        )
    return Verdict.false(
        kind="identity-mismatch", lhs=str(lhs), rhs=str(rhs), monomial=str(w)
    )


def leibniz_reduce(p, n):
    """The substitution X = (1-n)^{-1} T^{1-n} solving d(X) = 1.

    Applicable exactly when p does not divide n - 1; the returned verdict
    records the symbolic check of d(X) = 1 under d(T) = T^n.
    """
    check_prime(p)
    if (n - 1) % p == 0:
        raise InapplicableError(
            f"n - 1 = {n - 1} is divisible by p = {p}; the substitution "
            f"T^(1-n)/(1-n) collapses"
        )
    pres = make_bernoulli(BernoulliSpec(p, [n], ["T"]))
    t = pres.element("T")
    inv = pow((1 - n) % p, p - 2, p)
    x = t ** (1 - n) * inv
    image = derive(x, 0, pres)
    verdict = (
        Verdict.true(X=str(x), derivative=str(image))
        if image == RationalElement.one(p)
        else Verdict.false(kind="identity-mismatch", X=str(x), derivative=str(image))
    )
    return x, verdict


def power_map_check(p, k, m):
    """b = m*a^m solves d(X) = X^{p^k + 1} when d(a) = a^{p^k m + 1}."""
    check_prime(p)
    if k <= 0:
        raise BadParameterError("k must be positive")
    if m == 0 or m % p == 0:
        raise BadParameterError("m must be nonzero and prime to p")
    n = p**k * m + 1
    pres = make_bernoulli(BernoulliSpec(p, [n]))
    b = pres.element("a") ** m * m
    lhs = derive(b, 0, pres)
    rhs = b ** (p**k + 1)
    if lhs == rhs:
        return Verdict.true(solution=str(b), derivative=str(lhs), prime=p, k=k, m=m)
    return Verdict.false(
        kind="identity-mismatch", solution=str(b), lhs=str(lhs), rhs=str(rhs)
    )


def bernoulli_perfectness(p, ks, config=None):
    """Generic solutions of d(T) = T^{p^k + 1} generate a differentially
    perfect field, with 1 and the solutions independent over its p-th powers.
    """
    config = config or default_config()
    for k in ks:
        if k < 1:
            raise BadParameterError("tower heights must be at least 1")
    spec = BernoulliSpec(p, [p**k + 1 for k in ks])
    pres = make_bernoulli(spec)
    result = constants(pres, config)
    family = [RationalElement.one(p)] + pres.generators()
    span = linear_independent_over_pk(family, BaseSpec([]), pres, config)
    if result.perfect and span.is_true:
        return Verdict.true(
            constants_dim=result.dim,
            independent_over_pth_powers=[str(e) for e in family],
        )
    if not result.perfect:
        return Verdict.false(
            kind="not-perfect",
            constants_dim=result.dim,
            basis=result.basis_strings(),
        )
    return Verdict.false(kind="p-linear-dependence", detail=span.certificate)
