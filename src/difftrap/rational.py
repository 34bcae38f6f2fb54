"""Canonical rational functions over F_p.

A :class:`RationalElement` is a reduced fraction of two polynomials:
``gcd(num, den) = 1``, the denominator is monic under the graded-lex order,
and zero is ``0/1``.  Canonical form is unique, so structural equality (and
hashing) decides equality of field elements everywhere downstream.
"""

from .errors import BadParameterError, UnknownVariableError, ZeroDenominatorError
from .poly import Poly, exact_div, formal_partial, gcd, lcm, monic


class RationalElement:
    __slots__ = ("p", "num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = Poly.one(num.p)
        if num.p != den.p:
            raise BadParameterError("mixed characteristics")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = _reduce(num, den)
        self.p = num.p
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_int(cls, p, c):
        return cls(Poly.const(p, c), _canonical=True)

    @classmethod
    def zero(cls, p):
        return cls(Poly.zero(p), _canonical=True)

    @classmethod
    def one(cls, p):
        return cls(Poly.one(p), _canonical=True)

    @classmethod
    def var(cls, p, name):
        return cls(Poly.var(p, name), _canonical=True)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.den.is_constant() and self.num == Poly.one(self.p)

    def is_polynomial(self):
        return self.den == Poly.one(self.p)

    def is_constant(self):
        """True when the element lies in the prime field F_p."""
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise BadParameterError(f"{self} is not a prime-field scalar")
        return self.num.constant_value()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalElement):
            if other.p != self.p:
                raise BadParameterError("mixed characteristics")
            return other
        if isinstance(other, int):
            return RationalElement.from_int(self.p, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add_reduced(self, other)

    __radd__ = __add__

    def __neg__(self):
        return RationalElement(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add_reduced(self, -other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add_reduced(other, -self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul_reduced(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul_reduced(self, other.inverse())

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul_reduced(other, self.inverse())

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero element")
        num, den = self.den, self.num
        lc = den.leading_coeff()
        if lc != 1:
            inv = pow(lc, self.p - 2, self.p)
            num = num.scale(inv)
            den = den.scale(inv)
        return RationalElement(num, den, _canonical=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise BadParameterError("exponents must be integers")
        if n == 0:
            return RationalElement.one(self.p)
        if n < 0:
            return self.inverse() ** (-n)
        # coprimality and monicity survive taking powers
        return RationalElement(self.num**n, self.den**n, _canonical=True)

    # -- structure -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalElement.from_int(self.p, other)
        return (
            isinstance(other, RationalElement)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        num_s = str(self.num)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if _needs_parens_as_denominator(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"<F_{self.p}: {self}>"


def _needs_parens_as_denominator(den):
    if len(den.terms) > 1:
        return True
    (mono, coeff) = next(iter(den.terms.items()))
    # a single power of a single variable with unit coefficient binds tightly
    return coeff != 1 or len(mono) != 1


def _reduce(num, den):
    p = num.p
    if num.is_zero():
        return Poly.zero(p), Poly.one(p)
    g = gcd(num, den)
    if not (g.is_constant() and g.constant_value() == 1):
        num = exact_div(num, g)
        den = exact_div(den, g)
    lc = den.leading_coeff()
    if lc != 1:
        inv = pow(lc, p - 2, p)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _mul_reduced(a, b):
    """Product of canonical fractions by cross cancellation.

    With gcd(a.num, a.den) = gcd(b.num, b.den) = 1, removing
    gcd(a.num, b.den) and gcd(b.num, a.den) leaves a reduced fraction, and
    quotients of monic polynomials by monic divisors stay monic.
    """
    if a.is_zero() or b.is_zero():
        return RationalElement.zero(a.p)
    num1, den2 = _cancel(a.num, b.den)
    num2, den1 = _cancel(b.num, a.den)
    return RationalElement(num1 * num2, den1 * den2, _canonical=True)


def _cancel(num, den):
    if den.is_constant():
        return num, den
    g = gcd(num, den)
    if g.is_constant():
        return num, den
    return exact_div(num, g), exact_div(den, g)


def _add_reduced(a, b):
    """Sum of canonical fractions with the small-gcd denominator trick.

    For reduced fractions the only common factor of the naive numerator and
    denominator divides g = gcd of the denominators, so one gcd against g
    finishes the reduction.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    p = a.p
    if a.den == b.den:
        t = a.num + b.num
        if t.is_zero():
            return RationalElement.zero(p)
        h = gcd(t, a.den)
        if h.is_constant():
            return RationalElement(t, a.den, _canonical=True)
        return RationalElement(exact_div(t, h), exact_div(a.den, h), _canonical=True)
    g = gcd(a.den, b.den)
    if g.is_constant():
        t = a.num * b.den + b.num * a.den
        if t.is_zero():
            return RationalElement.zero(p)
        return RationalElement(t, a.den * b.den, _canonical=True)
    d1g = exact_div(a.den, g)
    d2g = exact_div(b.den, g)
    t = a.num * d2g + b.num * d1g
    if t.is_zero():
        return RationalElement.zero(p)
    h = gcd(t, g)
    if h.is_constant():
        return RationalElement(t, a.den * d2g, _canonical=True)
    return RationalElement(
        exact_div(t, h), exact_div(a.den, h) * d2g, _canonical=True
    )


def substitute(f, mapping):
    """Evaluate f with each variable replaced by a RationalElement.

    Raises UnknownVariableError when f mentions a variable missing from the
    mapping, and ZeroDenominatorError when the denominator collapses to zero.
    """
    p = f.p
    missing = f.variables() - set(mapping)
    if missing:
        raise UnknownVariableError(f"no image for {sorted(missing)}")
    num = _substitute_poly(f.num, mapping, p)
    den = _substitute_poly(f.den, mapping, p)
    if den.is_zero():
        raise ZeroDenominatorError("denominator vanishes under substitution")
    return num / den


def _substitute_poly(g, mapping, p):
    total = RationalElement.zero(p)
    for m, c in g.sorted_terms():
        term = RationalElement.from_int(p, c)
        for v, e in m:
            term = term * mapping[v] ** e
        total = total + term
    return total


def partial(f, var):
    """Formal partial derivative of a rational element (quotient rule)."""
    dn = formal_partial(f.num, var)
    if f.is_polynomial():
        return RationalElement(dn)
    dd = formal_partial(f.den, var)
    return RationalElement(dn * f.den - f.num * dd, f.den * f.den)


def common_denominator(elements):
    """LCM of the denominators of the given elements."""
    if not elements:
        raise BadParameterError("no elements")
    h = Poly.one(elements[0].p)
    for e in elements:
        h = lcm(h, e.den)
    return monic(h)
