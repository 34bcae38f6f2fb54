"""p-monomials and the decomposition of a field element over the p-th powers.

For a purely transcendental field E = F_p(x_1, ..., x_n), the p-monomials
``x_1^{e_1} ... x_n^{e_n}`` with exponents in [0, p-1] form a basis of E
over its subfield of p-th powers E^p.  ``p_decompose`` writes an element f
uniquely as

    f = sum_w  c_w^p * w        (w ranging over p-monomials)

by clearing the denominator to a p-th power, splitting numerator exponents
into quotient and residue mod p, and using that every scalar in F_p is its
own p-th root.  The coordinate map f -> (c_w) is E^p-semilinear, which is
what turns independence questions over E^p into plain linear algebra over E.
"""

from .errors import NotAPthPowerError, UnknownVariableError
from .poly import Poly, exact_div, lcm
from .rational import RationalElement


def _pmono_poly(w):
    if not w.exps:
        return Poly.one(w.p)
    return Poly(w.p, {w.exps: 1}, _normalized=True)


class PMonomial:
    """A monomial with every exponent in [0, p-1]; the empty one is 1."""

    __slots__ = ("p", "exps")

    def __init__(self, p, exps):
        for _, e in exps:
            if not 0 < e < p:
                raise ValueError("p-monomial exponents must lie in [1, p-1]")
        self.p = p
        self.exps = tuple(sorted(exps))

    @classmethod
    def one(cls, p):
        return cls(p, ())

    @classmethod
    def from_exponents(cls, p, variables, vector):
        return cls(p, tuple((v, e) for v, e in zip(variables, vector) if e))

    def exponent_of(self, var):
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def as_element(self):
        if not self.exps:
            return RationalElement.one(self.p)
        return RationalElement(Poly(self.p, {self.exps: 1}, _normalized=True))

    def __eq__(self, other):
        return (
            isinstance(other, PMonomial) and self.p == other.p and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.p, self.exps))

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def __repr__(self):
        return f"PMonomial({self})"


class PDecomposition:
    """Coordinates of an element over E^p in the p-monomial basis.

    Zero coordinates are omitted.  ``reconstruct`` recomputes
    sum_w coords[w]^p * w, which must equal the decomposed element exactly.
    """

    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        self.p = p
        self.coords = {w: c for w, c in coords.items() if not c.is_zero()}

    def reconstruct(self):
        """Recompute sum_w coords[w]^p * w exactly.

        Accumulated over the common denominator so the canonicalizing gcd
        runs once at the end instead of per addition.
        """
        if not self.coords:
            return RationalElement.zero(self.p)
        p = self.p
        items = list(self.coords.items())
        h = Poly.one(p)
        for _, c in items:
            h = lcm(h, c.den)
        hp = h**p
        total = Poly.zero(p)
        for w, c in items:
            scale = exact_div(h, c.den) ** p
            total = total + c.num**p * scale * _pmono_poly(w)
        return RationalElement(total, hp)

    def coefficient(self, w):
        return self.coords.get(w, RationalElement.zero(self.p))

    def __eq__(self, other):
        return (
            isinstance(other, PDecomposition)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __repr__(self):
        inner = ", ".join(f"{w}: {c}" for w, c in self.coords.items())
        return f"PDecomposition({{{inner}}})"


def p_decompose(f, variables):
    """Decompose f over the p-th powers of F_p(variables).

    The element must only mention the given (free) variables.
    """
    p = f.p
    extra = f.variables() - set(variables)
    if extra:
        raise UnknownVariableError(
            f"element mentions variables outside the presentation: {sorted(extra)}"
        )
    if f.is_zero():
        return PDecomposition(p, {})
    # f = g/h = (g h^{p-1}) / h^p
    numerator = f.num * f.den ** (p - 1)
    groups = {}
    for mono, coeff in numerator.terms.items():
        residue = []
        quotient = []
        for v, e in mono:
            r = e % p
            q = e // p
            if r:
                residue.append((v, r))
            if q:
                quotient.append((v, q))
        residue = tuple(residue)
        qmono = tuple(quotient)
        bucket = groups.setdefault(residue, {})
        # scalars are Frobenius-fixed, so coeff^(1/p) == coeff
        bucket[qmono] = (bucket.get(qmono, 0) + coeff) % p
    coords = {}
    den = RationalElement(f.den)
    for residue, bucket in groups.items():
        num = Poly(p, bucket)
        if num.is_zero():
            continue
        coords[PMonomial(p, residue)] = RationalElement(num) / den
    return PDecomposition(p, coords)


def is_pth_power(f):
    """True when f lies in the subfield of p-th powers.

    On canonical reduced fractions this holds exactly when every exponent in
    the numerator and the denominator is divisible by p (F_p scalars always
    have roots).
    """
    p = f.p
    for part in (f.num, f.den):
        for mono in part.terms:
            for _, e in mono:
                if e % p:
                    return False
    return True


def frobenius_inverse(f):
    """The unique r with r^p = f; exponent division, coefficients fixed."""
    if not is_pth_power(f):
        raise NotAPthPowerError(f"{f} is not a {f.p}-th power")
    p = f.p
    num = _root_poly(f.num, p)
    den = _root_poly(f.den, p)
    return RationalElement(num, den, _canonical=True)


def _root_poly(g, p):
    terms = {}
    for mono, c in g.terms.items():
        terms[tuple((v, e // p) for v, e in mono)] = c
    return Poly(p, terms, _normalized=True)


def all_pmonomials(p, variables):
    """Every p-monomial over the given variables, in exponent-vector order.

    The order enumerates exponent vectors lexicographically with the last
    variable fastest, so the first entry is always the monomial 1.
    """
    variables = list(variables)
    out = []
    vector = [0] * len(variables)
    while True:
        out.append(PMonomial.from_exponents(p, variables, tuple(vector)))
        i = len(vector) - 1
        while i >= 0 and vector[i] == p - 1:
            vector[i] = 0
            i -= 1
        if i < 0:
            return out
        vector[i] += 1
