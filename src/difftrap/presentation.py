"""Finitely presented differential fields and their embeddings.

A presentation is a purely transcendental field F_p(vars) together with, for
each of the m commuting derivations, an image for every generator.  An image
may be OPAQUE: the derivative exists in the modeled world but lies beyond
the represented horizon.  Any computation that would need an opaque image
fails loudly with DEPTH_EXCEEDED; silently treating the boundary as zero
would inject spurious constants and corrupt every constants-field
computation downstream.

Derivations extend from generators to arbitrary elements by additivity, the
Leibniz rule and the quotient rule.  Exponents divisible by p drop out
before their generator image is consulted, so p-th powers differentiate to
zero even across the opaque boundary.
"""

from dataclasses import dataclass, field

from .errors import (
    BadParameterError,
    DepthExceededError,
    UnknownVariableError,
)
from .expr import parse_expr
from .poly import Poly, check_prime
from .rational import RationalElement, substitute
from .verdict import Verdict


class _Opaque:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OPAQUE"


OPAQUE = _Opaque()


class DiffPresentation:
    """F_p(vars) with m commuting derivations given on the generators."""

    def __init__(self, name, p, m, variables, images):
        check_prime(p)
        if m < 1:
            raise BadParameterError("at least one derivation required")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise BadParameterError(f"duplicate generators in {name!r}")
        if len(images) != m:
            raise BadParameterError(f"{name!r}: need one image map per derivation")
        varset = set(variables)
        norm = []
        for i, imap in enumerate(images):
            cleaned = {}
            for v in variables:
                if v not in imap:
                    raise BadParameterError(
                        f"{name!r}: no d{i + 1} image for generator {v!r}"
                    )
                img = imap[v]
                if img is not OPAQUE:
                    extra = img.variables() - varset
                    if extra:
                        raise UnknownVariableError(
                            f"{name!r}: d{i + 1} {v} mentions {sorted(extra)}"
                        )
                cleaned[v] = img
            norm.append(cleaned)
        self.name = name
        self.p = p
        self.m = m
        self.vars = variables
        self.images = tuple(norm)

    # -- element construction ---------------------------------------------

    def element(self, name):
        if name not in self.vars:
            raise UnknownVariableError(f"{name!r} is not a generator of {self.name!r}")
        return RationalElement.var(self.p, name)

    def parse(self, text):
        return parse_expr(text, self.p, allowed_vars=set(self.vars))

    def generators(self):
        return [self.element(v) for v in self.vars]

    def image(self, var, i):
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} is not a generator of {self.name!r}")
        return self.images[i][var]

    def __repr__(self):
        return f"DiffPresentation({self.name}, p={self.p}, m={self.m}, vars={self.vars})"


def derive(f, i, pres):
    """Apply the i-th derivation (0-based index) to an arbitrary element."""
    if not 0 <= i < pres.m:
        raise BadParameterError(f"derivation index {i} out of range")
    dn = _derive_poly(f.num, i, pres)
    if f.is_polynomial():
        return dn
    dd = _derive_poly(f.den, i, pres)
    den_elt = RationalElement(f.den)
    num_elt = RationalElement(f.num)
    return (dn * den_elt - num_elt * dd) / (den_elt * den_elt)


def _derive_poly(g, i, pres):
    p = pres.p
    extra = g.variables() - set(pres.vars)
    if extra:
        raise UnknownVariableError(
            f"element mentions variables outside {pres.name!r}: {sorted(extra)}"
        )
    total = RationalElement.zero(p)
    images = pres.images[i]
    for mono, c in g.terms.items():
        for v, e in mono:
            k = (c * e) % p
            if not k:
                continue  # p-th power factors are constants
            img = images[v]
            if img is OPAQUE:
                raise DepthExceededError(
                    f"d{i + 1} {v} is opaque in {pres.name!r}"
                )
            rest = tuple((w, d) for w, d in mono if w != v)
            if e > 1:
                rest = tuple(sorted(rest + ((v, e - 1),)))
            term = RationalElement(Poly(p, {rest: k}, _normalized=True))
            total = total + term * img
    return total


def derive_iter(f, i, order, pres):
    """order-fold application of the i-th derivation."""
    if order < 0:
        raise BadParameterError("derivative order must be nonnegative")
    cur = f
    for _ in range(order):
        cur = derive(cur, i, pres)
    return cur


def derive_word(f, word, pres):
    """Apply a derivative monomial given as exponents (e_1, ..., e_m)."""
    cur = f
    for i, e in enumerate(word):
        cur = derive_iter(cur, i, e, pres)
    return cur


def check_commutation(pres):
    """Verify d_i d_j x = d_j d_i x on every generator where both sides exist.

    Pairs blocked by an opaque image are listed as unchecked in the
    certificate; a commutator of derivations is itself a derivation, so
    agreement on generators settles the whole field.
    """
    if pres.m == 1:
        return Verdict.true(note="single derivation")
    unchecked = []
    for i in range(pres.m):
        for j in range(i + 1, pres.m):
            for v in pres.vars:
                try:
                    a = derive(derive(pres.element(v), i, pres), j, pres)
                    b = derive(derive(pres.element(v), j, pres), i, pres)
                except DepthExceededError:
                    unchecked.append(f"({v}, d{i + 1}, d{j + 1})")
                    continue
                if a != b:
                    return Verdict.false(
                        kind="commutation",
                        generator=v,
                        derivations=[i + 1, j + 1],
                        value_ij=str(a),
                        value_ji=str(b),
                    )
    if unchecked:
        return Verdict.true(unchecked=unchecked)
    return Verdict.true()


@dataclass
class SubfieldDecl:
    """A named subfield: its own presentation plus an embedding map.

    The embedding sends each own generator to an element of the ambient
    presentation; compatibility with the derivations and algebraic
    independence of the images are checked by ``check_embedding`` before a
    scenario runs any query.
    """

    name: str
    pres: DiffPresentation
    embedding: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = set(self.pres.vars) - set(self.embedding)
        if missing:
            raise BadParameterError(
                f"field {self.name!r}: no embedding for {sorted(missing)}"
            )

    def embed(self, f):
        """Push an element of the own presentation into the ambient one."""
        return substitute(f, self.embedding)

    def embedded_generators(self):
        return [self.embedding[v] for v in self.pres.vars]


def check_embedding(sub, ambient, config=None):
    """Derivation compatibility plus algebraic independence of the images.

    FALSE carries the failing side: either a generator whose embedded
    derivative disagrees with the derivative of its embedding, or a
    dependence witness among the embedded generators.  The independence
    verdict is recorded even when only boundedly certified.
    """
    from .independence import certified_trdeg, default_config

    config = config or default_config()
    unchecked = []
    for i in range(sub.pres.m):
        for v in sub.pres.vars:
            own = sub.pres.image(v, i)
            if own is OPAQUE:
                unchecked.append(f"({v}, d{i + 1})")
                continue
            lhs = sub.embed(own)
            rhs = derive(sub.embedding[v], i, ambient)
            if lhs != rhs:
                return Verdict.false(
                    kind="embedding-compatibility",
                    field=sub.name,
                    generator=v,
                    derivation=i + 1,
                    embedded_image=str(lhs),
                    ambient_derivative=str(rhs),
                )
    gens = sub.embedded_generators()
    if gens:
        value, exact, details = certified_trdeg(gens, ambient, config)
        if exact and value < len(gens):
            return Verdict.false(
                kind="embedding-dependence",
                field=sub.name,
                trdeg=value,
                generators=[str(g) for g in gens],
                witnesses=details.get("annihilators", []),
            )
        independence = (
            Verdict.true(trdeg=value)
            if exact
            else Verdict.inconclusive(bound=config.degree_bound, jacobian_rank=value)
        )
    else:
        independence = Verdict.true(note="no generators")
    cert = {"field": sub.name, "independence": independence.to_jsonable()}
    if unchecked:
        cert["unchecked"] = unchecked
    return Verdict.true(**cert)
