"""Decision procedures for the independence notions used by the checker.

Linear independence over E^p(base) reduces to plain linear algebra over E
through the semilinear coordinate map of ``p_decompose``: elements are
independent over the p-th powers exactly when their coordinate rows are
independent over E.  p-independence of a set follows by testing all of its
p-monomials at once.

Algebraic independence is genuinely one-sided in characteristic p.  The
Jacobian certifies independence when it has full rank but can underestimate
(d(x^p) = 0), and annihilator search is only exhaustive up to a degree
bound, so results live in the TRUE / FALSE-with-witness / INCONCLUSIVE
lattice rather than booleans.  Three helpers keep the Jacobian honest
without ever guessing:

* root closure adjoins the p-th roots hidden in F_p-linear combinations of
  base elements.  The combinations that are p-th powers are exactly the
  F_p-kernel of the Jacobian (d(x^p) = 0), and Frobenius is additive on them
  (Ore's p-polynomials), so the roots of one kernel basis per pass span
  all such roots; a root already in the F_p-affine span is not adjoined.
  The move is purely inseparable and changes no transcendence degree, but
  it exposes generators the Jacobian can see;
* a base element may need ``r^p`` for an adjoined root r, a degree the
  bounded search cannot reach (y - b1 - c*b2^p).  When the plain search
  fails, one retry over the "twisted" base, the Jacobian basis plus the
  p-th powers of its adjoined roots, searches from degree 1 up and finds
  such a relation at degree 1; the witness lists that base, so it
  re-verifies like any other;
* a FALSE witness is accepted only when the annihilator stays nonzero after
  substituting the base values, which is exactly "the family satisfies a
  nonzero polynomial over the base field" and rules out spurious witnesses
  built from relations inside a dependent base tuple.
"""

from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

from .errors import InternalError, PreconditionError, SizeCapError
from .linalg import Echelon, FFMatrix, dependence_witness, kernel_mod_p, rank
from .pdecomp import frobenius_inverse, is_pth_power, p_decompose
from .poly import exact_div
from .rational import RationalElement, common_denominator, partial
from .verdict import Verdict


@dataclass(frozen=True)
class EngineConfig:
    degree_bound: int = 6
    pmonomial_cap_exponent: int = 4
    annihilator_cap: int = 200_000
    mixed_derivatives: bool = True


def default_config():
    return EngineConfig()


@dataclass
class BaseSpec:
    """Generators of the base field (empty means the prime field)."""

    generators: list = field(default_factory=list)

    @classmethod
    def coerce(cls, base):
        if base is None:
            return cls([])
        if isinstance(base, BaseSpec):
            return base
        return cls(list(base))


# -- coordinates over the p-th powers ---------------------------------------


def _exponents(w, var_order):
    return tuple(w.exponent_of(v) for v in var_order)


def _coordinates(x, var_order):
    """Sparse E^p-coordinate row of x, keyed by p-monomial exponent vector."""
    coords = p_decompose(x, var_order).coords
    return {_exponents(w, var_order): c for w, c in coords.items()}


def _pmonomials_of(elements, p):
    """All products of the elements with exponents in [0, p-1], in
    exponent-vector order (1 first)."""
    out = []
    for vector in product(range(p), repeat=len(elements)):
        term = RationalElement.one(p)
        for e, exp in zip(elements, vector):
            if exp:
                term = term * e**exp
        out.append((vector, term))
    return out


def linear_independent_over_pk(v, base, ambient, config=None):
    """Decide linear independence of v over E^p(base) inside ambient E.

    The p-monomials in the base generators span E^p(base) over E^p; a
    maximal coordinate-rank subset U of them is an E^p-basis, and v is
    independent over E^p(base) exactly when the products {u*x} stay
    independent over E^p.  FALSE returns the explicit combination.
    """
    config = config or default_config()
    base = BaseSpec.coerce(base)
    p = ambient.p
    cap = p**config.pmonomial_cap_exponent
    if p ** len(base.generators) > cap:
        raise SizeCapError(
            f"base spans {p ** len(base.generators)} p-monomials, cap {cap}"
        )
    var_order = list(ambient.vars)
    span = Echelon(p)
    u_elems = []
    for _, term in _pmonomials_of(base.generators, p):
        if span.add_row(_coordinates(term, var_order)):
            u_elems.append(term)
    products = []
    labels = []
    for x in v:
        for u in u_elems:
            products.append(u * x)
            labels.append((str(x), str(u)))
    if len(products) > cap:
        raise SizeCapError(f"{len(products)} product rows exceed cap {cap}")
    rows = [_coordinates(x, var_order) for x in products]
    matrix = FFMatrix(p, rows, len(set().union(*rows)))
    if rank(matrix) == len(products):
        return Verdict.true(
            basis_of_base_span=[str(u) for u in u_elems],
            rows=len(products),
        )
    gamma = dependence_witness(matrix)
    combination = []
    check = RationalElement.zero(p)
    for g, prod_elem, (x_str, u_str) in zip(gamma, products, labels):
        if g.is_zero():
            continue
        combination.append({"element": x_str, "base_factor": u_str, "gamma": str(g)})
        check = check + (g**p) * prod_elem
    if not check.is_zero():
        raise InternalError("dependence combination failed exact re-verification")
    return Verdict.false(
        kind="p-linear-dependence",
        p=p,
        variables=list(ambient.vars),
        combination=combination,
        note="sum of gamma^p * element * base_factor is exactly zero",
    )


def p_independent(S, base, ambient, config=None):
    """TRUE iff the p^|S| p-monomials in S are independent over E^p(base)."""
    config = config or default_config()
    p = ambient.p
    cap = p**config.pmonomial_cap_exponent
    if p ** len(S) > cap:
        raise SizeCapError(f"{p ** len(S)} p-monomials of S exceed cap {cap}")
    pmons = [term for _, term in _pmonomials_of(list(S), p)]
    return linear_independent_over_pk(pmons, base, ambient, config)


def p_basis_extend(S, candidates, base, ambient, config=None):
    """Greedily extend the p-independent set S by the candidates, in order.

    One echelon form holds the E^p-coordinate rows of the p-monomials of
    everything kept so far: 1, then the base generators (greedily), then S
    and the accepted candidates.  One row decides each candidate: c lies in
    E^p(base, kept) exactly when its row adds no rank, and is then rejected
    with nothing stored.  An accepted c adds the rows of c^j * u for
    j = 1..p-1 and every kept p-monomial u; the enlarged set is
    p-independent, so each of them must raise the rank (re-checked).  The
    result is the set that testing ``p_independent(kept + [c], base)`` per
    candidate keeps, since p-independence is a pregeometry, and the same
    size caps are checked, in the same order, before any row is built.
    """
    config = config or default_config()
    base = BaseSpec.coerce(base)
    p = ambient.p
    cap = p**config.pmonomial_cap_exponent
    var_order = list(ambient.vars)
    span = Echelon(p)
    monomials = []  # the p-monomial of each row of span, 1 first
    base_rows = None  # how many p-monomials span E^p(base); None until built

    def adjoin(x):
        """Keep x when its row raises the rank; returns whether it did."""
        if not span.add_row(_coordinates(x, var_order)):
            return False
        grown = [x * u for u in monomials[1:]]
        power = x
        for _ in range(2, p):
            power = power * x
            grown.extend(power * u for u in monomials)
        for term in grown:
            if not span.add_row(_coordinates(term, var_order)):
                raise InternalError(
                    f"p-monomial {term} lies in the span of the kept ones"
                )
        monomials.extend([x] + grown)
        return True

    def check_caps(n):
        """Raise the caps of ``p_independent`` on n elements over the base;
        the first call also builds the base rows, once the base cap holds."""
        nonlocal base_rows
        if p**n > cap:
            raise SizeCapError(f"{p**n} p-monomials of S exceed cap {cap}")
        if base_rows is None:
            if p ** len(base.generators) > cap:
                raise SizeCapError(
                    f"base spans {p ** len(base.generators)} p-monomials, cap {cap}"
                )
            one = RationalElement.one(p)
            span.add_row(_coordinates(one, var_order))
            monomials.append(one)
            for g in base.generators:
                adjoin(g)
            base_rows = len(monomials)
        if base_rows * p**n > cap:
            raise SizeCapError(f"{base_rows * p**n} product rows exceed cap {cap}")

    kept = list(S)
    if kept:
        check_caps(len(kept))
        if not all(adjoin(s) for s in kept):
            raise PreconditionError("S is not p-independent over the base")
    for c in candidates:
        check_caps(len(kept) + 1)
        if adjoin(c):
            kept.append(c)
    return kept


def separably_independent(A, k_gens, F, config=None):
    """Separable independence of the variables A over the rest of F's
    generators, via p-independence inside F = k(A)."""
    config = config or default_config()
    a_set, k_set = set(A), set(k_gens)
    if (
        len(a_set) != len(A)
        or len(k_set) != len(k_gens)
        or (a_set & k_set)
        or (a_set | k_set) != set(F.vars)
    ):
        raise PreconditionError(
            "A and k_gens must partition the generators of the presentation"
        )
    elems = [F.element(a) for a in A]
    base = BaseSpec([F.element(g) for g in k_gens])
    return p_independent(elems, base, F, config)


# -- algebraic independence -----------------------------------------------


def jacobian(elements, ambient):
    """Rows of formal partials with respect to the ambient generators."""
    rows = [{j: partial(e, v) for j, v in enumerate(ambient.vars)} for e in elements]
    return FFMatrix(ambient.p, rows, len(ambient.vars))


def _fp_relations(vectors, p):
    """Basis of the F_p-linear relations among vectors of field elements.

    A relation is c in F_p^n with sum_i c_i * vectors[i][j] = 0 for every
    coordinate j.  Each coordinate is cleared to polynomials by the common
    denominator of its entries, every (coordinate, monomial) pair gives one
    scalar equation, and ``kernel_mod_p`` solves the system; the basis is
    its reduced one (1 at each free column).  A vector that is alone nonzero
    at some coordinate has c_i = 0 in every relation; such vectors are
    dropped first, which leaves the reduced basis as it is.
    """
    coords = range(len(vectors[0]) if vectors else 0)
    live = list(range(len(vectors)))
    while True:
        supports = [[i for i in live if not vectors[i][j].is_zero()] for j in coords]
        lone = {s[0] for s in supports if len(s) == 1}
        if not lone:
            break
        live = [i for i in live if i not in lone]
    if not live:
        return []
    row_index = {}
    triplets = []
    for j, support in zip(coords, supports):
        if not support:
            continue
        denom = common_denominator([vectors[i][j] for i in support])
        for col, i in enumerate(live):
            value = vectors[i][j]
            if value.is_zero():
                continue
            cleared = value.num * exact_div(denom, value.den)
            for mono, c in cleared.terms.items():
                row = row_index.setdefault((j, mono), len(row_index))
                triplets.append((row, col, c))
    a = np.zeros((len(row_index), len(live)), dtype=np.int64)
    for row, col, c in triplets:
        a[row, col] = c
    basis = []
    for v in kernel_mod_p(a, p):
        full = np.zeros(len(vectors), dtype=np.int64)
        full[live] = v
        basis.append(full)
    return basis


def _combine(vector, elements, p):
    total = RationalElement.zero(p)
    for c, e in zip(vector, elements):
        if c:
            total = total + e * int(c)
    return total


def _in_affine_span(x, elements, p):
    """Whether x is an F_p-combination of 1 and the elements."""
    columns = [[RationalElement.one(p)]] + [[e] for e in elements] + [[x]]
    return any(v[-1] for v in _fp_relations(columns, p))


def _root_candidates(work, gradient, p):
    """Roots of the F_p-combinations of ``work`` that are p-th powers.

    Those combinations are the F_p-kernel of the Jacobian (d(x^p) = 0), and
    Frobenius is additive on them, so the roots of one kernel basis span
    the roots of them all.  While every root is itself a p-th power the
    peeling goes one level deeper; it returns the first level at which some
    root is not, the highest roots there.  Deeper levels are reached by the
    next pass, once these roots are in ``work``.
    """
    level = work
    while True:
        relations = _fp_relations([gradient(e) for e in level], p)
        powers = [_combine(v, level, p) for v in relations]
        powers = [x for x in powers if not x.is_constant()]
        if not powers:
            return []
        level = [frobenius_inverse(x) for x in powers]
        if not all(is_pth_power(r) for r in level):
            return level


def root_closure(elements, ambient, gradients=None):
    """Adjoin the p-th roots hidden in F_p-linear combinations of the elements.

    Each pass takes the F_p-kernel of the Jacobian of the current list (the
    combinations that are p-th powers) and adjoins the highest roots of its
    combinations, skipping a root already in the F_p-affine span of 1 and
    the list: such a root is a linear substitution and changes no bounded
    degree polynomial.  At most eight passes.  Every adjoined root is purely
    inseparable over the field the elements generate, so the transcendence
    degree is untouched while the Jacobian gains rows it can actually see.
    Returns (closed, added); ``gradients``, when given, is a dict that
    receives the Jacobian row of every element of the closure.
    """
    p = ambient.p
    work = []
    for e in elements:
        if e not in work:
            work.append(e)
    added = []
    if gradients is None:
        gradients = {}

    def gradient(e):
        if e not in gradients:
            gradients[e] = [partial(e, v) for v in ambient.vars]
        return gradients[e]

    for _ in range(8):
        changed = False
        for root in _root_candidates(work, gradient, p):
            if root not in work and not _in_affine_span(root, work, p):
                work.append(root)
                added.append(root)
                changed = True
        if not changed:
            break
    for e in added:  # the roots of an eighth pass that still changed
        gradient(e)
    return work, added


def certified_trdeg(elements, ambient, config=None):
    """Exact transcendence degree over F_p when certifiable.

    Returns (value, exact, details).  ``value`` is the Jacobian rank of the
    root closure, always a sound lower bound; it is the exact degree when
    every input element outside the greedy Jacobian basis is proven
    algebraic over that basis by a verified annihilator within the degree
    bound.  When the plain search fails, one retry adds the p-th powers of
    the basis roots the closure adjoined ("twisted" base): a relation that
    needs ``r^p`` for an adjoined root ``r`` then has low degree.  Its
    witness is listed under ``twisted_witnesses`` with the base it uses.
    """
    value, exact, details, _ = _certify(elements, ambient, config)
    return value, exact, details


def _certify(elements, ambient, config=None):
    """``certified_trdeg`` plus the root closure it was computed on."""
    config = config or default_config()
    elements = list(elements)
    if not elements:
        return 0, True, {"jacobian_rank": 0, "basis": [], "annihilators": []}, []
    gradients = {}
    closed, added = root_closure(elements, ambient, gradients)
    span = Echelon(ambient.p)
    selected = [e for e in closed if span.add_row(dict(enumerate(gradients[e])))]
    r = len(selected)
    details = {
        "jacobian_rank": r,
        "basis": [str(e) for e in selected],
        "closure_added": [str(e) for e in added],
        "annihilators": [],
    }
    # the twisted retry counts its largest system, C(|base| + 1 + D, D)
    # unknowns, before it runs; over the cap the element stays unproven
    # instead of raising
    twisted = selected + [s**ambient.p for s in selected if s in added]
    bound = config.degree_bound
    retry = len(twisted) > len(selected) and (
        comb(len(twisted) + 1 + bound, bound) <= config.annihilator_cap
    )
    exact = True
    for e in elements:
        if e in selected:
            continue
        if e.is_constant():
            continue
        witness = find_annihilator([e], selected, ambient, config)
        if witness is None and retry:
            # lowest degree first: the relation the twist exposes is often linear
            for degree in range(1, bound + 1):
                witness = find_annihilator([e], twisted, ambient, config, degree)
                if witness is not None:
                    twisted_witnesses = details.setdefault("twisted_witnesses", [])
                    twisted_witnesses.append(witness.to_jsonable())
                    break
        if witness is None:
            exact = False
            details.setdefault("unproven", []).append(str(e))
        else:
            details["annihilators"].append(witness.rendered)
    details["exact"] = exact
    return r, exact, details, closed


@dataclass
class AnnihilatorWitness:
    """A verified polynomial relation P(base, f) = 0.

    ``coefficients`` maps (base exponents, f exponents) to scalars; the
    relation is nontrivial in the sense that substituting only the base
    values leaves a nonzero polynomial in the f-block indeterminates.
    """

    p: int
    base_elements: list
    f_elements: list
    coefficients: dict
    rendered: str = ""

    def verify(self):
        pow_cache = {}

        def val(alpha, beta):
            total = RationalElement.one(self.p)
            for elems, exps in ((self.base_elements, alpha), (self.f_elements, beta)):
                for e, k in zip(elems, exps):
                    if k:
                        key = (id(e), k)
                        if key not in pow_cache:
                            pow_cache[key] = e**k
                        total = total * pow_cache[key]
            return total

        full = RationalElement.zero(self.p)
        for (alpha, beta), c in self.coefficients.items():
            full = full + val(alpha, beta) * c
        if not full.is_zero():
            return False
        # nonzero after substituting the base block only
        by_beta = {}
        for (alpha, beta), c in self.coefficients.items():
            acc = by_beta.get(beta, RationalElement.zero(self.p))
            by_beta[beta] = acc + val(alpha, tuple(0 for _ in beta)) * c
        return any(not g.is_zero() for g in by_beta.values())

    def to_jsonable(self):
        return {
            "polynomial": self.rendered,
            "base": [str(b) for b in self.base_elements],
            "dependent": [str(f) for f in self.f_elements],
        }


def _bounded_exponents(nvars, bound):
    """Exponent vectors with total degree <= bound, ascending (degree, lex)."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], bound)
    out.sort(key=lambda v: (sum(v), v))
    return out


def _render_annihilator(coefficients, nbase, nf):
    names = [f"b{i + 1}" for i in range(nbase)] + [f"y{j + 1}" for j in range(nf)]
    parts = []
    for (alpha, beta), c in sorted(
        coefficients.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0])
    ):
        exps = list(alpha) + list(beta)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors) if factors else "1"
        parts.append(body if c == 1 and factors else f"{c}*{body}" if factors else str(c))
    return " + ".join(parts)


def find_annihilator(f, base, ambient, config=None, degree=None):
    """Bounded search for a dependence of f over F_p(base).

    Solves the linear system "P(base, f) = 0 after clearing denominators"
    over F_p for all coefficient vectors of P with total degree at most the
    bound, then picks the first kernel vector that stays nonzero when only
    the base values are substituted.  Returns a verified witness or None.
    """
    config = config or default_config()
    bound = degree if degree is not None else config.degree_bound
    p = ambient.p
    nb, nf = len(base), len(f)
    monomials = _bounded_exponents(nb + nf, bound)
    if len(monomials) > config.annihilator_cap:
        raise SizeCapError(
            f"annihilator system has {len(monomials)} unknowns, "
            f"cap {config.annihilator_cap}"
        )
    pow_cache = {}

    def powed(e, k):
        key = (id(e), k)
        if key not in pow_cache:
            pow_cache[key] = e**k
        return pow_cache[key]

    values = []
    for vec in monomials:
        total = RationalElement.one(p)
        for e, k in zip(list(base) + list(f), vec):
            if k:
                total = total * powed(e, k)
        values.append(total)
    kernel_basis = _fp_relations([[v] for v in values], p)
    base_values = {}

    def base_value(alpha):
        if alpha not in base_values:
            total = RationalElement.one(p)
            for e, k in zip(base, alpha):
                if k:
                    total = total * powed(e, k)
            base_values[alpha] = total
        return base_values[alpha]

    zero_beta = tuple(0 for _ in range(nf))
    for vec in kernel_basis:
        coefficients = {}
        for col, c in enumerate(vec):
            c = int(c)
            if c:
                mono = monomials[col]
                coefficients[(mono[:nb], mono[nb:])] = c
        by_beta = {}
        for (alpha, beta), c in coefficients.items():
            acc = by_beta.get(beta, RationalElement.zero(p))
            by_beta[beta] = acc + base_value(alpha) * c
        if all(g.is_zero() for g in by_beta.values()):
            continue
        if set(by_beta) == {zero_beta}:
            continue
        witness = AnnihilatorWitness(
            p=p,
            base_elements=list(base),
            f_elements=list(f),
            coefficients=coefficients,
            rendered=_render_annihilator(coefficients, nb, nf),
        )
        if not witness.verify():
            raise InternalError("annihilator witness failed exact re-verification")
        return witness
    return None


def constant_witness(f, index, p):
    """Witness that the index-th family member is a prime-field scalar."""
    value = f[index].constant_value()
    beta_var = tuple(1 if j == index else 0 for j in range(len(f)))
    beta_zero = tuple(0 for _ in range(len(f)))
    coefficients = {((), beta_var): 1}
    if value:
        coefficients[((), beta_zero)] = (-value) % p
    witness = AnnihilatorWitness(
        p=p,
        base_elements=[],
        f_elements=list(f),
        coefficients=coefficients,
        rendered=_render_annihilator(coefficients, 0, len(f)),
    )
    if not witness.verify():
        raise InternalError("constant witness failed verification")
    return witness


def trdeg(f, base, ambient, config=None, degree=None):
    """Bounded check that the tuple f has full transcendence degree over base.

    Returns (lower_bound, verdict) where the verdict decides "trdeg(f/base)
    equals len(f)".  Certification path: the base is root-closed and its
    degree certified exactly; if the Jacobian of closure-plus-f then has full
    relative rank, independence is certain.  Refutation path: a verified
    annihilator.  Anything else is INCONCLUSIVE up to the degree bound.
    """
    config = config or default_config()
    bound = degree if degree is not None else config.degree_bound
    base = BaseSpec.coerce(base)
    f = list(f)
    if not f:
        return 0, Verdict.true(note="empty family")
    for idx, e in enumerate(f):
        if e.is_constant():
            witness = constant_witness(f, idx, ambient.p)
            return (
                0,
                Verdict.false(
                    kind="annihilator",
                    witness=witness.to_jsonable(),
                    note=f"family member {idx + 1} is the scalar {e}",
                ),
            )
    t_base, base_exact, base_details, closed_base = _certify(
        base.generators, ambient, config
    )
    r_joint = rank(jacobian(closed_base + f, ambient))
    lower = max(0, r_joint - (t_base if base_exact else len(base.generators)))
    if base_exact and r_joint == t_base + len(f):
        return (
            len(f),
            Verdict.true(
                kind="jacobian",
                joint_rank=r_joint,
                base_trdeg=t_base,
                base_certification=base_details,
            ),
        )
    witness = find_annihilator(f, closed_base, ambient, config, degree=bound)
    if witness is not None:
        return (
            lower,
            Verdict.false(kind="annihilator", witness=witness.to_jsonable()),
        )
    return (
        lower,
        Verdict.inconclusive(
            bound=bound,
            joint_jacobian_rank=r_joint,
            base_trdeg_lower=t_base,
            base_exact=base_exact,
        ),
    )
