"""Constants fields, differential perfectness, and the trap checker.

Derivations are E^p-linear, so on a presented field M = F_p(vars) a
derivation is determined by one square matrix per derivation, indexed by the
p-monomials W of M: the row of w holds the p-decomposition coordinates of
d_i(w).  An element sum_w c_w^p w is a constant exactly when, for every
column v and every derivation, sum_w c_w * delta_{w,v} = 0; the p-th powers
collapse because Frobenius is injective.  The constants field is therefore
the joint kernel of the stacked transposed derivation matrices, computed by
exact elimination over the field, and M is differentially perfect exactly
when that kernel is spanned by the coordinate vector of the monomial 1.

``trap_up_to`` realizes the truncated almost-perfectness check: extract a
p-basis of the constants over M^p, pull its p-th roots out of the ambient
presentation, and test the family of their derivatives up to the requested
order for algebraic independence over the embedded generators of M.
"""

from dataclasses import dataclass
from itertools import product

from .errors import (
    AmbientTooSmallError,
    BadParameterError,
    DepthExceededError,
    InternalError,
    SizeCapError,
)
from .independence import (
    BaseSpec,
    default_config,
    p_basis_extend,
    trdeg,
)
from .linalg import FFMatrix, kernel
from .pdecomp import all_pmonomials, frobenius_inverse, is_pth_power, p_decompose
from .presentation import OPAQUE, derive, derive_word
from .rational import RationalElement
from .verdict import Verdict


@dataclass
class ConstantsResult:
    presentation: object
    kernel_basis: list
    dim: int
    perfect: bool

    def basis_strings(self):
        return [str(e) for e in self.kernel_basis]


@dataclass
class TrapCertificate:
    p_basis: list  # (constant in M, root in the ambient) pairs
    order: int
    derivative_family: list
    independence: Verdict | None

    def to_jsonable(self):
        return {
            "p_basis": [
                {"constant": str(b), "root": str(a)} for b, a in self.p_basis
            ],
            "order": self.order,
            "derivative_family": [str(e) for e in self.derivative_family],
            "independence": None
            if self.independence is None
            else self.independence.to_jsonable(),
        }


def _check_pmonomial_cap(pres, config):
    cap = pres.p**config.pmonomial_cap_exponent
    count = pres.p ** len(pres.vars)
    if count > cap:
        raise SizeCapError(
            f"{pres.name!r} has {count} p-monomials, cap {cap}"
        )


def constants(pres, config=None):
    """Kernel basis of the constants field of a fully presented field.

    Every generator must have defined first derivatives; each returned basis
    element is re-checked to differentiate to exactly zero.
    """
    config = config or default_config()
    for i in range(pres.m):
        for v in pres.vars:
            if pres.image(v, i) is OPAQUE:
                raise DepthExceededError(
                    f"constants of {pres.name!r} need d{i + 1} {v}"
                )
    return _constants_kernel(pres, config)


def _constants_kernel(pres, config):
    _check_pmonomial_cap(pres, config)
    p = pres.p
    pmons = all_pmonomials(p, pres.vars)
    index = {w: k for k, w in enumerate(pmons)}
    zero = RationalElement.zero(p)
    # conditions: for each derivation and target p-monomial v,
    # sum_w c_w * delta_{w, v} = 0
    condition_rows = {}
    for i in range(pres.m):
        for w in pmons:
            image = derive(w.as_element(), i, pres)
            decomp = p_decompose(image, pres.vars)
            for v, coeff in decomp.coords.items():
                condition_rows.setdefault((i, v), {})[index[w]] = coeff
    matrix = FFMatrix(p, list(condition_rows.values()), len(pmons))
    vectors = kernel(matrix)
    # the column of the monomial 1 is never constrained, so the first
    # echelonized kernel vector is the element 1
    if not vectors or not (
        vectors[0][0].is_one() and all(c.is_zero() for c in vectors[0][1:])
    ):
        raise InternalError("constants kernel lost the element 1")
    basis = []
    for vec in vectors:
        elem = zero
        for w, c in zip(pmons, vec):
            if c.is_zero():
                continue
            elem = elem + (c**p) * w.as_element()
        for i in range(pres.m):
            if not derive(elem, i, pres).is_zero():
                raise InternalError(
                    f"constant candidate {elem} fails d{i + 1} = 0"
                )
        basis.append(elem)
    return ConstantsResult(
        presentation=pres,
        kernel_basis=basis,
        dim=len(basis),
        perfect=(len(basis) == 1),
    )


def p_basis_of_constants_root(M, sub, ambient, config=None, result=None):
    """Extract a p-basis of the constants over M^p and its ambient p-th roots.

    Greedy over the echelonized kernel basis through ``p_basis_extend``:
    one echelon row decides each element, which is rejected when it lies in
    M^p(kept), the span already kept, because p-closure is a pregeometry.
    ``result`` is M's constants when the caller has them already.  Every
    kept constant must embed to a p-th power of the ambient presentation,
    otherwise the scenario's ambient is too small to host the root.
    """
    config = config or default_config()
    result = result or constants(M, config)
    chosen = p_basis_extend([], result.kernel_basis, BaseSpec([]), M, config)
    pairs = []
    for b in chosen:
        embedded = sub.embed(b)
        if not is_pth_power(embedded):
            raise AmbientTooSmallError(
                f"constant {b} of {M.name!r} embeds to {embedded}, "
                f"which has no p-th root in {ambient.name!r}"
            )
        pairs.append((b, frobenius_inverse(embedded)))
    return pairs


def derivative_orders(m, order, mixed=True):
    """Derivative words of total order 1..order.

    ``mixed`` enumerates all monomials in the commuting derivations; the
    restricted mode walks only iterates of single derivations.  The two
    coincide for m = 1.
    """
    words = []
    if mixed:
        for word in product(range(order + 1), repeat=m):
            if 1 <= sum(word) <= order:
                words.append(word)
        words.sort(key=lambda w: (sum(w), w))
    else:
        for i in range(m):
            for j in range(1, order + 1):
                word = tuple(j if k == i else 0 for k in range(m))
                words.append(word)
        words.sort(key=lambda w: (sum(w), w))
    return words


def trap_up_to(M, sub, ambient, order, config=None, result=None):
    """Truncated trap check: is the derivative family of the constants-root
    p-basis algebraically independent over the embedded generators of M?

    The verdict is explicitly relative to the inspected order.  An
    inconclusive underlying independence verdict is never upgraded to TRUE.
    ``result``, when given, is ``constants(M, config)``, computed once.
    """
    config = config or default_config()
    if order < 0:
        raise BadParameterError("order must be nonnegative")
    pairs = p_basis_of_constants_root(M, sub, ambient, config, result)
    if not pairs:
        return (
            Verdict.true(order=order, note="constants already equal M^p"),
            TrapCertificate(p_basis=[], order=order, derivative_family=[], independence=None),
        )
    family = []
    members = []
    for _, root in pairs:
        for word in derivative_orders(ambient.m, order, config.mixed_derivatives):
            value = derive_word(root, word, ambient)
            family.append(value)
            members.append(
                {
                    "root": str(root),
                    "word": list(word),
                    "order": sum(word),
                    "value": str(value),
                }
            )
    base = BaseSpec(sub.embedded_generators())
    _, verdict = trdeg(family, base, ambient, config)
    certificate = TrapCertificate(
        p_basis=pairs, order=order, derivative_family=family, independence=verdict
    )
    if verdict.is_true:
        out = Verdict.true(order=order, family=members)
    elif verdict.is_false:
        out = Verdict.false(
            order=order,
            family=members,
            witness=verdict.certificate,
        )
    else:
        out = Verdict.inconclusive(bound=verdict.bound, order=order, family=members)
    return out, certificate
