"""The forking-independence checker on declared towers.

For declared subfields k, K, L with compositum M inside the ambient
presentation, the check conjoins two verdicts:

* algebraic independence of K and L over k, decided through the additivity
  identity trdeg(KL/k) = trdeg(K/k) + trdeg(L/k).  Each side is expressed
  through exact set degrees (trdeg(k), trdeg(kK), trdeg(kL), trdeg(kKL))
  so interval reasoning stays sound when some degree is only bounded:
  joint-plus-base never exceeds the sum of the sides, so a pinched interval
  decides the question in either direction;
* the compositum being trap up to the requested derivative order.

FALSE dominates, TRUE needs both parts certified, anything else is reported
INCONCLUSIVE with the blocking part named.  The compositum is declared by
the scenario author with its own presentation; expressing ambient
derivatives in compositum generators is a field-membership problem this
tool does not attempt, so consistency is enforced through the embedding
checks instead.
"""

from dataclasses import dataclass

from .constants import constants, trap_up_to
from .errors import BadParameterError, DepthExceededError
from .independence import certified_trdeg, default_config
from .verdict import Verdict


@dataclass
class ForkingVerdict:
    acf_part: Verdict
    trap_part: Verdict
    overall: Verdict
    diagnostics: dict

    def to_jsonable(self, with_certificate=True):
        return {
            "acf": self.acf_part.to_jsonable(with_certificate),
            "trap": self.trap_part.to_jsonable(with_certificate),
            "overall": self.overall.to_jsonable(with_certificate),
            "diagnostics": self.diagnostics,
        }


def _interval(value, exact, size):
    return (value, value if exact else size)


def check_acf_independence(K, L, k, ambient, config=None):
    """Verdict for "K and L are algebraically independent over k".

    K, L, k are lists of embedded generators.  Works with the four set
    degrees; certified exact values pin the additivity equation, otherwise
    sound intervals may still decide it.
    """
    config = config or default_config()
    k = list(k)
    joint_K = k + [e for e in K if e not in k]
    joint_L = k + [e for e in L if e not in k]
    joint_all = joint_K + [e for e in joint_L if e not in joint_K]
    coincidences = [
        str(e) for e in joint_L if e not in k and e in joint_K
    ]
    t_k, ex_k, d_k = certified_trdeg(k, ambient, config)
    t_kK, ex_kK, d_kK = certified_trdeg(joint_K, ambient, config)
    t_kL, ex_kL, d_kL = certified_trdeg(joint_L, ambient, config)
    t_all, ex_all, d_all = certified_trdeg(joint_all, ambient, config)
    lhs_lo = t_all + t_k
    lhs_hi = (t_all if ex_all else len(joint_all)) + (t_k if ex_k else len(k))
    rhs_lo = t_kK + t_kL
    rhs_hi = (t_kK if ex_kK else len(joint_K)) + (t_kL if ex_kL else len(joint_L))
    detail = {
        "trdeg_base": [t_k, ex_k],
        "trdeg_base_K": [t_kK, ex_kK],
        "trdeg_base_L": [t_kL, ex_kL],
        "trdeg_joint": [t_all, ex_all],
    }
    # always lhs <= rhs; independence is exactly equality
    if lhs_lo >= rhs_hi:
        return Verdict.true(additivity=detail)
    if lhs_hi < rhs_lo:
        witnesses = d_all.get("annihilators", []) + d_k.get("annihilators", [])
        if coincidences:
            witnesses = witnesses + [
                f"shared generator {e}" for e in coincidences
            ]
        return Verdict.false(
            kind="trdeg-deficit",
            additivity=detail,
            witnesses=witnesses,
        )
    return Verdict.inconclusive(bound=config.degree_bound, additivity=detail)


def check_forking(k, K, L, M, ambient, order, config=None):
    """Conjunction of the algebraic-independence and trap conditions.

    The SubfieldDecl arguments are assumed embedding-validated.  Declared
    generator consistency (M covers K and L) is re-checked here because the
    verdict is meaningless on a mismatched tower.
    """
    config = config or default_config()
    m_gens = M.embedded_generators()
    for part in (K, L):
        for g in part.embedded_generators():
            if g not in m_gens:
                raise BadParameterError(
                    f"compositum {M.name!r} does not carry the generator {g} "
                    f"of {part.name!r}"
                )
    diagnostics = {}
    m_constants = None  # M's constants, handed on to the trap check
    for decl in (k, K, L, M):
        try:
            result = constants(decl.pres, config)
        except DepthExceededError:
            diagnostics[f"perfect({decl.name})"] = None
            continue
        diagnostics[f"perfect({decl.name})"] = result.perfect
        if decl is M:
            m_constants = result
    acf = check_acf_independence(
        K.embedded_generators(),
        L.embedded_generators(),
        k.embedded_generators(),
        ambient,
        config,
    )
    trap, trap_cert = trap_up_to(M.pres, M, ambient, order, config, m_constants)
    if acf.is_false or trap.is_false:
        failing = "acf" if acf.is_false else "trap"
        overall = Verdict.false(
            failing_part=failing,
            witness=(acf if acf.is_false else trap).certificate,
        )
    elif acf.is_true and trap.is_true:
        overall = Verdict.true()
    else:
        blocking = []
        if not acf.is_true:
            blocking.append("acf")
        if not trap.is_true:
            blocking.append("trap")
        overall = Verdict.inconclusive(
            bound=config.degree_bound, blocking_parts=blocking
        )
    diagnostics["trap_certificate"] = trap_cert.to_jsonable()
    return ForkingVerdict(
        acf_part=acf, trap_part=trap, overall=overall, diagnostics=diagnostics
    )


# -- builtin scenarios ------------------------------------------------------

_D1_FREE = """\
# two solutions of d(x) = 1 at independent positions; the difference has a
# p-th root with a free derivative tower
prime 2
derivations 1
ambient E
  gens a lam lam1 lam2 lam3
  d1 a = 1
  d1 lam = lam1
  d1 lam1 = lam2
  d1 lam2 = lam3
  d1 lam3 = ?
field k
  gens
field K
  gens u
  embed u -> a
  d1 u = 1
field L
  gens w
  embed w -> a + lam^2
  d1 w = 1
field M
  gens u w
  embed u -> a
  embed w -> a + lam^2
  d1 u = 1
  d1 w = 1
query constants M
query trap M order 2
query forking K L over k compositum M order 2
"""

_D1_CONSTANT = """\
# same tower, but the root of the difference is a constant: the trap
# condition fails with witness d(lam) = 0
prime 2
derivations 1
ambient E
  gens a lam
  d1 a = 1
  d1 lam = 0
field k
  gens
field K
  gens u
  embed u -> a
  d1 u = 1
field L
  gens w
  embed w -> a + lam^2
  d1 w = 1
field M
  gens u w
  embed u -> a
  embed w -> a + lam^2
  d1 u = 1
  d1 w = 1
query trap M order 2
query forking K L over k compositum M order 2
"""

_SROUR = """\
# x and x + y^p are algebraically independent but not p-independent
prime 2
derivations 1
ambient E
  gens x y y1
  d1 x = 1
  d1 y = y1
  d1 y1 = ?
field k
  gens
field K
  gens u
  embed u -> x
  d1 u = 1
field L
  gens w
  embed w -> x + y^2
  d1 w = 1
field M
  gens u w
  embed u -> x
  embed w -> x + y^2
  d1 u = 1
  d1 w = 1
query pindep {x} over {x + y^2} in E
query forking K L over k compositum M order 1
"""

_DEGENERATE = """\
# degenerate tower: K equals the base field, so forking reduces to the
# perfectness of L
prime 2
derivations 1
ambient E
  gens a
  d1 a = 1
field k
  gens
field K
  gens
field L
  gens u
  embed u -> a
  d1 u = 1
field M
  gens u
  embed u -> a
  d1 u = 1
query perfect L
query forking K L over k compositum M order 1
"""


def _bernoulli_pair_text(p, k1, k2):
    from .poly import is_prime

    if not is_prime(p):
        raise BadParameterError(f"{p} is not prime")
    if k1 < 1 or k2 < 1:
        raise BadParameterError("tower exponents must be at least 1")
    n1 = p**k1 + 1
    n2 = p**k2 + 1
    return f"""\
# two generic solutions of d(T) = T^(p^k + 1) for k = {k1} and k = {k2}
prime {p}
derivations 1
ambient E
  gens a b
  d1 a = a^{n1}
  d1 b = b^{n2}
field k
  gens
field K
  gens u
  embed u -> a
  d1 u = u^{n1}
field L
  gens w
  embed w -> b
  d1 w = w^{n2}
field M
  gens u w
  embed u -> a
  embed w -> b
  d1 u = u^{n1}
  d1 w = w^{n2}
query perfect M
query pindep {{a, b}} over {{}} in E
query forking K L over k compositum M order 1
query bernoulli-perfect p={p} k={k1},{k2}
"""


def builtin_scenario(name):
    """Emit a ready-to-run scenario in the DSL."""
    if name == "example-d1-free":
        return _D1_FREE
    if name == "example-d1-constant":
        return _D1_CONSTANT
    if name == "srour-counterexample":
        return _SROUR
    if name == "degenerate-base":
        return _DEGENERATE
    if name.startswith("bernoulli-pair"):
        params = name[len("bernoulli-pair") :]
        if not (params.startswith("(") and params.endswith(")")):
            raise BadParameterError(
                "expected bernoulli-pair(p,k1,k2), e.g. bernoulli-pair(2,1,2)"
            )
        try:
            p, k1, k2 = (int(x) for x in params[1:-1].split(","))
        except ValueError as exc:
            raise BadParameterError(f"bad bernoulli-pair parameters: {params}") from exc
        return _bernoulli_pair_text(p, k1, k2)
    raise BadParameterError(f"unknown builtin scenario {name!r}")


BUILTIN_NAMES = [
    "example-d1-free",
    "example-d1-constant",
    "srour-counterexample",
    "degenerate-base",
    "bernoulli-pair(2,1,1)",
    "bernoulli-pair(2,1,2)",
    "bernoulli-pair(3,1,2)",
]


def scenario_corpus():
    """The builtin corpus used by the selftest and the checker properties."""
    return [(name, builtin_scenario(name)) for name in BUILTIN_NAMES]
