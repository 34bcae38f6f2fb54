"""difftrap: an exact workbench for differential fields of characteristic p.

Everything is computed symbolically over F_p: canonical rational functions,
p-monomial decompositions, constants fields as Frobenius-semilinear kernels,
honest three-valued independence verdicts, the truncated trap criterion, and
the forking-independence checker on finitely presented towers.
"""

__version__ = "0.1.0"

from .bernoulli import (
    BernoulliSpec,
    bernoulli_perfectness,
    leibniz_reduce,
    make_bernoulli,
    power_map_check,
    verify_pmonomial_derivative,
)
from .constants import (
    ConstantsResult,
    TrapCertificate,
    constants,
    constants_at_stage,
    kolchin_crosscheck,
    p_basis_of_constants_root,
    trap_up_to,
)
from .errors import (
    AmbientTooSmallError,
    BadParameterError,
    DepthExceededError,
    InapplicableError,
    NotAPthPowerError,
    PreconditionError,
    ScenarioError,
    SizeCapError,
    UnknownVariableError,
    WorkbenchError,
)
from .expr import parse_expr
from .forking import (
    ForkingVerdict,
    builtin_scenario,
    check_acf_independence,
    check_forking,
    scenario_corpus,
)
from .independence import (
    BaseSpec,
    EngineConfig,
    certified_trdeg,
    default_config,
    find_annihilator,
    linear_independent_over_pk,
    p_basis_extend,
    p_independent,
    separably_independent,
    trdeg,
)
from .linalg import FFMatrix, dependence_witness, kernel, rank
from .pdecomp import (
    PDecomposition,
    PMonomial,
    all_pmonomials,
    frobenius_inverse,
    is_pth_power,
    p_decompose,
)
from .poly import Poly, PrimeField
from .presentation import (
    OPAQUE,
    DiffPresentation,
    SubfieldDecl,
    check_commutation,
    check_embedding,
    depth_budget,
    derive,
    derive_iter,
)
from .rational import RationalElement, partial, substitute
from .scenario import Report, Scenario, parse, print_scenario, run
from .verdict import Verdict
