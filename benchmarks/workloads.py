"""Seeded scenario generators and known answers for the difftrap benchmark.

A workload is a fixed grid of instances.  One *round* runs every grid point
once; the seed only decides, per round, the order of the grid points, the
names of all generators and fields, and (towers) the scalar c in F_p^* that
multiplies the ``lam^p`` / ``y^p`` terms.  None of these changes a known
answer, so every seed runs the same mix and the same known-answer table
applies.  Operations are never filtered on their outcome.

Renaming puts one tag in front of every generator and field name of an
operation.  A common prefix keeps the alphabetical order of the names, which
the polynomial layer uses as its monomial order, so the computation keeps
its shape while every operation text, and every polynomial built from it,
is distinct.  No cache kept across operations can turn a repeat into a hit.
"""

import random
import re
from dataclasses import dataclass

WORKLOADS = ("corpus", "bernoulli", "towers")

# Known answers per query kind.  An operation fails when a TRUE/FALSE verdict
# contradicts its entry; INCONCLUSIVE is undecided, never wrong.
CORPUS_ANSWERS = {
    "example-d1-free": {"constants": "TRUE", "trap": "TRUE", "forking": "TRUE"},
    "example-d1-constant": {"trap": "FALSE", "forking": "FALSE"},
    "srour-counterexample": {"pindep": "FALSE", "forking": "TRUE"},
    "degenerate-base": {"perfect": "TRUE", "forking": "TRUE"},
}
BERNOULLI_ANSWERS = {
    "perfect": "TRUE",
    "pindep": "TRUE",
    "forking": "TRUE",
    "bernoulli-perfect": "TRUE",
}
for _pair in ("bernoulli-pair(2,1,1)", "bernoulli-pair(2,1,2)", "bernoulli-pair(3,1,2)"):
    CORPUS_ANSWERS[_pair] = BERNOULLI_ANSWERS
TOWER_ANSWERS = {
    "d1-free": {"constants": "TRUE", "trap": "TRUE", "forking": "TRUE"},
    "d1-constant": {"pindep": "FALSE", "trap": "FALSE", "forking": "FALSE"},
    "srour": {"pindep": "FALSE", "forking": "TRUE"},
}

DEFAULT_DEGREE = 6


@dataclass(frozen=True)
class Operation:
    """One generated scenario: parse, run with certificates, render JSON."""

    label: str  # grid point, e.g. "srour(p=7,order=1,D=6)"
    name: str  # scenario name handed to the parser
    text: str
    degree: int  # annihilator degree bound of the engine config
    answers: dict  # query kind -> known status


# -- towers: the d1-free / d1-constant / srour shapes lifted to p ----------

_D1_FREE = """\
prime {p}
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
  embed w -> a + {c}*lam^{p}
  d1 w = 1
field M
  gens u w
  embed u -> a
  embed w -> a + {c}*lam^{p}
  d1 u = 1
  d1 w = 1
query constants M
query trap M order {order}
query forking K L over k compositum M order {order}
"""

_D1_CONSTANT = """\
prime {p}
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
  embed w -> a + {c}*lam^{p}
  d1 w = 1
field M
  gens u w
  embed u -> a
  embed w -> a + {c}*lam^{p}
  d1 u = 1
  d1 w = 1
query pindep {{a}} over {{a + {c}*lam^{p}}} in E
query trap M order {order}
query forking K L over k compositum M order {order}
"""

_SROUR = """\
prime {p}
derivations 1
ambient E
  gens x y y1 y2
  d1 x = 1
  d1 y = y1
  d1 y1 = y2
  d1 y2 = ?
field k
  gens
field K
  gens u
  embed u -> x
  d1 u = 1
field L
  gens w
  embed w -> x + {c}*y^{p}
  d1 w = 1
field M
  gens u w
  embed u -> x
  embed w -> x + {c}*y^{p}
  d1 u = 1
  d1 w = 1
query pindep {{x}} over {{x + {c}*y^{p}}} in E
query forking K L over k compositum M order {order}
"""

TOWER_SHAPES = {"d1-free": _D1_FREE, "d1-constant": _D1_CONSTANT, "srour": _SROUR}
TOWER_PRIMES = (3, 5, 7)
TOWER_ORDERS = (1, 2)
TOWER_DEGREES = (5, 6, 7)


# Oracle degree D per (shape, order) at p = 7.  At p = 7 a degree below 7
# makes the d1-free and srour searches run to exhaustion (INCONCLUSIVE),
# while D = 7 finds the degree-7 relation and decides them.
_DEGREE_AT_7 = {
    ("d1-free", 1): 6,
    ("d1-free", 2): 7,
    ("d1-constant", 1): 5,
    ("d1-constant", 2): 5,
    ("srour", 1): 6,
    ("srour", 2): 7,
}


def tower_degree(shape, p, order):
    """Oracle degree of a tower grid point.

    The table at p = 7 is rotated by one step per smaller prime, so across
    the primes every (shape, order) meets each of 5, 6, 7 once, and at p = 7
    each degree occurs twice.  D is part of the grid, not a per-seed draw: at
    p = 7 it moves one operation between 0.5 s and 4.3 s, so a per-seed draw
    would change the mix, and the timings, from seed to seed.
    """
    shift = TOWER_PRIMES.index(p) - TOWER_PRIMES.index(7)
    d7 = _DEGREE_AT_7[(shape, order)]
    return TOWER_DEGREES[(TOWER_DEGREES.index(d7) + shift) % 3]


def _tower_grid():
    grid = []
    for shape in TOWER_SHAPES:
        for p in TOWER_PRIMES:
            for order in TOWER_ORDERS:
                grid.append((shape, p, order, tower_degree(shape, p, order)))
    return grid


# -- the three workloads ---------------------------------------------------

CORPUS_NAMES = tuple(CORPUS_ANSWERS)
BERNOULLI_GRID = tuple(
    (p, k1, k2) for p in (3, 5, 7) for k1 in (1, 2) for k2 in (1, 2)
)
TOWER_GRID = tuple(_tower_grid())


def _grid(workload):
    from difftrap.forking import builtin_scenario

    if workload == "corpus":
        return [
            (name, builtin_scenario(name), DEFAULT_DEGREE, CORPUS_ANSWERS[name], None)
            for name in CORPUS_NAMES
        ]
    if workload == "bernoulli":
        out = []
        for p, k1, k2 in BERNOULLI_GRID:
            name = f"bernoulli-pair({p},{k1},{k2})"
            out.append((name, builtin_scenario(name), DEFAULT_DEGREE, BERNOULLI_ANSWERS, None))
        return out
    if workload == "towers":
        return [
            (
                f"{shape}(p={p},order={order},D={degree})",
                TOWER_SHAPES[shape],
                degree,
                TOWER_ANSWERS[shape],
                (p, order),
            )
            for shape, p, order, degree in TOWER_GRID
        ]
    raise ValueError(f"unknown workload {workload!r}")


_HEADER = re.compile(r"^\s*(?:ambient|field)\s+(\w+)\s*$")
_GENS = re.compile(r"^\s*gens\b(.*)$")
_IDENT = re.compile(r"(?<![\w=])([A-Za-z_]\w*)(?![\w=])")


def rename(text, tag):
    """Prefix every generator and field name of a scenario text with tag.

    Comments are dropped.  Keywords and the ``p=``/``k=`` parameters of a
    bernoulli-perfect query are left alone.
    """
    lines = [line.split("#", 1)[0].rstrip() for line in text.splitlines()]
    names = set()
    for line in lines:
        m = _HEADER.match(line) or _GENS.match(line)
        if m:
            names.update(m.group(1).split())
    out = []
    for line in lines:
        if not line:
            continue
        out.append(
            _IDENT.sub(lambda m: tag + m.group(1) if m.group(1) in names else m.group(1), line)
        )
    return "\n".join(out) + "\n"


def _tag(rng, round_index, position):
    letters = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
    return f"{letters}{round_index}n{position}_"


class Workload:
    """The grid of one workload and its seeded rounds."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.grid = _grid(name)

    def round(self, index):
        """The operations of round ``index``: every grid point once."""
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        order = list(range(len(self.grid)))
        rng.shuffle(order)
        ops = []
        for position, g in enumerate(order):
            label, template, degree, answers, lift = self.grid[g]
            if lift is not None:
                p, tower_order = lift
                c = rng.randrange(1, p)
                template = template.format(p=p, c=c, order=tower_order)
            tag = _tag(rng, index, position)
            ops.append(
                Operation(
                    label=label,
                    name=tag + "scenario",
                    text=rename(template, tag),
                    degree=degree,
                    answers=answers,
                )
            )
        return ops
