"""Outside-in layer tracer for the difftrap benchmark.

The tracer replaces a fixed list of public functions of the library with
timing wrappers.  A function is replaced at *every* module binding that holds
it (``difftrap.linalg.kernel`` and the ``kernel`` that ``difftrap.constants``
imported from it), so calls are seen whichever module makes them, and every
binding is put back when the tracer is closed.

Each wrapped call records a span (name, start, end, parent) in memory.  Self
time of a span is its duration minus the time its direct child spans cover.
Some functions also feed counters computed from their arguments and results
(matrix cells, annihilator unknowns, witnesses found, distinct
presentations, constants-kernel dimensions).

Rational-function arithmetic runs through operator methods and is not
wrapped; its time counts in the self time of whichever span called it.
"""

import functools
import gzip
import sys
import time
from array import array
from math import comb

import numpy as np

# (module, attribute, span name).  The attribute is looked up on the module
# that defines it; the span name is what the metrics use.
TARGETS = [
    ("scenario", "validate", "scenario.validate"),
    ("scenario", "_run_query", "scenario.query"),
    ("presentation", "derive", "presentation.derive"),
    ("presentation", "check_embedding", "presentation.check_embedding"),
    ("pdecomp", "p_decompose", "pdecomp.p_decompose"),
    ("poly", "gcd", "poly.gcd"),
    ("poly", "exact_div", "poly.exact_div"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "dependence_witness", "linalg.dependence_witness"),
    ("linalg", "kernel_mod_p", "linalg.kernel_mod_p"),
    ("independence", "linear_independent_over_pk", "independence.linear_independent_over_pk"),
    ("independence", "p_independent", "independence.p_independent"),
    ("independence", "root_closure", "independence.root_closure"),
    ("independence", "certified_trdeg", "independence.certified_trdeg"),
    ("independence", "find_annihilator", "independence.find_annihilator"),
    ("independence", "trdeg", "independence.trdeg"),
    ("constants", "constants", "constants.constants"),
    ("constants", "p_basis_of_constants_root", "constants.p_basis_of_constants_root"),
    ("constants", "trap_up_to", "constants.trap_up_to"),
    ("forking", "check_forking", "forking.check_forking"),
    ("bernoulli", "bernoulli_perfectness", "bernoulli.bernoulli_perfectness"),
]

PACKAGE = "difftrap"
_COUNTED = frozenset(
    [
        "linalg.kernel",
        "linalg.rank",
        "linalg.kernel_mod_p",
        "independence.find_annihilator",
        "constants.constants",
    ]
)


def _matrix_cells(matrix):
    return matrix.nrows * matrix.ncols


def _array_cells(matrix):
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


def _annihilator_unknowns(f, base, ambient, config=None, degree=None):
    bound = degree if degree is not None else (config.degree_bound if config else 6)
    nvars = len(base) + len(f)
    return comb(nvars + bound, bound)


def _presentation_key(pres):
    images = tuple(
        tuple((v, str(img)) for v, img in sorted(imap.items())) for imap in pres.images
    )
    return (pres.p, pres.m, tuple(pres.vars), images)


class Tracer:
    """Wraps the library's layer functions while open; see the module doc.

    Use as a context manager.  ``begin_operation`` marks where one benchmark
    operation starts, so per-operation counters (distinct presentations) can
    be reset, and ``span`` records a span around the benchmark's own calls.
    Spans live in flat arrays (name id, start ns, end ns, parent index or
    -1): a traced round of the towers workload records about 1.5 million.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self.counters = {}
        self._stack = [-1]
        self._patched = []  # (module, binding, original)
        self._seen_presentations = set()
        self.round_ends = []  # span count at the end of each round

    def __len__(self):
        return len(self._name)

    # -- counters ---------------------------------------------------------

    def _add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count(self, name, args, kwargs, result):
        if name in ("linalg.kernel", "linalg.rank"):
            self._add(name + ".cells", _matrix_cells(args[0]))
        elif name == "linalg.kernel_mod_p":
            self._add(name + ".cells", _array_cells(args[0]))
        elif name == "independence.find_annihilator":
            self._add(name + ".unknowns", _annihilator_unknowns(*args, **kwargs))
            if result is not None:
                self._add(name + ".witnesses")
        elif name == "constants.constants":
            self._add("constants.kernel_dim", result.dim)
            key = _presentation_key(args[0])
            if key not in self._seen_presentations:
                self._seen_presentations.add(key)
                self._add(name + ".distinct")

    def begin_operation(self):
        self._seen_presentations = set()

    # -- spans ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, name, name_id, fn, args, kwargs):
        stack = self._stack
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(stack[-1])
        self._start.append(0)
        self._end.append(0)
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._start[index] = start
            self._end[index] = end
        if name in _COUNTED:
            self._count(name, args, kwargs, result)
        return result

    def span(self, span_name, fn, /, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called span_name."""
        return self._record(span_name, self._name_id(span_name), fn, args, kwargs)

    def _wrapper(self, name, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, name_id, fn, args, kwargs)

        traced.__traced_original__ = fn
        return traced

    # -- binding management -----------------------------------------------

    def open(self):
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrapper(span_name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patched.append((module, binding, original))
        return self

    def close(self):
        while self._patched:
            module, binding, original = self._patched.pop()
            setattr(module, binding, original)

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()
        return False

    # -- analysis ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total ms and self ms, plus the counters."""
        names = np.frombuffer(self._name, dtype=np.uint16)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(
            self._start, dtype=np.int64
        )
        child = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - child, minlength=k)
        out = {
            name: {
                "calls": int(calls[i]),
                "ms": float(total[i]) / 1e6,
                "self_ms": float(own[i]) / 1e6,
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }
        return out, dict(self.counters)

    def write_spans(self, path, limit=None):
        """Write the first ``limit`` spans (all by default) as gzipped TSV:
        name, start ns, end ns, parent index."""
        n = len(self) if limit is None else min(limit, len(self))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(n):
                fh.write(
                    f"{self.names[self._name[i]]}\t{self._start[i]}\t"
                    f"{self._end[i]}\t{self._parent[i]}\n"
                )


def leftover_wrappers():
    """Module bindings of the package that still hold a traced wrapper."""
    out = []
    for n, module in sorted(sys.modules.items()):
        if module is None or not (n == PACKAGE or n.startswith(PACKAGE + ".")):
            continue
        for binding, value in vars(module).items():
            if hasattr(value, "__traced_original__"):
                out.append(f"{n}.{binding}")
    return out
