"""The scenario DSL: parsing, canonical printing, validation and running.

A scenario file is line oriented; ``#`` starts a comment.  It declares the
prime, the number of derivations, one ambient presentation, any number of
named subfields with embeddings, and an ordered list of queries:

    prime 2
    derivations 1
    ambient E
      gens a lam
      d1 a = 1
      d1 lam = ?
    field K
      gens u
      embed u -> a
      d1 u = 1
    query perfect K

Query forms:

    query perfect <field>
    query constants <field>
    query pindep {<expr>, ...} over {<expr>, ...} in <ambient>
    query sepindep {<id>, ...} in <field>
    query trap <field> order <int>
    query forking <K> <L> over <k> compositum <M> order <int>
    query bernoulli-perfect p=<int> k=<int>[,<int>...]

Subfields may declare ``gens`` with no names (the prime field), which towers
need for their base field.  Validation (derivation commutation plus every
embedding check) runs before any query; reports are deterministic and
byte-identical across runs unless timings are requested.
"""

import hashlib
import json
import re
import time
from dataclasses import dataclass

from . import __version__
from .bernoulli import bernoulli_perfectness
from .constants import constants, trap_up_to
from .errors import (
    InternalError,
    ScenarioError,
    UnknownVariableError,
    WorkbenchError,
)
from .expr import parse_expr
from .forking import check_forking
from .independence import (
    BaseSpec,
    default_config,
    p_independent,
    separably_independent,
)
from .poly import is_prime
from .presentation import (
    OPAQUE,
    DiffPresentation,
    SubfieldDecl,
    check_commutation,
    check_embedding,
)
from .verdict import Verdict, _jsonable


@dataclass
class Query:
    kind: str
    args: dict
    line: int

    def render(self):
        a = self.args
        if self.kind == "perfect":
            return f"perfect {a['field']}"
        if self.kind == "constants":
            return f"constants {a['field']}"
        if self.kind == "pindep":
            s = ", ".join(a["elements"])
            b = ", ".join(a["base"])
            return f"pindep {{{s}}} over {{{b}}} in {a['ambient']}"
        if self.kind == "sepindep":
            s = ", ".join(a["names"])
            return f"sepindep {{{s}}} in {a['field']}"
        if self.kind == "trap":
            return f"trap {a['field']} order {a['order']}"
        if self.kind == "forking":
            return (
                f"forking {a['K']} {a['L']} over {a['k']} "
                f"compositum {a['M']} order {a['order']}"
            )
        if self.kind == "bernoulli-perfect":
            ks = ",".join(str(k) for k in a["ks"])
            return f"bernoulli-perfect p={a['p']} k={ks}"
        raise AssertionError(self.kind)


@dataclass
class Scenario:
    prime: int
    derivations: int
    ambient: DiffPresentation
    fields: dict
    queries: list
    name: str = "scenario"

    def field_decl(self, name, line=None):
        if name not in self.fields:
            raise ScenarioError(
                f"unknown field {name!r}", line=line, kind="UNKNOWN_NAME"
            )
        return self.fields[name]


_GENS = re.compile(r"^gens(?:\s+(.*))?$")
_DLINE = re.compile(r"^d(\d+)\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_EMBED = re.compile(r"^embed\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*(.+)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _strip_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_braced(body, line_no, what):
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ScenarioError(f"expected {{...}} for {what}", line=line_no)
    inner = body[1:-1].strip()
    if not inner:
        return []
    return [part.strip() for part in inner.split(",")]


class _BlockSpec:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.gens = None
        self.images = {}
        self.embeds = {}


def _parse_dsl_expr(text, prime, allowed, line):
    try:
        return parse_expr(text, prime, allowed_vars=allowed, line=line)
    except UnknownVariableError as exc:
        raise ScenarioError(str(exc), line=line, kind="UNKNOWN_NAME") from exc


def parse(text, name="scenario"):
    """Parse scenario text; errors carry line, column and the offending token."""
    prime = None
    derivations = None
    ambient_spec = None
    field_specs = []
    queries = []
    current = None
    is_ambient = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "prime":
            if prime is not None:
                raise ScenarioError("prime declared twice", line=line_no, kind="DUPLICATE_NAME")
            try:
                prime = int(rest)
            except ValueError:
                raise ScenarioError("prime must be an integer", line=line_no, token=rest)
            if not is_prime(prime):
                raise ScenarioError(f"{prime} is not prime", line=line_no, kind="BAD_PRIME")
            continue
        if head == "derivations":
            if derivations is not None:
                raise ScenarioError("derivations declared twice", line=line_no, kind="DUPLICATE_NAME")
            try:
                derivations = int(rest)
            except ValueError:
                raise ScenarioError("derivations must be an integer", line=line_no, token=rest)
            if derivations < 1:
                raise ScenarioError("need at least one derivation", line=line_no)
            continue
        if head in ("ambient", "field"):
            if prime is None or derivations is None:
                raise ScenarioError(
                    "prime and derivations must come before blocks", line=line_no
                )
            if not _NAME.match(rest):
                raise ScenarioError("bad block name", line=line_no, token=rest)
            current = _BlockSpec(rest, line_no)
            if head == "ambient":
                if ambient_spec is not None:
                    raise ScenarioError(
                        "only one ambient presentation allowed",
                        line=line_no,
                        kind="DUPLICATE_NAME",
                    )
                ambient_spec = current
                is_ambient = True
            else:
                if any(f.name == rest for f in field_specs) or (
                    ambient_spec and ambient_spec.name == rest
                ):
                    raise ScenarioError(
                        f"name {rest!r} already declared",
                        line=line_no,
                        kind="DUPLICATE_NAME",
                    )
                field_specs.append(current)
                is_ambient = False
            continue
        if head == "query":
            queries.append(_parse_query(rest, line_no))
            current = None
            continue
        m = _GENS.match(line)
        if m:
            if current is None:
                raise ScenarioError("gens outside a block", line=line_no)
            if current.gens is not None:
                raise ScenarioError("gens declared twice", line=line_no, kind="DUPLICATE_NAME")
            names = (m.group(1) or "").split()
            for g in names:
                if not _NAME.match(g):
                    raise ScenarioError("bad generator name", line=line_no, token=g)
            if len(set(names)) != len(names):
                raise ScenarioError("duplicate generator", line=line_no, kind="DUPLICATE_NAME")
            if is_ambient and not names:
                raise ScenarioError("the ambient needs at least one generator", line=line_no)
            current.gens = names
            continue
        m = _DLINE.match(line)
        if m:
            if current is None:
                raise ScenarioError("derivation line outside a block", line=line_no)
            idx = int(m.group(1))
            if not 1 <= idx <= derivations:
                raise ScenarioError(
                    f"derivation index d{idx} out of range", line=line_no
                )
            key = (idx, m.group(2))
            if key in current.images:
                raise ScenarioError(
                    f"d{idx} {m.group(2)} declared twice", line=line_no, kind="DUPLICATE_NAME"
                )
            current.images[key] = (m.group(3).strip(), line_no)
            continue
        m = _EMBED.match(line)
        if m:
            if current is None or is_ambient:
                raise ScenarioError("embed outside a field block", line=line_no)
            if m.group(1) in current.embeds:
                raise ScenarioError(
                    f"embed {m.group(1)} declared twice", line=line_no, kind="DUPLICATE_NAME"
                )
            current.embeds[m.group(1)] = (m.group(2).strip(), line_no)
            continue
        raise ScenarioError("unrecognized line", line=line_no, token=head)

    if prime is None or derivations is None:
        raise ScenarioError("missing prime or derivations", line=1)
    if ambient_spec is None:
        raise ScenarioError("missing ambient presentation", line=1)
    ambient = _build_presentation(ambient_spec, prime, derivations)
    fields = {}
    for spec in field_specs:
        pres = _build_presentation(spec, prime, derivations)
        embedding = {}
        for v in pres.vars:
            if v not in spec.embeds:
                raise ScenarioError(
                    f"field {spec.name!r}: generator {v!r} has no embed line",
                    line=spec.line,
                    kind="UNKNOWN_NAME",
                )
            text_expr, eline = spec.embeds[v]
            embedding[v] = _parse_dsl_expr(
                text_expr, prime, set(ambient.vars), eline
            )
        for v in spec.embeds:
            if v not in pres.vars:
                raise ScenarioError(
                    f"field {spec.name!r}: embed for unknown generator {v!r}",
                    line=spec.embeds[v][1],
                    kind="UNKNOWN_NAME",
                )
        fields[spec.name] = SubfieldDecl(spec.name, pres, embedding)
    scenario = Scenario(
        prime=prime,
        derivations=derivations,
        ambient=ambient,
        fields=fields,
        queries=queries,
        name=name,
    )
    _resolve_query_names(scenario)
    return scenario


def _build_presentation(spec, prime, derivations):
    if spec.gens is None:
        raise ScenarioError(f"block {spec.name!r} has no gens line", line=spec.line)
    varset = set(spec.gens)
    images = []
    for i in range(1, derivations + 1):
        imap = {}
        for v in spec.gens:
            if (i, v) not in spec.images:
                raise ScenarioError(
                    f"block {spec.name!r}: no d{i} image for {v!r}",
                    line=spec.line,
                    kind="UNKNOWN_NAME",
                )
            text_expr, line_no = spec.images[(i, v)]
            if text_expr == "?":
                imap[v] = OPAQUE
            else:
                imap[v] = _parse_dsl_expr(text_expr, prime, varset, line_no)
        images.append(imap)
    for (i, v) in spec.images:
        if v not in varset:
            raise ScenarioError(
                f"block {spec.name!r}: derivation of unknown generator {v!r}",
                line=spec.images[(i, v)][1],
                kind="UNKNOWN_NAME",
            )
    return DiffPresentation(spec.name, prime, derivations, spec.gens, images)


def _parse_query(rest, line_no):
    head, _, body = rest.partition(" ")
    body = body.strip()
    if head == "perfect" or head == "constants":
        if not _NAME.match(body):
            raise ScenarioError(f"query {head} needs a field name", line=line_no, token=body)
        return Query(head, {"field": body}, line_no)
    if head == "pindep":
        m = re.match(r"^(\{.*?\})\s+over\s+(\{.*?\})\s+in\s+([A-Za-z_]\w*)$", body)
        if not m:
            raise ScenarioError(
                "expected: pindep {exprs} over {exprs} in <ambient>", line=line_no
            )
        return Query(
            "pindep",
            {
                "elements": _split_braced(m.group(1), line_no, "the tested set"),
                "base": _split_braced(m.group(2), line_no, "the base set"),
                "ambient": m.group(3),
            },
            line_no,
        )
    if head == "sepindep":
        m = re.match(r"^(\{.*?\})\s+in\s+([A-Za-z_]\w*)$", body)
        if not m:
            raise ScenarioError("expected: sepindep {ids} in <field>", line=line_no)
        names = _split_braced(m.group(1), line_no, "the variable set")
        for n in names:
            if not _NAME.match(n):
                raise ScenarioError("sepindep takes variable names", line=line_no, token=n)
        return Query("sepindep", {"names": names, "field": m.group(2)}, line_no)
    if head == "trap":
        m = re.match(r"^([A-Za-z_]\w*)\s+order\s+(\d+)$", body)
        if not m:
            raise ScenarioError("expected: trap <field> order <int>", line=line_no)
        return Query("trap", {"field": m.group(1), "order": int(m.group(2))}, line_no)
    if head == "forking":
        m = re.match(
            r"^([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s+over\s+([A-Za-z_]\w*)\s+"
            r"compositum\s+([A-Za-z_]\w*)\s+order\s+(\d+)$",
            body,
        )
        if not m:
            raise ScenarioError(
                "expected: forking <K> <L> over <k> compositum <M> order <int>",
                line=line_no,
            )
        return Query(
            "forking",
            {
                "K": m.group(1),
                "L": m.group(2),
                "k": m.group(3),
                "M": m.group(4),
                "order": int(m.group(5)),
            },
            line_no,
        )
    if head == "bernoulli-perfect":
        m = re.match(r"^p=(\d+)\s+k=(\d+(?:,\d+)*)$", body)
        if not m:
            raise ScenarioError(
                "expected: bernoulli-perfect p=<int> k=<int>[,<int>...]", line=line_no
            )
        p = int(m.group(1))
        if not is_prime(p):
            raise ScenarioError(f"{p} is not prime", line=line_no, kind="BAD_PRIME")
        ks = [int(x) for x in m.group(2).split(",")]
        return Query("bernoulli-perfect", {"p": p, "ks": ks}, line_no)
    raise ScenarioError(f"unknown query kind {head!r}", line=line_no, token=head)


def _resolve_query_names(scenario):
    for q in scenario.queries:
        a = q.args
        if q.kind in ("perfect", "constants", "trap", "sepindep"):
            scenario.field_decl(a["field"], q.line)
        elif q.kind == "pindep":
            if a["ambient"] != scenario.ambient.name:
                raise ScenarioError(
                    f"unknown ambient {a['ambient']!r}", line=q.line, kind="UNKNOWN_NAME"
                )
            varset = set(scenario.ambient.vars)
            a["elements_parsed"] = [
                _parse_dsl_expr(t, scenario.prime, varset, q.line)
                for t in a["elements"]
            ]
            a["base_parsed"] = [
                _parse_dsl_expr(t, scenario.prime, varset, q.line)
                for t in a["base"]
            ]
            a["elements"] = [str(e) for e in a["elements_parsed"]]
            a["base"] = [str(e) for e in a["base_parsed"]]
        elif q.kind == "forking":
            for key in ("K", "L", "k", "M"):
                scenario.field_decl(a[key], q.line)
        if q.kind == "sepindep":
            decl = scenario.field_decl(a["field"], q.line)
            unknown = [n for n in a["names"] if n not in decl.pres.vars]
            if unknown:
                raise ScenarioError(
                    f"sepindep names not generators of {a['field']!r}: {unknown}",
                    line=q.line,
                    kind="UNKNOWN_NAME",
                )


def print_scenario(scenario):
    """Canonical pretty-printer; parse(print_scenario(s)) reproduces s."""
    out = [f"prime {scenario.prime}", f"derivations {scenario.derivations}"]

    def block(header, pres, embedding=None):
        out.append(header)
        out.append("  gens" + ("" if not pres.vars else " " + " ".join(pres.vars)))
        if embedding is not None:
            for v in pres.vars:
                out.append(f"  embed {v} -> {embedding[v]}")
        for i in range(pres.m):
            for v in pres.vars:
                img = pres.image(v, i)
                rendered = "?" if img is OPAQUE else str(img)
                out.append(f"  d{i + 1} {v} = {rendered}")

    block(f"ambient {scenario.ambient.name}", scenario.ambient)
    for name, decl in scenario.fields.items():
        block(f"field {name}", decl.pres, decl.embedding)
    for q in scenario.queries:
        out.append(f"query {q.render()}")
    return "\n".join(out) + "\n"


def scenario_digest(scenario):
    canonical = print_scenario(scenario)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Report:
    scenario: Scenario
    validation: dict
    results: list
    with_certificates: bool = False
    with_timings: bool = False

    @property
    def validation_failed(self):
        return any(
            v.get("status") in ("FALSE", "ERROR") for v in self.validation.values()
        )

    def to_jsonable(self):
        queries = []
        for entry in self.results:
            item = {
                "index": entry["index"],
                "query": entry["query"],
                "status": entry["status"],
            }
            if entry.get("bound") is not None:
                item["bound"] = entry["bound"]
            if entry.get("detail") is not None:
                item["detail"] = _jsonable(entry["detail"])
            if self.with_certificates and entry.get("certificate") is not None:
                item["certificate"] = _jsonable(entry["certificate"])
            if entry.get("error") is not None:
                item["error"] = entry["error"]
            if self.with_timings:
                item["timing_ms"] = entry.get("timing_ms")
            queries.append(item)
        return {
            "format": 1,
            "tool": {"name": "difftrap", "version": __version__},
            "scenario": {
                "name": self.scenario.name,
                "digest": scenario_digest(self.scenario),
                "prime": self.scenario.prime,
                "derivations": self.scenario.derivations,
            },
            "validation": self.validation,
            "queries": queries,
        }

    def to_json(self):
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"

    def to_table(self):
        lines = []
        digest = scenario_digest(self.scenario)
        lines.append(f"scenario {self.scenario.name} ({digest})")
        for name, verdict in self.validation.items():
            lines.append(f"  validate {name}: {verdict['status']}{_error_note(verdict)}")
        for entry in self.results:
            status = entry["status"]
            if entry.get("bound") is not None and status == "INCONCLUSIVE":
                status = f"INCONCLUSIVE_UP_TO({entry['bound']})"
            lines.append(
                f"  [{entry['index']}] {entry['query']}: {status}{_error_note(entry)}"
            )
        return "\n".join(lines) + "\n"


def _error_note(entry):
    error = entry.get("error")
    return f"  [{error['kind']}] {error['message']}" if error else ""


def validate(scenario, config=None):
    """Commutation and embedding checks; returns {check name: verdict dict}.

    A workbench error in an embedding check makes that check FALSE, except
    ``InternalError``, a fault of the engine, which makes it ERROR with the
    error's kind and message; either fails validation.
    """
    config = config or default_config()
    out = {}
    out[f"commutation({scenario.ambient.name})"] = check_commutation(
        scenario.ambient
    ).to_jsonable()
    for name, decl in scenario.fields.items():
        out[f"commutation({name})"] = check_commutation(decl.pres).to_jsonable()
        try:
            out[f"embedding({name})"] = check_embedding(
                decl, scenario.ambient, config
            ).to_jsonable()
        except InternalError as exc:
            out[f"embedding({name})"] = {
                "status": "ERROR",
                "error": {"kind": exc.kind, "message": str(exc)},
            }
        except WorkbenchError as exc:
            out[f"embedding({name})"] = {
                "status": "FALSE",
                "certificate": {"kind": exc.kind, "message": str(exc)},
            }
    return out


def run(
    scenario,
    config=None,
    with_certificates=False,
    with_timings=False,
    order_override=None,
):
    """Validate, then execute the queries in order.

    A failing query is recorded with its error and does not abort the run.
    When validation fails, no query runs and the report says why.
    """
    config = config or default_config()
    validation = validate(scenario, config)
    report = Report(
        scenario=scenario,
        validation=validation,
        results=[],
        with_certificates=with_certificates,
        with_timings=with_timings,
    )
    if report.validation_failed:
        return report
    for index, query in enumerate(scenario.queries):
        if order_override is not None and "order" in query.args:
            query = Query(
                query.kind, {**query.args, "order": order_override}, query.line
            )
        started = time.perf_counter()
        entry = {"index": index, "query": query.render()}
        try:
            entry.update(_run_query(scenario, query, config))
        except WorkbenchError as exc:
            entry["status"] = "ERROR"
            entry["error"] = {"kind": exc.kind, "message": str(exc)}
        entry["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        report.results.append(entry)
    return report


def _verdict_entry(verdict, detail=None):
    return {
        "status": verdict.status,
        "bound": verdict.bound,
        "certificate": verdict.certificate,
        "detail": detail,
    }


def _run_query(scenario, query, config):
    a = query.args
    if query.kind == "perfect":
        decl = scenario.field_decl(a["field"])
        result = constants(decl.pres, config)
        verdict = (
            Verdict.true(dim=result.dim)
            if result.perfect
            else Verdict.false(
                kind="constants-exceed-pth-powers",
                dim=result.dim,
                basis=result.basis_strings(),
            )
        )
        return _verdict_entry(verdict, detail={"dim": result.dim})
    if query.kind == "constants":
        decl = scenario.field_decl(a["field"])
        result = constants(decl.pres, config)
        return {
            "status": "TRUE",
            "bound": None,
            "certificate": {"basis": result.basis_strings()},
            "detail": {
                "dim": result.dim,
                "perfect": result.perfect,
                "basis": result.basis_strings(),
            },
        }
    if query.kind == "pindep":
        verdict = p_independent(
            a["elements_parsed"], BaseSpec(a["base_parsed"]), scenario.ambient, config
        )
        return _verdict_entry(verdict)
    if query.kind == "sepindep":
        decl = scenario.field_decl(a["field"])
        others = [v for v in decl.pres.vars if v not in a["names"]]
        verdict = separably_independent(a["names"], others, decl.pres, config)
        return _verdict_entry(verdict)
    if query.kind == "trap":
        decl = scenario.field_decl(a["field"])
        verdict, certificate = trap_up_to(
            decl.pres, decl, scenario.ambient, a["order"], config
        )
        return _verdict_entry(verdict, detail={"order": a["order"]})
    if query.kind == "forking":
        forking = check_forking(
            *(scenario.field_decl(a[n]) for n in ("k", "K", "L", "M")),
            scenario.ambient,
            a["order"],
            config,
        )
        return {
            "status": forking.overall.status,
            "bound": forking.overall.bound,
            "certificate": forking.to_jsonable(),
            "detail": {
                "acf": forking.acf_part.describe(),
                "trap": forking.trap_part.describe(),
            },
        }
    if query.kind == "bernoulli-perfect":
        verdict = bernoulli_perfectness(a["p"], a["ks"], config)
        return _verdict_entry(verdict)
    raise AssertionError(query.kind)
