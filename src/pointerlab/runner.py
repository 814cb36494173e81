"""Scenario execution and report building.

``run`` turns a parsed Scenario into a Report.  The parser has already
resolved every directive to the object the engine runs (steps, models,
claims), so ``run`` only names the steps' stages, executes them through
``experiment.run_transcript`` (the one transcript loop), answers every
claim its queries ask with one ``experiment.certainties`` call, answers the
queries, and keeps plain data: query results with probabilities quantized
to 12 significant digits.  Both
the human-readable table and the structured JSON document render from the
same Report values, so every printed number agrees between the two formats.

The library entry points ``run_protocol``, ``consistency_audit`` and
``decoherence_compare`` at the end load the bundled scenarios: the ``.scn``
files are the only description of the protocol.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, compress, product
from typing import Any, Sequence

import numpy as np

from .errors import ExecutionError, PointerLabError
from .measurement import OutcomeDistribution, born
from .decomposition import Decomposition, rewrite_coefficients, triortho_verdict
from .experiment import (
    CertaintyVerdict,
    ConsistencyAudit,
    DecoherenceComparison,
    ProtocolTranscript,
    run_transcript,
)
from . import experiment as ex
from . import scenario as sc

_ZERO_TOL = 1e-12

DEMOS = {
    "fr": "fr_full.scn",
    "ambiguity": "ambiguity.scn",
    "decoherence": "decoherence.scn",
    "triortho": "triortho.scn",
}


def _q(x: float) -> float:
    """Quantize to 12 significant digits; clamp |x| below _ZERO_TOL to 0."""
    x = float(x)
    if abs(x) < _ZERO_TOL:
        return 0.0
    return float(f"{x:.12g}")


def _pair(c: complex) -> list[float]:
    return [_q(c.real), _q(c.imag)]


def _matrix_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(v) for v in row] for row in m.tolist()]


@dataclass(frozen=True)
class Report:
    """Per-query results plus a provenance block echoing the scenario hash."""

    scenario_hash: str
    action_count: int
    query_count: int
    results: tuple[dict[str, Any], ...]

    def to_structured(self) -> dict[str, Any]:
        return {
            "provenance": {
                "scenario_sha256": self.scenario_hash,
                "actions": self.action_count,
                "queries": self.query_count,
            },
            "results": list(self.results),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_structured(), indent=2)``, byte for byte: one
        walk writes the layout as one ``%``-template, one C encoder call
        encodes every scalar, and a list of records is laid out in one
        piece (``_render``)."""
        if _c_make_encoder is None:
            return json.dumps(self.to_structured(), indent=2)
        return _render(self.to_structured())

    def to_table(self) -> str:
        lines: list[str] = []
        lines.append(f"scenario sha256: {self.scenario_hash}")
        lines.append(f"actions: {self.action_count}   queries: {self.query_count}")
        for i, res in enumerate(self.results, start=1):
            lines.append("")
            lines.append(f"-- query {i}: {res['kind']} --")
            lines.extend(_table_lines(res))
        return "\n".join(lines) + "\n"


# The structured document renders like ``json.dumps(doc, indent=2)``, whose
# ``indent`` sends every value through the pure-Python encoder.  Here one walk
# (``_walk``) writes the document's layout as one ``%``-template, brackets,
# indents and ``%``-escaped keys, with a ``%s`` for each scalar, and collects
# the scalars in document order.  One C encoder call encodes them all,
# separated by NUL, which encoded JSON never holds (a NUL inside a string is
# written as \u0000), and fills the template once.  A list of records, such as
# a rewrite's terms or a distribution, is laid out in one piece (``_records``).
_c_make_encoder = json.encoder.c_make_encoder
_SCALARS = frozenset({str, int, float, bool, type(None)})
_NUL = _c_make_encoder(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                       None, ": ", "\x00", False, False, True) if _c_make_encoder else None
_key = json.encoder.encode_basestring_ascii


def _render(doc: Any) -> str:
    """``json.dumps(doc, indent=2)``; dictionary keys are strings."""
    layout: list[str] = []
    scalars: list[Any] = []
    _walk(doc, 0, layout, scalars)
    pieces = "".join(_NUL(scalars, 0))[1:-1].split("\x00") if scalars else ()
    return "".join(layout) % tuple(pieces)


def _walk(value: Any, depth: int, layout: list[str], scalars: list[Any]) -> None:
    """Append the layout of ``value`` at nesting ``depth`` to ``layout``, and
    its scalars, in the order their ``%s`` appear, to ``scalars``."""
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        if value and type(value[0]) is dict and _records(value, depth, layout, scalars):
            return
        items, brackets = value, "[]"
    else:
        layout.append("%s")
        scalars.append(value)
        return
    if not value:
        layout.append(brackets)
        return
    indent = ",\n" + "  " * (depth + 1)
    if brackets == "{}":
        heads = [f"{indent}{_key(k).replace('%', '%%')}: " for k in value]
    else:
        heads = [indent] * len(value)
    heads[0] = brackets[0] + heads[0][1:]  # the bracket opens where the others put a comma
    for head, v in zip(heads, items):
        if type(v) in _SCALARS:
            layout.append(head + "%s")
            scalars.append(v)
        else:
            layout.append(head)
            _walk(v, depth + 1, layout, scalars)
    layout.append("\n" + "  " * depth + brackets[1])


def _records(value: list | tuple, depth: int, layout: list[str], scalars: list[Any]) -> bool:
    """Lay out a list of records in one piece: non-empty dicts with the first
    one's key order whose values are, key by key alike, scalars or non-empty
    flat lists of scalars of one length.  The list's layout goes to
    ``layout`` and its scalars, record by record and key by key, to
    ``scalars``.  False, with nothing written, for any other list."""
    if set(map(type, value)) != {dict}:
        return False
    keys = list(value[0])
    if not keys or list(chain.from_iterable(value)) != keys * len(value):
        return False
    values = list(chain.from_iterable(map(dict.values, value)))
    columns, shape = [], []
    for i in range(len(keys)):
        column = values[i::len(keys)]
        if type(column[0]) is not list:
            columns.append(zip(column))
            shape.append(-1)
            continue
        n = len(column[0])
        if not n or set(map(type, column)) != {list} or set(map(len, column)) != {n}:
            return False
        columns.append(column)
        shape.append(n)
    # Record by record, key by key: the order the template reads them in.
    flat = list(chain.from_iterable(chain.from_iterable(zip(*columns))))
    if not _SCALARS.issuperset(map(type, flat)):
        return False
    indent = "\n" + "  " * (depth + 1)
    indent2, indent3 = indent + "  ", indent + "    "
    fields = [
        _key(k).replace("%", "%%") + ": "
        + ("%s" if n < 0 else "[" + indent3 + ("," + indent3).join(["%s"] * n) + indent2 + "]")
        for k, n in zip(keys, shape)
    ]
    record = "{" + indent2 + ("," + indent2).join(fields) + indent + "}"
    layout.append("[" + indent + ("," + indent).join([record] * len(value))
                  + "\n" + "  " * depth + "]")
    scalars.extend(flat)
    return True


def _fmt_pair(p: Sequence[float]) -> str:
    if p[1] == 0.0:
        return repr(p[0])
    sign = "+" if p[1] >= 0 else "-"
    return f"{p[0]!r}{sign}{abs(p[1])!r}i"


def _dist_lines(dist: list[dict[str, Any]], indent: str = "  ") -> list[str]:
    width = max((len(", ".join(d["outcome"])) for d in dist), default=8)
    width = max(width, len("outcome"))
    lines = [f"{indent}{'outcome'.ljust(width)}  probability"]
    for d in dist:
        lines.append(f"{indent}{', '.join(d['outcome']).ljust(width)}  {d['probability']!r}")
    return lines


def _table_lines(res: dict[str, Any]) -> list[str]:
    kind = res["kind"]
    if kind == "born":
        return _dist_lines(res["distribution"])
    if kind == "certainty":
        lines = [
            f"  observer={res['observer']} outcome={res['outcome']} prop=\"{res['prop']}\"",
            f"  semantics={res['semantics']}  verdict: {res['verdict']}",
            "  conditional:",
        ]
        lines.extend(_dist_lines(res["conditional"], "    "))
        for ev in res["evidence"]:
            lines.append(f"  model {ev['model']}:")
            lines.extend(_dist_lines(ev["distribution"], "    "))
        return lines
    if kind == "rewrite":
        width = max((len(", ".join(t["labels"])) for t in res["terms"]), default=9)
        width = max(width, len("component"))
        lines = [f"  {'component'.ljust(width)}  coefficient"]
        for t in res["terms"]:
            lines.append(f"  {', '.join(t['labels']).ljust(width)}  {_fmt_pair(t['coefficient'])}")
        return lines
    if kind == "triortho":
        lines = [f"  verdict: {res['verdict']}"]
        for name in ("canonical", "witness"):
            dec = res.get(name)
            if not dec:
                continue
            lines.append(f"  {name}:")
            for t in dec["terms"]:
                factors = "  x  ".join(
                    "[" + ", ".join(_fmt_pair(a) for a in f) + "]" for f in t["factors"]
                )
                lines.append(f"    {_fmt_pair(t['coefficient'])}  *  {factors}")
        return lines
    if kind == "decoherence_compare":
        lines = [
            f"  pointer mixtures differ on the full registers: "
            f"max |difference| = {res['full_max_difference']!r}",
            f"  restrictions ({', '.join(res['hidden'])} traced out) equal: "
            f"{res['restriction_equal']} "
            f"(max |difference| = {res['restriction_max_difference']!r})",
            f"  branch weights: coarse ({', '.join(repr(w) for w in res['branch_weights']['coarse'])}), "
            f"fine ({', '.join(repr(w) for w in res['branch_weights']['fine'])})",
        ]
        for model in ("coarse", "fine"):
            lines.append(f"  apparatus marginal ({model}):")
            lines.extend(_dist_lines(res["apparatus_marginal"][model], "    "))
        return lines
    if kind == "consistency_audit":
        pre, dec = res["premeasurement"], res["decoherent"]
        claimed = pre["claimed_probability"]
        joint = f"p({','.join(pre['joint'].values())})"
        return [
            "  premeasurement semantics:",
            *(f"    {st['name']}: {st['verdict']} (p = {st['probability']!r})"
              for st in pre["statements"]),
            f"    chain derivable: {pre['chain_derivable']}; claimed {joint} = "
            f"{repr(claimed) if claimed is not None else 'underivable'}",
            f"    computed {joint} = {pre['computed_probability']!r}",
            f"    contradiction: {pre['contradiction']}",
            f"  decoherent semantics (models: {', '.join(dec['models'])}):",
            f"    {dec['statement']} verdict: {dec['verdict']}",
            f"    contradiction: {dec['contradiction']}",
        ]
    return [f"  {res}"]


# --------------------------------------------------------------------------
# Scenario execution
# --------------------------------------------------------------------------


def _stage_name(action: sc.Action) -> str:
    if isinstance(action, sc.PremeasureAction):
        return f"after-{action.apparatus}"
    if isinstance(action, sc.GroupAction):
        return f"group-{action.new_name}"
    return f"couple-{action.environment}"


def run(scenario: sc.Scenario, source_text: str) -> Report:
    """Execute a scenario: apply its actions in order, answer its queries.
    ``source_text`` is the text it was parsed from; the report carries its
    sha256.

    Deterministic: identical input yields byte-identical structured output.
    Module errors propagate as ExecutionError annotated with the failing
    action or query index.
    """
    digest = hashlib.sha256(source_text.encode("utf-8")).hexdigest()
    transcript = scenario_transcript(scenario)
    # Every claim is answered at the first query that asks one, from one
    # replay of the later steps; each query takes its own answers in turn.
    asked = [_claims(q) for q in scenario.queries]
    answers = None
    results = []
    for qi, (query, claims) in enumerate(zip(scenario.queries, asked), start=1):
        try:
            if claims and answers is None:
                answers = iter(ex.certainties(transcript, [c for cs in asked for c in cs]))
            results.append(_run_query(query, transcript, [next(answers) for _ in claims]))
        except PointerLabError as exc:
            raise ExecutionError(f"query {qi} ({type(query).__name__}): {exc}") from exc

    return Report(digest, len(scenario.actions), len(scenario.queries), tuple(results))


def scenario_transcript(scenario: sc.Scenario) -> ProtocolTranscript:
    """Apply a scenario's actions to its initial state, keeping every stage."""
    return run_transcript(scenario.initial,
                          [(_stage_name(a), a.resolved) for a in scenario.actions])


def _claims(query: sc.Query) -> list[ex.Claim]:
    """The claims ``query`` asks; an audit's decoherent recheck comes last."""
    if isinstance(query, sc.AuditQuery):
        return [s.resolved for _, s in query.chain] + [query.resolved]
    return [query.resolved] if isinstance(query, sc.CertaintyQuery) else []


def _audit(query: sc.AuditQuery, transcript: ProtocolTranscript,
           answers: Sequence[CertaintyVerdict | PointerLabError]) -> ConsistencyAudit:
    return ex.consistency_audit(transcript, list(zip(dict(query.chain), answers)),
                                (query.decoherent, answers[-1]), query.joint)


def _compare(query: sc.CompareQuery, transcript: ProtocolTranscript) -> DecoherenceComparison:
    return ex.decoherence_compare(transcript.final_state, query.resolved, query.hidden,
                                  query.apparatus)


def _dist_payload(dist: OutcomeDistribution) -> list[dict[str, Any]]:
    return [{"outcome": list(labels), "probability": _q(p)} for labels, p in dist.entries]


def _decomposition_payload(dec: Decomposition | None) -> dict[str, Any] | None:
    if dec is None:
        return None
    return {
        "parts": [list(p) for p in dec.parts],
        "terms": [
            {
                "coefficient": _pair(t.coefficient),
                "factors": [[_pair(a) for a in f.amplitudes.tolist()] for f in t.factors],
            }
            for t in dec.terms
        ],
    }


def _run_query(query, transcript: ProtocolTranscript,
               answers: Sequence[CertaintyVerdict | PointerLabError]) -> dict[str, Any]:
    final = transcript.final_state
    if isinstance(query, sc.BornQuery):
        names = [name for name, _ in query.targets]
        dist = born(final, list(zip(names, query.resolved)))
        return {
            "kind": "born",
            "targets": [
                {"subsystem": n, "basis": list(l) if l else "computational"}
                for n, l in query.targets
            ],
            "distribution": _dist_payload(dist),
        }
    if isinstance(query, sc.CertaintyQuery):
        (verdict,) = answers
        if isinstance(verdict, PointerLabError):
            raise verdict
        return {
            "kind": "certainty",
            "observer": query.observer,
            "outcome": query.outcome,
            "prop": f"{query.prop_subject} {query.prop_quantifier} {query.prop_predicate}",
            "semantics": query.semantics,
            "verdict": verdict.kind,
            "conditional": _dist_payload(verdict.conditional),
            "evidence": [{"model": name, "distribution": _dist_payload(d)}
                         for name, d in verdict.evidence],
        }
    if isinstance(query, sc.RewriteQuery):
        bases, t = rewrite_coefficients(final, {b.layout.names[0]: b for b in query.resolved})
        kept = compress(zip(product(*(b.labels for b in bases)), t.reshape(-1).tolist()),
                        (t != 0).reshape(-1).tolist())
        return {
            "kind": "rewrite",
            "terms": [{"labels": list(labels), "coefficient": _pair(c)}
                      for labels, c in kept],
        }
    if isinstance(query, sc.TriorthoQuery):
        verdict = triortho_verdict(final, query.parts)
        return {"kind": "triortho", "verdict": verdict.kind,
                "canonical": _decomposition_payload(verdict.canonical),
                "witness": _decomposition_payload(verdict.witness)}
    if isinstance(query, sc.AuditQuery):
        audit = _audit(query, transcript, answers)
        return {
            "kind": "consistency_audit",
            "premeasurement": {
                "statements": [
                    {
                        "name": name,
                        "verdict": v.kind,
                        "probability": _q(v.conditional.probability(statement.prop_predicate)),
                    }
                    for (name, v), (_, statement) in zip(audit.statements_premeasurement,
                                                         query.chain, strict=True)
                ],
                "chain_derivable": audit.chain_derivable,
                "joint": dict(audit.joint),
                "claimed_probability": audit.claimed_probability,
                "computed_probability": _q(audit.computed_probability),
                "contradiction": audit.contradiction_premeasurement,
            },
            "decoherent": {
                "models": [name for name, _ in audit.recheck[1].evidence],
                "statement": audit.recheck[0],
                "verdict": audit.recheck[1].kind,
                "contradiction": audit.contradiction_decoherent,
            },
        }
    if isinstance(query, sc.CompareQuery):
        cmp = _compare(query, transcript)
        return {
            "kind": "decoherence_compare",
            "full_max_difference": _q(cmp.full_max_difference),
            "hidden": list(query.hidden),
            "restriction_equal": cmp.reduced_equal,
            "restriction_max_difference": _q(cmp.reduced_max_difference),
            "branch_weights": {
                "coarse": [_q(w) for w in cmp.branch_weights_coarse],
                "fine": [_q(w) for w in cmp.branch_weights_fine],
            },
            "apparatus_marginal": {
                "coarse": _dist_payload(cmp.apparatus_marginal_coarse),
                "fine": _dist_payload(cmp.apparatus_marginal_fine),
            },
            "matrices": {
                "pointer_coarse": _matrix_rows(cmp.rho_coarse.matrix),
                "pointer_fine": _matrix_rows(cmp.rho_fine.matrix),
                "reduced_coarse": _matrix_rows(cmp.reduced_coarse.matrix),
                "reduced_fine": _matrix_rows(cmp.reduced_fine.matrix),
            },
        }
    raise ExecutionError(f"unhandled query {query!r}")


# --------------------------------------------------------------------------
# The bundled scenarios as library calls
# --------------------------------------------------------------------------


def bundled_scenario_text(name: str) -> str:
    from importlib import resources  # only the bundled scenarios read package data

    return (resources.files("pointerlab") / "scenarios" / DEMOS[name]).read_text("utf-8")


def _bundled(name: str) -> tuple[sc.Scenario, ProtocolTranscript]:
    scenario = sc.parse_scenario(bundled_scenario_text(name))
    return scenario, scenario_transcript(scenario)


def run_protocol() -> ProtocolTranscript:
    """Transcript of the bundled FR scenario (``fr_full.scn``)."""
    return _bundled("fr")[1]


def consistency_audit() -> ConsistencyAudit:
    """The audit declared in the bundled FR scenario."""
    scenario, transcript = _bundled("fr")
    query = next(q for q in scenario.queries if isinstance(q, sc.AuditQuery))
    return _audit(query, transcript, ex.certainties(transcript, _claims(query)))


def decoherence_compare() -> DecoherenceComparison:
    """The comparison declared in the bundled decoherence scenario."""
    scenario, transcript = _bundled("decoherence")
    query = next(q for q in scenario.queries if isinstance(q, sc.CompareQuery))
    return _compare(query, transcript)
