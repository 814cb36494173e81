"""Scenario-file parsing, diagnostics, and serialization round-trips."""

import math
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointerlab import experiment as ex
from pointerlab import scenario as sc
from pointerlab.cli import EXIT_PARSE, bundled_scenario_text, main
from pointerlab.errors import (NonOrthonormalBasisError, ScenarioParseError, UnknownLabelError,
                              UnknownSubsystemError)
from pointerlab.measurement import Basis
from pointerlab.runner import DEMOS, scenario_transcript
from pointerlab.scenario import (
    MAX_AMPLITUDES,
    BornQuery,
    CertaintyQuery,
    CoupleAction,
    GroupAction,
    PremeasureAction,
    RewriteQuery,
    parse_scenario,
    serialize_scenario,
)

SQ = math.sqrt

MINIMAL = """\
layout:
  subsystem R {head, tail}
state: sqrt(1/2)|head> + sqrt(1/2)|tail>
queries:
  born targets=(R)
"""


def test_bundled_scenarios_parse_with_expected_shapes():
    shapes = {"fr": (6, 3), "ambiguity": (0, 3), "decoherence": (1, 2),
              "triortho": (0, 2)}
    for name, (n_actions, n_queries) in shapes.items():
        s = parse_scenario(bundled_scenario_text(name))
        assert len(s.actions) == n_actions, name
        assert len(s.queries) == n_queries, name


def test_round_trip_bundled():
    for name in ("fr", "ambiguity", "decoherence", "triortho"):
        s = parse_scenario(bundled_scenario_text(name))
        assert parse_scenario(serialize_scenario(s)) == s
    # A couple, its targets given out of layout order.
    couple = BRANCHES.replace(
        "ACTION", "couple env=E targets=(S,R) branches={|up,head>, |right,tail>}"
    ).replace("MODEL", MODEL)
    s = parse_scenario(couple)
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_complex_coefficients_and_vector_literals():
    text = """\
layout:
  subsystem a {x, y}
  subsystem b {p, q}
state: (0.5+0.5i)|x,p> - 0.5|y,p> + 0.5i|y,q>
actions:
  premeasure target=a apparatus=b basis={(1,0),(0,1)} outcomes={q,p} ready=p
queries:
  born targets=(b)
"""
    s = parse_scenario(text)
    s2 = parse_scenario(serialize_scenario(s))
    assert s == s2
    assert s.state_terms[0].coefficient == 0.5 + 0.5j
    assert s.state_terms[1].coefficient == -0.5
    assert s.state_terms[2].coefficient == 0.5j


def test_coefficient_literals():
    assert sc._coefficient("sqrt(1/3)", 1) == complex(SQ(1 / 3))
    assert sc._coefficient("-sqrt(1/12)", 1) == complex(-SQ(1 / 12))
    assert sc._coefficient("0.25", 1) == 0.25
    assert sc._coefficient("2e-3", 1) == 0.002
    assert sc._coefficient("i", 1) == 1j
    assert sc._coefficient("-0.5i", 1) == -0.5j
    assert sc._coefficient("(0.6-0.8i)", 1) == 0.6 - 0.8j
    assert sc._coefficient("", 1) == 1.0
    assert sc._coefficient("-", 1) == -1.0
    assert sc._coefficient("+", 1) == 1.0
    # A bare sign before a ket is the coefficient -1 or +1.
    s = parse_scenario(MINIMAL.replace("sqrt(1/2)|head> + sqrt(1/2)|tail>", "|head> - |tail>"))
    assert [t.coefficient for t in s.state_terms] == [1.0, -1.0]
    assert s.initial.amplitudes.tolist() == pytest.approx([SQ(1 / 2), -SQ(1 / 2)])


def test_malformed_coefficient_diagnostic():
    with pytest.raises(ScenarioParseError) as err:
        sc._coefficient("sqrt(1/0)", 9)
    assert (err.value.message, err.value.column) == ("sqrt with zero denominator", 9)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("sqrt(1/2)", "sqrn(1/2)", 1))
    assert "coefficient" in str(err.value) or "term" in str(err.value)


def test_undeclared_subsystem_names_offender_and_line():
    text = MINIMAL.replace("born targets=(R)", "born targets=(Q)")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "'Q'" in err.value.message
    assert err.value.line == 5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_every_basis_failure_the_parser_can_meet_carries_a_gram_entry(d, data):
    """``_checked`` reads ``.gram`` of every ``Basis.from_rows`` failure.
    Its callers give one label per row of the register's dimension, and a
    repeated label names one vector, so only a repeated row repeats a label.
    Rows drawn that way (picks of unitary rows, scaled, overflowed, NaN,
    tilted and repeated, up to one more row than the dimension) fail, if at
    all, with the Gram entry.  ``_checked`` turns a diagonal one into a norm
    diagnostic at the first row that is not unit, and an off-diagonal one
    into a Gram diagnostic at the set's column."""
    sub = sc.Subsystem("a", tuple(f"x{i}" for i in range(d)))
    layout = sc.SubsystemLayout((sub,))
    parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 * d * d, max_size=2 * d * d))
    raw = np.array(parts[:d * d]).reshape(d, d) + 1j * np.array(parts[d * d:]).reshape(d, d)
    unitary = np.linalg.qr(raw + 3 * np.eye(d))[0]
    scale = data.draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 1e-6, 0.5, 0.0, 1e200,
                                                math.nan]), min_size=d, max_size=d))
    tilt = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-12, 1e-6]), min_size=d,
                              max_size=d))
    picks = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d + 1))
    with np.errstate(all="ignore"):
        rows = np.array([unitary[p] * scale[p] + tilt[p] for p in picks])
        try:
            sc.Basis.from_rows([f"v{p}" for p in picks], layout, rows)
        except NonOrthonormalBasisError as exc:
            assert exc.gram is not None
            i, j, g = exc.gram
            cols = [10 + k for k in range(len(rows))]
            with pytest.raises(ScenarioParseError) as err:
                sc._checked(tuple(f"v{p}" for p in picks), layout, rows, cols, 5, "v", "w")
            norms = [np.vdot(row, row).real for row in rows]
            unit = [abs(n - 1.0) <= 1e-9 for n in norms]
            if i == j:
                assert not unit[i] and all(unit[:i])
                assert err.value.message == (f"v vector has norm {math.sqrt(abs(g)):.12g}, "
                                             "expected 1")
                assert err.value.column == cols[i]
            else:
                assert all(unit)
                assert err.value.message.startswith(f"w: Gram[{i},{j}] = ")
                assert err.value.column == 5


def test_nonorthonormal_vector_basis_reports_gram_entry():
    # Pinned messages and columns: an overlap, the Gram entry furthest from
    # the identity, at the set's column; a literal that is not unit, and a
    # vector literal, labelled b<k> after its position, whose label the set
    # also names, at the literal.
    for (x, y), basis, message, column in [
        ("xy", "{(1,0),(1,0)}", "basis over 'a' is not orthonormal: Gram[0,1] = 1.0", 41),
        ("xy", "{(0.6,0.8),(0.8i,0.6)}",
         "basis over 'a' is not orthonormal: Gram[0,1] = (0.48+0.48i)", 41),
        ("xy", "{(2,0),(0,1)}", "basis vector has norm 2, expected 1", 42),
        (("b0", "b1"), "{b1,(1,0)}",
         "vector literal 1 is labelled 'b1', which the set also names", 45),
    ]:
        text = f"""\
layout:
  subsystem a {{{x}, {y}}}
  subsystem b {{p, q, r}}
state: 1|{x},p>
actions:
  premeasure target=a apparatus=b basis={basis} outcomes={{q,r}} ready=p
queries:
  born targets=(a)
"""
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, 6, column)


def test_nonorthonormal_derived_basis_rejected():
    text = """\
layout:
  subsystem S {up, down}
  derived S d1 = sqrt(1/2)|up> + sqrt(1/2)|down>
state: 1|up>
queries:
  born targets=(S:{up,d1})
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "Gram" in err.value.message
    assert (err.value.message, err.value.line, err.value.column) == (
        "basis over 'S' is not orthonormal: Gram[0,1] = 0.7071067811865476", 6, 19)


BRANCHES = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
  derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
  derived S tilt = 0.6|up> + 0.8i|down>
  subsystem A {a0, a1, a2}
state: sqrt(1/2)|head,up,a0> + sqrt(1/2)|tail,up,a0>
actions:
  ACTION
models:
  MODEL
queries:
  born targets=(R)
"""
PREMEASURE = "premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0"
MODEL = "model m targets=(R) branches={|head>, |tail>}"


# Pinned messages and columns of branch-set diagnostics.
@pytest.mark.parametrize("action, model, message, line, col", [
    ("couple env=E targets=(S,R) branches={|up,head>, |right,head>}", MODEL,
     "branches not orthonormal: Gram[0,1] = 0.7071067811865476", 9, 39),
    ("couple env=E targets=(R,S) branches={|head,up>, (0.6+0.8i)|head,tilt>}", MODEL,
     "branches not orthonormal: Gram[0,1] = (0.36+0.48i)", 9, 39),
    (PREMEASURE, "model m targets=(S) branches={|up>, |tilt>}",
     "branches not orthonormal: Gram[0,1] = 0.6", 11, 32),
    ("couple env=E targets=(R) branches={|head>, 0.5|tail>}", MODEL,
     "branch vector has norm 0.5, expected 1", 9, 46),
    (PREMEASURE, "model m targets=(R,S) branches={|head,up>, 1|tail,up> + 1|tail,down>}",
     "branch vector has norm 1.41421356237, expected 1", 11, 46),
])
def test_branch_set_diagnostics_are_pinned(action, model, message, line, col):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(BRANCHES.replace("ACTION", action).replace("MODEL", model))
    assert (err.value.message, err.value.line, err.value.column) == (message, line, col)


VECTORS = """\
layout:
  subsystem R {head, tail}
  subsystem A {a0, a1, a2}
  DERIVED
state: |head,a0>
actions:
  premeasure target=R apparatus=A basis=BASIS outcomes={a1,a2} ready=a0
  couple env=E targets=(R) branches=COUPLE
models:
  model m targets=(R) branches=MODEL
queries:
  born targets=(R)
"""
VECTOR_SLOTS = {"DERIVED": "", "BASIS": "{head,tail}", "COUPLE": "{|head>, |tail>}",
                "MODEL": "{|head>, |tail>}"}
# A norm 0.7e-9 past 1: within 1e-9 of 1, but its square is not.
NEAR = "1.0000000007"


# One rule for every vector a scenario declares: norms first, each at its
# vector, as "<kind> vector has norm X, expected 1"; then overlaps, at the
# set.  (slot, its text, the message, the text the column points at.)
@pytest.mark.parametrize("slot, text, message, at", [
    ("BASIS", "{(2,0),(0,1)}", "basis vector has norm 2, expected 1", "(2,0)"),
    ("BASIS", f"{{({NEAR},0),(0,1)}}", f"basis vector has norm {NEAR}, expected 1", f"({NEAR}"),
    ("DERIVED", f"derived R h = {NEAR}|head>", f"derived vector 'h' has norm {NEAR}, expected 1",
     f"{NEAR}|"),
    ("COUPLE", f"{{{NEAR}|head>, |tail>}}", f"branch vector has norm {NEAR}, expected 1",
     f"{NEAR}|"),
    ("MODEL", f"{{|head>, {NEAR}|tail>}}", f"branch vector has norm {NEAR}, expected 1",
     f"{NEAR}|"),
    # A norm is reported before a larger overlap.
    ("BASIS", f"{{(1,0),({NEAR},0)}}", f"basis vector has norm {NEAR}, expected 1", f"({NEAR}"),
    ("COUPLE", f"{{|head>, {NEAR}|head>}}", f"branch vector has norm {NEAR}, expected 1",
     f"{NEAR}|"),
    ("BASIS", "{(1,0),(0.6,0.8)}", "basis over 'R' is not orthonormal: Gram[0,1] = 0.6", "{"),
    ("MODEL", "{|head>, 0.6|head> + 0.8|tail>}", "branches not orthonormal: Gram[0,1] = 0.6",
     "{"),
], ids=["literal", "literal-near", "derived-near", "couple-near", "model-near",
        "literal-norm-before-overlap", "couple-norm-before-overlap", "literal-overlap",
        "model-overlap"])
def test_each_vector_fault_reads_one_way(slot, text, message, at):
    scenario = VECTORS
    for name, default in VECTOR_SLOTS.items():
        scenario = scenario.replace(name, text if name == slot else default)
    line = next(n for n, raw in enumerate(scenario.splitlines(), 1) if text and text in raw)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(scenario)
    raw = scenario.splitlines()[line - 1]
    assert (err.value.message, err.value.line) == (message, line)
    assert raw[err.value.column - 1:].startswith(at)
    assert raw.index(text) < err.value.column <= raw.index(text) + len(text)


def test_ket_arity_checked_against_layout():
    text = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
state: 1|head>
queries:
  born targets=(R)
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "2 subsystems" in str(err.value)


def test_sections_must_be_ordered_and_unique():
    with pytest.raises(ScenarioParseError):
        parse_scenario("state: 1|x>\nlayout:\n  subsystem a {x}\nqueries:\n  born targets=(a)\n")
    dup = MINIMAL + "layout:\n"
    with pytest.raises(ScenarioParseError):
        parse_scenario(dup)


def test_unknown_query_and_action_diagnostics():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("born", "benchmark"))
    assert "benchmark" in str(err.value)
    text = """\
layout:
  subsystem a {x, y}
state: 1|x>
actions:
  teleport target=a
queries:
  born targets=(a)
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "teleport" in str(err.value)
    # The head is the first token, brackets and all.
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text.replace("teleport target=a", "frob(a b) x=1"))
    assert (err.value.message, err.value.line, err.value.column) == (
        "unknown action 'frob(a b)'", 5, 3)


def test_decoherent_certainty_requires_declared_models():
    base = bundled_scenario_text("decoherence")
    missing = base.replace(" models=(two-branch, three-branch)", "")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(missing)
    assert "models" in str(err.value)
    unknown = base.replace("models=(two-branch, three-branch)",
                           "models=(mystery)")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(unknown)
    assert "mystery" in str(err.value)


def test_duplicate_subsystem_rejected():
    text = """\
layout:
  subsystem a {x}
  subsystem a {y}
state: 1|x,y>
queries:
  born targets=(a)
"""
    with pytest.raises(ScenarioParseError):
        parse_scenario(text)


def test_group_requires_fresh_injective_map():
    text = """\
layout:
  subsystem R {head, tail}
  subsystem F {F0, F1}
  subsystem C {c0, c1}
state: 1|head,F0,c0>
actions:
  group parts=(R,F) as G map={(head,F0):x, (tail,F1):x}
queries:
  born targets=(G)
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "distinct" in str(err.value) or "several" in str(err.value)
    # Another live register's name is taken (it used to fail only at run
    # time); a part's own name is fresh enough.
    fresh_map = "map={(head,F0):x, (tail,F1):y}"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text.replace("as G map={(head,F0):x, (tail,F1):x}", f"as C {fresh_map}"))
    assert "'C' already taken" in err.value.message and err.value.hint == "pick a fresh name"
    reused = text.replace("as G map={(head,F0):x, (tail,F1):x}", f"as R {fresh_map}")
    assert parse_scenario(reused.replace("targets=(G)", "targets=(R)")).actions[0].new_name == "R"


@pytest.mark.parametrize("state, message", [
    ("1e999|head> + 1|tail>", "coefficient '1e999' is not finite"),
    ("1e200|head> + 1e200|tail>", "state norm inf is out of floating-point range"),
])
def test_non_finite_state_rejected_at_parse_time(state, message):
    # The first used to run to nan probabilities, the second to exit 3 with
    # a numpy RuntimeWarning and a wrong message.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MINIMAL.replace("sqrt(1/2)|head> + sqrt(1/2)|tail>", state))
    assert message in err.value.message
    assert err.value.line == 3


@pytest.mark.parametrize("state, message, hint", [
    ("0.5|head> - 0.5|head>", "state terms sum to the zero vector",
     "give the state a nonzero amplitude"),
    ("1e200|head> + 1e200|tail>", "state norm inf is out of floating-point range",
     "scale the coefficients toward 1"),
    ("1e-200|head> + 1e-200|tail>", "state norm 0.0 is out of floating-point range",
     "scale the coefficients toward 1"),
], ids=["zero", "overflow", "underflow"])
def test_a_state_that_does_not_normalize_is_reported_at_its_expression(state, message, hint):
    # hilbert.normalized decides; the parser adds the position and the hint.
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("sqrt(1/2)|head> + sqrt(1/2)|tail>", state))
    assert (err.value.line, err.value.column) == (3, 8)
    assert (err.value.message, err.value.hint) == (message, hint)


def test_prop_parsing_round_trip():
    s = parse_scenario(bundled_scenario_text("fr"))
    q = [q for q in s.queries if isinstance(q, CertaintyQuery)][0]
    assert q.prop_subject == "L"
    assert q.prop_quantifier == "will_obtain"
    assert q.prop_predicate == "fail"
    assert q.semantics == "premeasurement"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "state:", "# mid comment\nstate:")
    s = parse_scenario(text)
    assert len(s.queries) == 1


PROP_BASE = """\
layout:
  subsystem R {head, tail}
  derived R d1 = 1|head>
  derived R d2 = sqrt(1/2)|head> + sqrt(1/2)|tail>
  subsystem W {W0, W1, W2}
state: sqrt(1/2)|head,W0> + sqrt(1/2)|tail,W0>
actions:
  premeasure target=R apparatus=W basis={head,tail} outcomes={W1,W2} ready=W0
queries:
  certainty observer=W outcome=W1 prop="PROP" semantics=premeasurement
"""


@pytest.mark.parametrize("prop, message", [
    ("W will_obtain nonsense", "not among the measured basis labels"),
    ("R is_in_state sideways", "neither a basis nor a derived label"),
    ("R is_in_state d2", "not orthonormal: Gram[0,1]"),
])
def test_certainty_proposition_basis_resolved_at_parse_time(prop, message):
    # These used to surface only when the query ran (exit 3).
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(PROP_BASE.replace("PROP", prop))
    assert message in err.value.message
    assert err.value.line == 10


CROSSED = """\
layout:
  subsystem R {x, y}
  subsystem A {r, x, y}
state: sqrt(1/2)|x,r> + sqrt(1/2)|y,r>
actions:
  premeasure target=R apparatus=A basis={x,y} outcomes={y,x} ready=r
models:
  model m targets=(R,A) branches={|x,y>, |y,x>}
queries:
  QUERY
"""


@pytest.mark.parametrize("query, col", [
    ('certainty observer=A outcome=x prop="R is_in_state x" semantics=premeasurement', 32),
    ('consistency_audit chain=(s1:"A x R is_in_state x") joint=(A:x) decoherent=s1 '
     'models=(m)', 34),
], ids=["certainty", "audit-statement"])
def test_an_outcome_naming_two_outcomes_is_rejected_at_its_word(query, col):
    # 'x' is the record of basis label y and also the basis label recorded
    # as y, so it names two outcomes.
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(CROSSED.replace("QUERY", query))
    assert (err.value.line, err.value.column) == (10, col)
    assert err.value.message == ("outcome 'x' is both a record of 'A' and the basis label "
                                 "recorded as 'y'")
    assert err.value.hint == "give the records and the basis labels distinct names"


@pytest.mark.parametrize("outcomes, answer", [
    ("{y,x}", "outcome 'x' is both a record of 'A' and the basis label recorded as 'y'"),
    ("{x,y}", "refuted"),
], ids=["two-outcomes", "one-outcome"])
def test_a_library_claim_follows_the_parsers_word_rule(outcomes, answer):
    # certainties plans a library claim by the rule the parser applies: 'x'
    # names two outcomes when the records are crossed, and one when the
    # record x is also the label recorded as x.
    scenario = parse_scenario(CROSSED.replace("outcomes={y,x}", f"outcomes={outcomes}")
                              .replace("QUERY", "born targets=(R)"))
    prop = ex.Proposition("R", Basis.computational(scenario.initial.layout, "R"), "y",
                          "is_in_state")
    (result,) = ex.certainties(scenario_transcript(scenario), [ex.Claim("A", "x", prop)])
    if isinstance(result, ex.CertaintyVerdict):
        result = result.kind
    else:
        assert isinstance(result, UnknownLabelError)
    assert str(result) == answer


REGROUPED = """\
layout:
  subsystem R {h, t}
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1, b2}
state: sqrt(1/2)|h,a0,b0> + sqrt(1/2)|t,a0,b0>
actions:
  premeasure target=R apparatus=A basis={h,t} outcomes={a1,a2} ready=a0
  group parts=(R,A) as R map={(h,a1):x, (t,a2):y}
  premeasure target=R apparatus=B basis={x,y} outcomes={b1,b2} ready=b0
queries:
  born targets=(R)
"""


@pytest.mark.parametrize("quantifier, where", [
    ("is_in_state", "where 'B' measures"),
    ("will_obtain", "at the final stage, where will_obtain reads it"),
])
def test_a_library_claim_on_a_register_regrouped_under_its_name_fails_at_plan(quantifier,
                                                                              where):
    # A's measured basis lives on the R that the group replaced: the R that
    # B measures has the same name but is another register, so the plan
    # finds no stage to read, as the parser's does, before any replay.
    scenario = parse_scenario(REGROUPED)
    measured = scenario.actions[0].resolved.basis
    claim = ex.Claim("B", "b1", ex.Proposition("R", measured, "h", quantifier))
    (result,) = ex.certainties(scenario_transcript(scenario), [claim])
    assert isinstance(result, UnknownSubsystemError)
    assert str(result) == f"prop subject 'R' no longer exists {where}"


def test_a_vector_literals_label_is_an_observed_word():
    # A literal's label b<k> is a measured-basis label, as it is in an
    # apparatus predicate or a joint entry, so it names the literal's record.
    text = CROSSED.replace("basis={x,y}", "basis={(1,0),(0,1)}").replace(
        "QUERY", 'certainty observer=A outcome=b1 prop="R is_in_state y" semantics=premeasurement')
    scenario = parse_scenario(text)
    verdict = ex.certainties(scenario_transcript(scenario), [scenario.queries[0].resolved])[0]
    assert verdict.kind == "certain"


def test_an_outcome_that_is_the_record_and_label_of_one_outcome_is_valid():
    text = CROSSED.replace("outcomes={y,x}", "outcomes={x,y}").replace(
        "branches={|x,y>, |y,x>}", "branches={|x,x>, |y,y>}").replace(
        "QUERY", 'certainty observer=A outcome=x prop="R is_in_state x" '
                 "semantics=premeasurement")
    scenario = parse_scenario(text)
    verdict = ex.certainties(scenario_transcript(scenario), [scenario.queries[0].resolved])[0]
    assert verdict.kind == "certain"


def test_zero_initial_state_rejected_at_parse_time():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("sqrt(1/2)|head> + sqrt(1/2)|tail>",
                                       "0.5|head> - 0.5|head>"))
    assert "zero vector" in err.value.message
    assert err.value.line == 3


def test_parser_resolves_vectors_outside_equality():
    s = parse_scenario(bundled_scenario_text("fr"))
    assert s.initial.layout.names == ("R", "S", "Fbar", "F", "Wbar", "W")
    premeasure = s.actions[0]
    assert premeasure.resolved.basis.labels == ("head", "tail")
    prop = [q for q in s.queries if isinstance(q, CertaintyQuery)][0].resolved.prop.basis
    assert prop.layout.names == ("L",) and prop.labels == ("fail", "ok")
    again = parse_scenario(serialize_scenario(s))
    assert again == s and again.initial is not s.initial


def test_expression_and_list_columns():
    # A ket with too many labels is reported at its first label, and a
    # malformed coefficient at its sign.
    text = MINIMAL.replace("sqrt(1/2)|tail>", "sqrt(1/2)|tail,x>")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (3, 36)
    text = MINIMAL.replace("+ sqrt(1/2)|tail>", "+ bogus|tail>")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (3, 24)
    # List entries inside born, rewrite and triortho fields, and the fields
    # themselves, report the column where they start on the line.
    for query, column in [("born targets=(R, Q)", 20),
                          ("rewrite bases=(R:{head,tail}, Q:{x})", 33),
                          ("triortho parts=((R), (R, Q), (R))", 28),
                          ("born targets=(R) bogus=1", 20),
                          ("born targets=(R:{head, bad})", 26),
                          ("rewrite bases=(R:{tail, bad})", 27)]:
        text = MINIMAL.replace("born targets=(R)", query)
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.column) == (5, column), query
    text = ("layout:\n  subsystem R {head, tail}\n  subsystem A {A0, A1, A2}\n"
            "state: 1|head,A0>\nactions:\n"
            "  premeasure target=R apparatus=A basis={head,tail} outcomes={A1,Z2} ready=A0\n"
            "queries:\n  born targets=(R)\n")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (6, 66)
    # A bad label inside a basis set is reported at the label, not the brace.
    for old, new, where in [("basis={head,tail}", "basis={head,bad}", (6, 47)),
                            ("born targets=(R)", "born targets=(R, A:{A0, bad})", (8, 27))]:
        fixed = text.replace("outcomes={A1,Z2}", "outcomes={A1,A2}")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(fixed.replace(old, new))
        assert "'bad'" in err.value.message
        assert (err.value.line, err.value.column) == where, new


AUDIT = ('consistency_audit chain=(statement-1-spin:"Fbar F2 S is_in_state right", '
         'statement-1:"Fbar F2 L will_obtain fail", statement-2:"F F2 Lbar is_in_state t", '
         'statement-3:"Wbar W2 L is_in_state +1/2") joint=(Wbar:okbar, W:ok) '
         'decoherent=statement-1 models=(two-branch, three-branch)')
COMPARE = "decoherence_compare models=(two-branch, three-branch) hidden=(S) apparatus=A"


@pytest.mark.parametrize("name, old, new, message", [
    ("fr", AUDIT, "consistency_audit", "missing chain="),
    ("fr", "decoherent=statement-1", "decoherent=statement-9", "no chain statement"),
    ("fr", "models=(two-branch, three-branch)", "models=(mystery)", "'mystery' was never"),
    ("fr", "joint=(Wbar:okbar", "joint=(Lbar:okbar", "'Lbar' is not the apparatus"),
    ("fr", "joint=(Wbar:okbar", "joint=(Wbar:fail", "measured basis label of 'Wbar'"),
    ("fr", '"Wbar W2 L is_in_state +1/2"', '"Wbar W2 Q is_in_state +1/2"', "'Q' is unknown"),
    ("fr", '"F F2 Lbar is_in_state t"', '"G F2 Lbar is_in_state t"', "'G' is not the apparatus"),
    ("fr", '"F F2 Lbar is_in_state t"', '"F F2 Lbar t"', "quoted words"),
    ("fr", "statement-2:", "statement-1:", "name list entry 'statement-1' appears twice"),
    ("decoherence", COMPARE, "decoherence_compare", "missing models="),
    ("decoherence", "hidden=(S)", "hidden=(Q)", "'Q' was never declared"),
    ("decoherence", "three-branch) hidden", "two-branch) hidden",
     "name list entry 'two-branch' appears twice"),
    ("decoherence", "hidden=(S) apparatus=A", "hidden=(S) apparatus=R",
     "'R' is not the apparatus"),
    ("decoherence", "hidden=(S) apparatus=A", "hidden=(A) apparatus=A", "'A' is hidden"),
    ("fr", "queries:\n", "queries:\n  " + COMPARE.replace("(S)", "(L)").replace("=A", "=W") + "\n",
     "not in the final layout"),
])
def test_report_queries_declare_their_inputs(name, old, new, message):
    # A report reads only what its query names in its own scenario; a bare
    # or dangling query is a parse error with a fix hint.
    text = bundled_scenario_text(name)
    assert old in text
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text.replace(old, new, 1))
    assert message in err.value.message
    assert err.value.hint


@pytest.mark.parametrize("line, old, new, col, message", [
    (17, "models=(two-branch, three-branch)", "models=(two-branch, two-branch)", 103,
     "name list entry 'two-branch' appears twice"),
    (18, "hidden=(S)", "hidden=(S, S)", 68, "name list entry 'S' appears twice"),
    (17, "models=(two-branch, three-branch)", "models=(two-branch, mystery)", 103,
     "model 'mystery' was never declared"),
], ids=["certainty-models-repeat", "compare-hidden-repeat", "certainty-model-undeclared"])
def test_model_and_hidden_entries_are_checked_at_their_own_column(tmp_path, capsys, line, old,
                                                                   new, col, message):
    # Both repeats used to be accepted (the table printed "model two-branch"
    # twice), and the undeclared model was reported at the list, col 90.
    lines = bundled_scenario_text("decoherence").splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    path = tmp_path / "decoherence.scn"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{path}: parse error: line {line}, col {col}: {message} (fix: ")


MEMO = """\
layout:
  subsystem R {head, tail}
  subsystem A {A0, A1}
  derived A plus = sqrt(1/2)|A0> + sqrt(1/2)|A1>
  derived A minus = sqrt(1/2)|A0> - sqrt(1/2)|A1>
state: sqrt(1/2)|head,A0> + sqrt(1/2)|tail,A1>
queries:
  born targets=(R, A:{plus, minus})
  rewrite bases=(A:{plus, minus})
  rewrite bases=(A:{minus, plus})
"""


def test_each_basis_set_resolves_once_per_parse():
    born, same, swapped = parse_scenario(MEMO).queries
    assert born.resolved[1] is same.resolved[0]
    assert swapped.resolved[0] is not same.resolved[0]
    assert swapped.resolved[0].labels == ("minus", "plus")
    # A fresh parse resolves afresh.
    assert parse_scenario(MEMO).queries[1].resolved[0] is not same.resolved[0]
    # A bad label in a set next to a resolved one is reported at the label.
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MEMO + "  rewrite bases=(A:{plus, bad})\n")
    assert "'bad'" in err.value.message
    assert (err.value.line, err.value.column) == (11, 27)


def test_computational_bases_resolve_once_per_parse():
    born, same, swapped = parse_scenario(MEMO).queries
    coin = born.resolved[0]
    assert coin.labels == ("head", "tail")
    # A rewrite resolves the registers it leaves alone after its own bases.
    assert same.resolved[1] is coin and swapped.resolved[1] is coin
    assert len(same.resolved) == len(swapped.resolved) == 2


@pytest.mark.parametrize("stage", ["layout", "couple"])
def test_layout_just_over_the_amplitude_limit_is_a_parse_error(stage):
    # (2**10 + 1) * 2**(bits - 10) amplitudes against a limit of 2**bits, reached
    # by the last declared qubit or by the four-level environment of a couple.
    bits = MAX_AMPLITUDES.bit_length() - 1
    assert MAX_AMPLITUDES == 2**bits
    qubits = bits - 10 if stage == "layout" else bits - 12
    wide = ", ".join(f"w{i}" for i in range(2**10 + 1))
    text = ("layout:\n" + f"  subsystem W {{{wide}}}\n"
            + "".join(f"  subsystem q{k} {{0, 1}}\n" for k in range(qubits))
            + "state: 1|w0" + ",0" * qubits + ">\n")
    if stage == "couple":
        text += "actions:\n  couple env=E targets=(W) branches={|w0>, |w1>, |w2>}\n"
    text += "queries:\n  born targets=(W)\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    over = (2**10 + 1) * 2**(bits - 10)
    assert err.value.message.startswith(f"layout would hold {over:,} amplitudes")
    assert err.value.line == (qubits + 2 if stage == "layout" else qubits + 5)


# A derived label over a grouped register, a couple with targets out of
# layout order, a group whose first part sits after the second, and a model
# written in derived labels declared among the actions.
GROUPED_CHAIN = """\
layout:
  subsystem R {head, tail}
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1, b2}
state: sqrt(1/2)|head,a0,b0> + sqrt(1/2)|tail,a0,b0>
actions:
  premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0
  derived R right = sqrt(1/2)|head> + sqrt(1/2)|tail>
  derived R left = sqrt(1/2)|head> - sqrt(1/2)|tail>
  couple env=E targets=(A,R) branches={|a1,head>, |a2,tail>}
  group parts=(A,R) as L map={(a1,head):h, (a2,tail):t}
  derived L plus = sqrt(1/2)|h> + sqrt(1/2)|t>
  derived L minus = sqrt(1/2)|h> - sqrt(1/2)|t>
  premeasure target=L apparatus=B basis={plus,minus} outcomes={b1,b2} ready=b0
models:
  model m targets=(A,R) branches={|a1,right>, |a2,left>}
queries:
  born targets=(B, L:{plus,minus})
  rewrite bases=(E:{eps0,eps1,eps2})
"""


@pytest.mark.parametrize("text", [*map(bundled_scenario_text, DEMOS), GROUPED_CHAIN],
                         ids=[*DEMOS, "grouped-chain"])
def test_parse_time_layouts_match_the_runtime_stages(text):
    # Every value the parser resolves lives on the part of the runtime layout
    # it is applied to: stage i - 1 for action i, stage i for a group's
    # register, the declared layout for models, the final layout for queries.
    s = parse_scenario(text)
    stages = [stage.state.layout for stage in scenario_transcript(s).stages]
    for i, action in enumerate(s.actions, start=1):
        if isinstance(action, PremeasureAction):
            assert action.resolved.basis.layout == stages[i - 1].sublayout([action.target])
        elif isinstance(action, CoupleAction):
            assert action.resolved.branches.layout == stages[i - 1].sublayout(action.targets)
        else:
            assert isinstance(action, GroupAction)
            assert action.resolved.register == stages[i].subsystem(action.new_name)
    for model in s.models:
        assert model.resolved.branches.layout == stages[0].sublayout(model.targets)
    for query in s.queries:
        if isinstance(query, BornQuery):
            entries = zip(query.targets, query.resolved)
        elif isinstance(query, RewriteQuery):
            entries = zip(query.bases, query.resolved)
        else:
            continue
        for (name, _), basis in entries:
            assert basis is None or basis.layout == stages[-1].sublayout([name])


# The lexer as it was before it matched separators with patterns: one step
# per character, and a cut test per top-level character.
def _old_scan(text):
    depth = 0
    in_ket = in_str = False
    for i, ch in enumerate(text):
        if in_str:
            in_str = ch != '"'
        elif in_ket:
            in_ket = ch != ">"
        elif ch == '"':
            in_str = True
        elif ch == "|":
            in_ket = True
        elif ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif depth == 0:
            yield i, ch


def _old_starts_term(text, i, ch):
    if ch not in "+-" or i == 0:
        return False
    prev = text[:i].rstrip()
    return bool(prev) and prev[-1] not in "eE(+-,"


# Expressions were once cut at signs: ``_old_split`` does so given this.
_SIGN_RE = re.compile("[+-]")


def _old_split(text, base, sep, keep=False):
    # Stands in for ``_split``; with ``_SIGN_RE`` it cuts where the old sign
    # test holds, keeping the sign.
    test = {sc._SPACE_RE: lambda i, ch: ch.isspace(),
            sc._COMMA_RE: lambda i, ch: ch == ",",
            _SIGN_RE: lambda i, ch: _old_starts_term(text, i, ch)}[sep]
    pieces = []
    start = 0
    for i, ch in _old_scan(text):
        if test(i, ch):
            pieces.append((text[start:i], start))
            start = i if keep else i + 1
    pieces.append((text[start:], start))
    return [(raw.strip(), base + off + len(raw) - len(raw.lstrip())) for raw, off in pieces]


def _old_expression(text, col):
    """The expression reader before terms were read one at a time: cut the
    text at each top-level sign that follows a term, then read each piece
    as coefficient|labels>."""
    terms = []
    for chunk, at in _old_split(text, col, _SIGN_RE, keep=True):
        if not chunk:
            continue
        bar = chunk.find("|")
        if bar < 0 or not chunk.endswith(">"):
            raise ScenarioParseError(f"expected coefficient|ket> term, got {chunk!r}", at)
        coeff = sc._coefficient(chunk[:bar], at)
        terms.append(sc.StateTerm(coeff, tuple(sc._label(lab.strip(), at + bar)
                                               for lab in chunk[bar + 1:-1].split(","))))
    if not terms:
        raise ScenarioParseError("empty state expression", col)
    return tuple(terms)


def _read_expression(reader, text):
    try:
        return reader(text, 5)
    except ScenarioParseError as exc:
        return exc


LEXER_ALPHABET = list('"|<>(){}[], +-eE') + ["\t", "\u00a0", "\u2003", "\x1c", "1", "0.5",
                                            "i", "a", "Z_"]
LEXER_TEXT = st.lists(st.sampled_from(LEXER_ALPHABET), max_size=24).map("".join)
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003", "\x1c"])


@st.composite
def near_expressions(draw):
    """An expression of one to four terms, unsigned coefficients in every
    form, labels holding signs and exponent letters, spaced at random; one
    time in two, a character of the lexer alphabet is put in or taken out."""
    terms = []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "", "+", "-"]))
        coeff = draw(st.sampled_from(["", "1", "0.5", ".25", "1e-3", "2E+1", "sqrt(1/3)",
                                      "sqrt( 2 / 5 )", "i", "0.5i", "(0.6-0.8i)",
                                      "( -1 + 2e1i )"]))
        labels = draw(st.lists(st.sampled_from(["a", "x", "Z_", "1", "a+b", "e-1", "E", "i",
                                                "h/t"]), min_size=1, max_size=3))
        ket = ",".join(draw(SPACE) + label + draw(SPACE) for label in labels)
        terms.append(f"{draw(SPACE)}{sign}{draw(SPACE)}{coeff}|{ket}>")
    text = "".join(terms) + draw(SPACE)
    edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:at] + draw(st.sampled_from(LEXER_ALPHABET)) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(LEXER_TEXT, near_expressions()))
@example("1e-3|x> - 2E+1|y>")
@example('a "b|c" ) d, e ( f, g')
@example("|x, y> + |z")
@example("a\u00a0b\u2003c\x1cd")
@example("(a, b)) c, d (e")
@example("+1|x> -|y>")
@example("2|x> +\u00a0-1|y> + 1e\x1c-3|z>")
@example("|x> |y>")
@example("|a+b> - (0.5+0.5i)|e-1>")
def test_lexer_matches_the_per_character_scan(text):
    # Unmatched closing brackets, unterminated kets and strings, "|" inside
    # quotes, exponent signs and non-ASCII whitespace all split as before.
    lexed = sc._tokens(text, 5), sc._split_commas(text, 5)
    with mock.patch.object(sc, "_split", _old_split):
        assert lexed == (sc._tokens(text, 5), sc._split_commas(text, 5))
    # Reading an expression one term at a time accepts what cutting it at
    # signs accepted, with the same terms; a rejection is one positioned
    # diagnostic inside the text, and each label keeps its own column.
    new = _read_expression(sc._expression, text)
    old = _read_expression(_old_expression, text)
    if isinstance(old, ScenarioParseError):
        assert isinstance(new, ScenarioParseError), new
        assert 5 <= new.column < 5 + max(len(text), 1)
    else:
        assert new == old
        for term in new:
            for label, column in zip(term.labels, term.columns, strict=True):
                assert text[column - 5:].startswith(label)


@st.composite
def coefficient_texts(draw):
    """A coefficient in one of its forms, spaced at random, and its value."""
    number = st.from_regex(r"[0-9]{0,3}\.?[0-9]{1,3}(?:[eE][+-]?[0-9]{1,2})?", fullmatch=True)
    sign_text = draw(st.sampled_from(["", "+", "-"]))
    sign = -1.0 if sign_text == "-" else 1.0
    form = draw(st.sampled_from(["empty", "sqrt", "decimal", "imaginary", "i", "complex"]))
    if form == "empty":
        body, value = "", complex(sign)
    elif form == "sqrt":
        p, q = draw(st.integers(0, 10**6)), draw(st.integers(1, 10**6))
        body = f"sqrt({draw(SPACE)}{p}{draw(SPACE)}/{draw(SPACE)}{q}{draw(SPACE)})"
        value = complex(sign * math.sqrt(p / q))
    elif form == "decimal":
        body = draw(number)
        value = complex(sign * float(body))
    elif form == "imaginary":
        digits = draw(number)
        body, value = digits + "i", complex(0.0, sign * float(digits))
    elif form == "i":
        body, value = "i", complex(0.0, sign)
    else:
        re_sign, op = draw(st.sampled_from(["", "+", "-"])), draw(st.sampled_from("+-"))
        re_text, im_text = re_sign + draw(number), draw(number)
        body = f"({draw(SPACE)}{re_text}{draw(SPACE)}{op}{draw(SPACE)}{im_text}i{draw(SPACE)})"
        value = sign * complex(float(re_text), float(im_text) * (-1.0 if op == "-" else 1.0))
    return f"{draw(SPACE)}{sign_text}{draw(SPACE)}{body}{draw(SPACE)}", value


@settings(max_examples=400, deadline=None)
@given(coefficient_texts())
def test_every_coefficient_form_reads_its_value(case):
    # Bit for bit, signed zeros included.
    text, value = case
    got = sc._coefficient(text, 1)
    assert (repr(got.real), repr(got.imag)) == (repr(value.real), repr(value.imag)), text


@pytest.mark.parametrize("digits", [400, 5000])
def test_a_sqrt_past_a_double_is_a_positioned_diagnostic(digits):
    # The quotient of 400 digits over 1 overflowed a double, and 5,000
    # digits passed int's conversion limit: both escaped as exit 3.
    text = f" sqrt({'9' * digits}/1)"
    with pytest.raises(ScenarioParseError) as err:
        sc._coefficient(text, 7)
    assert err.value.column == 7
    assert err.value.message == f"coefficient {text.strip()!r} is not finite"
    # A quotient that fits is read as before, however long p and q are.
    assert sc._coefficient(f"sqrt({'9' * 400}/{'9' * 399})", 1) == complex(math.sqrt(10.0))


def test_a_coefficient_ends_at_the_end_of_its_text():
    # A newline before a final "i" once read "1\ni" as 1j.
    with pytest.raises(ScenarioParseError) as err:
        sc._coefficient("1\ni", 7)
    assert err.value.column == 7
    assert err.value.message == "malformed coefficient '1\\ni'"


def test_long_expression_parses_in_linear_time():
    # Each sign once copied the text before it: 64,000 terms took 27 s.
    text = " + ".join(f"0.001|l{i}>" for i in range(64000))
    start = time.perf_counter()
    assert len(sc._expression(text, 1)) == 64000
    assert time.perf_counter() - start < 5.0
    # A malformed last label is reported at that label.
    text = text[:-1] + "*>"
    start = time.perf_counter()
    with pytest.raises(ScenarioParseError) as err:
        sc._expression(text, 1)
    assert time.perf_counter() - start < 5.0
    assert err.value.message == "malformed ket label 'l63999*'"
    assert err.value.column == text.rindex("l63999*") + 1
