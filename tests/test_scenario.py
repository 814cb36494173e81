"""Scenario-file parsing, diagnostics, and serialization round-trips."""

import math

import pytest

from pointerlab.cli import bundled_scenario_text
from pointerlab.errors import ScenarioParseError
from pointerlab.scenario import (
    CertaintyQuery,
    parse_coefficient,
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
    shapes = {"fr": (4, 3), "ambiguity": (0, 3), "decoherence": (1, 2),
              "triortho": (0, 2)}
    for name, (n_actions, n_queries) in shapes.items():
        s = parse_scenario(bundled_scenario_text(name))
        assert len(s.actions) == n_actions, name
        assert len(s.queries) == n_queries, name


def test_round_trip_bundled():
    for name in ("fr", "ambiguity", "decoherence", "triortho"):
        s = parse_scenario(bundled_scenario_text(name))
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
    assert parse_coefficient("sqrt(1/3)", 1, 1) == complex(SQ(1 / 3))
    assert parse_coefficient("-sqrt(1/12)", 1, 1) == complex(-SQ(1 / 12))
    assert parse_coefficient("0.25", 1, 1) == 0.25
    assert parse_coefficient("2e-3", 1, 1) == 0.002
    assert parse_coefficient("i", 1, 1) == 1j
    assert parse_coefficient("-0.5i", 1, 1) == -0.5j
    assert parse_coefficient("(0.6-0.8i)", 1, 1) == 0.6 - 0.8j
    assert parse_coefficient("", 1, 1) == 1.0


def test_malformed_coefficient_diagnostic():
    with pytest.raises(ScenarioParseError) as err:
        parse_coefficient("sqrt(1/0)", 4, 9)
    assert err.value.line == 4
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("sqrt(1/2)", "sqrn(1/2)", 1))
    assert "coefficient" in str(err.value) or "term" in str(err.value)


def test_undeclared_subsystem_names_offender_and_line():
    text = MINIMAL.replace("born targets=(R)", "born targets=(Q)")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "'Q'" in err.value.message
    assert err.value.line == 5


def test_nonorthonormal_vector_basis_reports_gram_entry():
    text = """\
layout:
  subsystem a {x, y}
  subsystem b {p, q, r}
state: 1|x,p>
actions:
  premeasure target=a apparatus=b basis={(1,0),(1,0)} outcomes={q,r} ready=p
queries:
  born targets=(a)
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "Gram[0,1]" in err.value.message
    assert "1" in err.value.message


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
state: 1|head,F0>
actions:
  group parts=(R,F) as G map={(head,F0):x, (tail,F1):x}
queries:
  born targets=(G)
"""
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert "distinct" in str(err.value) or "several" in str(err.value)


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


def test_zero_initial_state_rejected_at_parse_time():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(MINIMAL.replace("sqrt(1/2)|head> + sqrt(1/2)|tail>",
                                       "0.5|head> - 0.5|head>"))
    assert "zero vector" in err.value.message
    assert err.value.line == 3


def test_parser_resolves_vectors_outside_equality():
    s = parse_scenario(bundled_scenario_text("fr"))
    assert s.initial.layout.names == ("R", "S", "Fbar", "F")
    premeasure = s.actions[0]
    assert premeasure.resolved.labels == ("head", "tail")
    prop = [q for q in s.queries if isinstance(q, CertaintyQuery)][0].resolved
    assert prop.layout.names == ("L",) and prop.labels == ("fail", "ok")
    again = parse_scenario(serialize_scenario(s))
    assert again == s and again.initial is not s.initial


def test_expression_and_list_columns():
    # One scanner splits fields, comma lists and expressions; each piece
    # keeps the column it starts at.
    text = MINIMAL.replace("sqrt(1/2)|tail>", "sqrt(1/2)|tail,x>")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (3, 7)
    text = MINIMAL.replace("+ sqrt(1/2)|tail>", "+ bogus|tail>")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (3, 23)
    text = MINIMAL.replace("born targets=(R)", "born targets=(R, Q)")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (5, 24)
