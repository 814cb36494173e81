"""CLI behavior: exit codes, output formats, determinism, table/JSON parity."""

import json
import re
from pathlib import Path

import pytest

from pointerlab.cli import EXIT_EXEC, EXIT_OK, EXIT_PARSE, bundled_scenario_text, main
from pointerlab.runner import run
from pointerlab.scenario import parse_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_run_fr_table(tmp_path, capsys):
    path = write(tmp_path, "fr.scn", bundled_scenario_text("fr"))
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.0833333333333" in out
    assert "contradiction: True" in out
    assert "contradiction: False" in out


def test_run_fr_structured_contains_contradiction_value(tmp_path, capsys):
    path = write(tmp_path, "fr.scn", bundled_scenario_text("fr"))
    assert main(["run", path, "--format", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    born = doc["results"][0]
    okok = [e for e in born["distribution"] if e["outcome"] == ["okbar", "ok"]][0]
    assert okok["probability"] == 0.0833333333333
    audit = doc["results"][2]
    assert audit["premeasurement"]["contradiction"] is True
    assert audit["decoherent"]["contradiction"] is False


def test_run_decoherence_structured_restriction_equal(tmp_path, capsys):
    path = write(tmp_path, "d.scn", bundled_scenario_text("decoherence"))
    assert main(["run", path, "--format", "structured"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    cmp_res = [r for r in doc["results"] if r["kind"] == "decoherence_compare"][0]
    assert cmp_res["restriction_equal"] is True
    assert cmp_res["full_max_difference"] > 0.1
    cert = [r for r in doc["results"] if r["kind"] == "certainty"][0]
    assert cert["verdict"] == "undetermined"


def test_structured_output_is_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "fr.scn", bundled_scenario_text("fr"))
    main(["run", path, "--format", "structured"])
    first = capsys.readouterr().out
    main(["run", path, "--format", "structured"])
    second = capsys.readouterr().out
    assert first == second


def test_table_numbers_match_structured_to_all_printed_digits(tmp_path, capsys):
    path = write(tmp_path, "fr.scn", bundled_scenario_text("fr"))
    main(["run", path])
    table = capsys.readouterr().out
    main(["run", path, "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    born = doc["results"][0]["distribution"]
    for entry in born:
        labels = ", ".join(entry["outcome"])
        row = [l for l in table.splitlines() if l.strip().startswith(labels)][0]
        printed = row.split()[-1]
        assert float(printed) == entry["probability"]
        assert printed == repr(entry["probability"])


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.scn",
                 "layout:\n  subsystem R {head}\nstate: 1|head>\nqueries:\n  born targets=(Q)\n")
    assert main(["run", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "'Q'" in err and "line 5" in err


# Parses fine, fails at run time: the apparatus starts off-ready.
STUCK = """\
layout:
  subsystem R {head, tail}
  subsystem F {F0, F1, F2}
state: 1|head,F1>
actions:
  premeasure target=R apparatus=F basis={head,tail} outcomes={F1,F2} ready=F0
queries:
  born targets=(F)
"""


def test_execution_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "stuck.scn", STUCK)
    assert main(["run", path]) == EXIT_EXEC
    err = capsys.readouterr().err
    assert "action 1" in err


def test_check_subcommand(tmp_path, capsys):
    path = write(tmp_path, "fr.scn", bundled_scenario_text("fr"))
    assert main(["check", path]) == EXIT_OK
    assert "6 actions, 3 queries" in capsys.readouterr().out
    bad = write(tmp_path, "bad.scn", "layout:\nstate: 1|x>\nqueries:\n")
    assert main(["check", bad]) == EXIT_PARSE


def test_missing_file_reports_parse_exit(capsys):
    assert main(["run", "/nonexistent/nowhere.scn"]) == EXIT_PARSE


def test_demo_subcommand_all(capsys):
    for name in ("fr", "ambiguity", "decoherence", "triortho"):
        assert main(["demo", name]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scenario sha256" in out


def test_check_accepts_every_bundled_scenario(tmp_path, capsys):
    for name in ("fr", "ambiguity", "decoherence", "triortho"):
        path = write(tmp_path, f"{name}.scn", bundled_scenario_text(name))
        assert main(["check", path]) == EXIT_OK
        capsys.readouterr()


def test_run_prints_files_in_order(tmp_path, capsys):
    p1 = write(tmp_path, "a.scn", bundled_scenario_text("ambiguity"))
    p2 = write(tmp_path, "b.scn", bundled_scenario_text("triortho"))
    assert main(["run", p1, p2]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.index("a.scn") < out.index("b.scn")


def test_structured_output_of_several_files_is_one_document_per_file(tmp_path, capsys):
    names = ("ambiguity", "triortho")
    paths = [write(tmp_path, f"{n}.scn", bundled_scenario_text(n)) for n in names]
    assert main(["run", *paths, "--format", "structured"]) == EXIT_OK
    chunks = capsys.readouterr().out.split("### ")[1:]
    assert [c.split("\n", 1)[0] for c in chunks] == paths
    for name, chunk in zip(names, chunks):
        text = bundled_scenario_text(name)
        expected = run(parse_scenario(text), source_text=text).to_json()
        assert json.loads(chunk.split("\n", 1)[1]) == json.loads(expected)


def _renamed(value, old, new):
    """``value`` (a JSON document) with every string ``old`` replaced by ``new``."""
    if isinstance(value, dict):
        return {k: _renamed(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    return new if value == old else value


def test_a_model_may_take_a_register_name(tmp_path, capsys):
    # A model is a coupling the run does not apply, and no environment
    # register is attached under its name, so a model may share its name with
    # a register, declared (S) or made by a group (Lbar).  The results are
    # the bundled ones with only the model's name changed.
    cases = [("decoherence", "two-branch", "S"), ("fr", "three-branch", "Lbar")]
    for demo, model, register in cases:
        text = bundled_scenario_text(demo).replace(model, register)
        path = write(tmp_path, f"{demo}-{register}.scn", text)
        assert main(["check", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"{path}: OK (")
        assert main(["run", path, "--format", "structured"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        bundled = json.loads((GOLDEN / f"{demo}.json").read_text("utf-8"))
        results = json.loads(captured.out)["results"]
        assert results != bundled["results"]
        assert results == _renamed(bundled["results"], model, register)


# R is regrouped under its own name, with labels {x, y, ...}, before B
# measures it; each R has a derived label of its own.
STAGE_READ = """\
layout:
  subsystem R {h, t}
  derived R plus = sqrt(1/2)|h> + sqrt(1/2)|t>
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1, b2}
state: sqrt(1/2)|h,a0,b0> + sqrt(1/2)|t,a0,b0>
actions:
  premeasure target=R apparatus=A basis={h,t} outcomes={a1,a2} ready=a0
  group parts=(R,A) as R map={(h,a1):x, (t,a2):y}
  derived R xp = sqrt(1/2)|x> + sqrt(1/2)|y>
  derived R xm = sqrt(1/2)|x> - sqrt(1/2)|y>
  premeasure target=R apparatus=B basis={x,y} outcomes={b1,b2} ready=b0
queries:
  certainty observer=B outcome=b1 prop="R is_in_state x" semantics=premeasurement
  certainty observer=B outcome=b1 prop="R is_in_state xp" semantics=premeasurement
"""


@pytest.mark.parametrize("demo, line, old, new, col, message", [
    # F measures after R is grouped into Lbar.
    ("fr", 34, 'observer=Fbar outcome=F2 prop="L will_obtain fail"',
     'observer=F outcome=F2 prop="R is_in_state head"', 41,
     "prop subject 'R' no longer exists where 'F' measures"),
    # will_obtain reads the final stage, where Lbar holds R.
    ("fr", 34, 'prop="L will_obtain fail"', 'prop="R will_obtain head"', 44,
     "prop subject 'R' no longer exists at the final stage, where will_obtain reads it"),
    (None, 14, '"R is_in_state x"', '"R is_in_state h"', 55,
     "predicate 'h' is neither a basis nor a derived label of 'R'"),
    (None, 14, '"R is_in_state x"', '"R is_in_state plus"', 55,
     "predicate 'plus' is neither a basis nor a derived label of 'R'"),
], ids=["is_in_state-gone", "will_obtain-gone", "regrouped-old-label", "regrouped-old-derived"])
def test_a_claim_reads_its_subject_where_the_run_reads_it(tmp_path, capsys, demo, line, old,
                                                          new, col, message):
    # A claim's register subject resolves at the stage the run reads it,
    # not where the name first appears, so check and run reject it alike,
    # at the subject or predicate word the message quotes.
    lines = (bundled_scenario_text(demo) if demo else STAGE_READ).splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    assert lines[line - 1][col - 1:].startswith(re.search("'([^']*)'", message).group(1))
    path = write(tmp_path, "stage.scn", "".join(lines))
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{path}: parse error: line {line}, col {col}: {message} (fix: ")


SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def test_a_regrouped_register_declares_its_own_derived_labels(capsys):
    # The new R declares plus and minus, which the replaced R also declared.
    assert main(["run", str(SCENARIOS / "regroup.scn")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  minus    0.0\n  plus     1.0\n" in out


def test_a_replaced_register_passes_no_derived_label_on(capsys):
    # The new R equals the replaced one by value, and B resolved {plus,
    # minus} on the replaced R; the born target still may not read them.
    path = str(SCENARIOS / "regroup2.scn")
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == (f"{path}: parse error: line 16, col 20: 'plus' is neither a basis label "
                       "nor a derived label of 'R' (fix: declare it with: derived R plus = ...)\n")


def test_a_claim_on_a_register_regrouped_under_its_own_name_runs(tmp_path, capsys):
    path = write(tmp_path, "stage.scn", STAGE_READ)
    assert main(["run", path, "--format", "structured"]) == EXIT_OK
    computational, derived = json.loads(capsys.readouterr().out)["results"]
    assert computational["verdict"] == "certain"
    assert {"outcome": ["x"], "probability": 1.0} in computational["conditional"]
    assert derived["verdict"] == "undetermined"
    assert derived["conditional"] == [{"outcome": ["xm"], "probability": 0.5},
                                      {"outcome": ["xp"], "probability": 0.5}]


BAD = "layout:\n  subsystem R {head}\nstate: 1|head>\nqueries:\n  born targets=(Q)\n"


def test_run_keeps_going_after_a_failing_file(tmp_path, capsys):
    first = write(tmp_path, "first.scn", bundled_scenario_text("ambiguity"))
    bad = write(tmp_path, "bad.scn", BAD)
    last = write(tmp_path, "last.scn", bundled_scenario_text("triortho"))
    assert main(["run", first, bad, last]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out.count("scenario sha256") == 2
    assert captured.out.index(f"### {first}\n") < captured.out.index(f"### {last}\n")
    assert f"### {bad}" not in captured.out
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{bad}: parse error: ")
    # The exit code is the first failure's, an unreadable file counting as 2.
    stuck = write(tmp_path, "stuck.scn", STUCK)
    assert main(["run", stuck, bad, str(tmp_path / "missing.scn")]) == EXIT_EXEC
    assert main(["run", str(tmp_path / "missing.scn"), stuck]) == EXIT_PARSE
    assert len(capsys.readouterr().err.splitlines()) == 5


@pytest.mark.parametrize(("command", "value"), [("run", "0.1"), ("demo", "0")])
def test_tolerance_is_not_an_option(tmp_path, capsys, command, value):
    # Printed numbers clamp to 0 below one fixed 1e-12: a larger clamp would
    # print p = 0 beside a contradiction that the unclamped p > 0 decides.
    target = write(tmp_path, "fr.scn", bundled_scenario_text("fr")) if command == "run" else "fr"
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--tolerance", value])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --tolerance {value}" in captured.err
    assert "Traceback" not in captured.err


def test_group_with_leading_part_absorbed_and_reordered_couple_targets():
    # The merged register takes the first part's slot even when another part
    # sat earlier in the layout, and couple targets written out of layout
    # order still address the right registers.
    text = """\
layout:
  subsystem A {a0, a1}
  subsystem B {b0, b1}
  subsystem C {c0, c1}
state: sqrt(1/2)|a0,b0,c0> + sqrt(1/2)|a1,b0,c1>
actions:
  group parts=(C,A) as G map={(c0,a0):p, (c1,a1):q}
  couple env=E targets=(G,B) branches={|p,b0>, |q,b0>}
queries:
  born targets=(E)
"""
    report = run(parse_scenario(text), source_text=text)
    dist = {tuple(e["outcome"]): e["probability"]
            for e in report.results[0]["distribution"]}
    assert dist[("eps1",)] == 0.5
    assert dist[("eps2",)] == 0.5


def test_report_echoes_scenario_hash(tmp_path):
    import hashlib

    text = bundled_scenario_text("triortho")
    report = run(parse_scenario(text), source_text=text)
    assert report.scenario_hash == hashlib.sha256(text.encode()).hexdigest()


def test_empty_actions_scenario_runs_born():
    text = """\
layout:
  subsystem R {head, tail}
state: sqrt(1/3)|head> + sqrt(2/3)|tail>
actions:
queries:
  born targets=(R)
"""
    report = run(parse_scenario(text), source_text=text)
    dist = report.results[0]["distribution"]
    assert dist[0]["probability"] == 0.333333333333
    assert dist[1]["probability"] == 0.666666666667


FULL_CHAIN = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
  derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
  subsystem Fbar {F0, F1, F2}
  subsystem F {F0, F1, F2}
  subsystem Wbar {W0, W1, W2}
  subsystem W {W0, W1, W2}
state: sqrt(1/3)|head,down,F0,F0,W0,W0> + sqrt(2/3)|tail,right,F0,F0,W0,W0>
actions:
  premeasure target=R apparatus=Fbar basis={head,tail} outcomes={F1,F2} ready=F0
  group parts=(R,Fbar) as Lbar map={(head,F1):h, (tail,F2):t}
  premeasure target=S apparatus=F basis={down,up} outcomes={F1,F2} ready=F0
  group parts=(S,F) as L map={(down,F1):-1/2, (up,F2):+1/2}
  derived Lbar failbar = sqrt(1/2)|h> + sqrt(1/2)|t>
  derived Lbar okbar = sqrt(1/2)|h> - sqrt(1/2)|t>
  derived L fail = sqrt(1/2)|-1/2> + sqrt(1/2)|+1/2>
  derived L ok = sqrt(1/2)|-1/2> - sqrt(1/2)|+1/2>
  premeasure target=Lbar apparatus=Wbar basis={failbar,okbar} outcomes={W1,W2} ready=W0
  premeasure target=L apparatus=W basis={fail,ok} outcomes={W1,W2} ready=W0
queries:
  born targets=(Wbar:{W1,W2}, W:{W1,W2})
  certainty observer=Fbar outcome=F2 prop="W will_obtain fail" semantics=premeasurement
"""


def test_explicit_outer_registers_scenario():
    # Six-action variant with the outer agents as real registers: the record
    # statistics equal the laboratory statistics of the bundled file.
    report = run(parse_scenario(FULL_CHAIN), source_text=FULL_CHAIN)
    dist = {tuple(e["outcome"]): e["probability"]
            for e in report.results[0]["distribution"]}
    assert dist[("W1", "W1")] == 0.75
    assert dist[("W2", "W2")] == 0.0833333333333
    cert = report.results[1]
    assert cert["verdict"] == "certain"
    assert cert["prop"] == "W will_obtain fail"


def test_vector_literal_basis_runs():
    # Explicit amplitude tuples in a premeasure basis work end to end.
    text = """\
layout:
  subsystem R {head, tail}
  subsystem M {M0, M1, M2}
state: 1|head,M0>
actions:
  premeasure target=R apparatus=M basis={(sqrt(1/2),sqrt(1/2)),(sqrt(1/2),-sqrt(1/2))} outcomes={M1,M2} ready=M0
queries:
  born targets=(M:{M1,M2})
"""
    report = run(parse_scenario(text), source_text=text)
    dist = {tuple(e["outcome"]): e["probability"]
            for e in report.results[0]["distribution"]}
    assert dist[("M1",)] == 0.5
    assert dist[("M2",)] == 0.5


def test_dsl_certainty_on_grouped_register_and_basis_label_outcome():
    # Statement-2 per the bundled chain, expressed in scenario text: the
    # observer outcome may be given as the measured-basis label and the
    # proposition may target a grouped register's computational label.
    text = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
  derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
  subsystem Fbar {F0, F1, F2}
  subsystem F {F0, F1, F2}
state: sqrt(1/3)|head,down,F0,F0> + sqrt(2/3)|tail,right,F0,F0>
actions:
  premeasure target=R apparatus=Fbar basis={head,tail} outcomes={F1,F2} ready=F0
  group parts=(R,Fbar) as Lbar map={(head,F1):h, (tail,F2):t}
  premeasure target=S apparatus=F basis={down,up} outcomes={F1,F2} ready=F0
queries:
  certainty observer=F outcome=up prop="Lbar is_in_state t" semantics=premeasurement
"""
    report = run(parse_scenario(text), source_text=text)
    cert = report.results[0]
    assert cert["verdict"] == "certain"
    conditional = {tuple(e["outcome"]): e["probability"] for e in cert["conditional"]}
    assert conditional[("t",)] == 1.0


def test_scenario_couple_action_attaches_environment():
    text = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
  derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
  subsystem A {A0, A1, A2}
state: sqrt(1/3)|head,down,A0> + sqrt(2/3)|tail,right,A0>
actions:
  premeasure target=R apparatus=A basis={head,tail} outcomes={A1,A2} ready=A0
  couple env=E targets=(R,S,A) branches={|head,down,A1>, |tail,right,A2>}
queries:
  born targets=(E)
"""
    report = run(parse_scenario(text), source_text=text)
    dist = {tuple(e["outcome"]): e["probability"]
            for e in report.results[0]["distribution"]}
    assert dist[("eps1",)] == 0.333333333333
    assert dist[("eps2",)] == 0.666666666667
    assert dist[("eps0",)] == 0.0


def test_oversized_layout_exits_2_with_one_line(tmp_path, capsys):
    # 10**20 amplitudes: the seventh register already passes the parser's limit.
    names = [f"s{k}" for k in range(20)]
    levels = ", ".join(f"l{i}" for i in range(10))
    text = ("layout:\n" + "".join(f"  subsystem {n} {{{levels}}}\n" for n in names)
            + "state: 1|" + ",".join("l0" for _ in names) + ">\n"
            + "queries:\n  born targets=(s0)\n")
    path = write(tmp_path, "big.scn", text)
    assert main(["run", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{path}: ")
    assert "line 8, col 3: layout would hold 10,000,000 amplitudes, over the limit" in err


def test_undecidable_triortho_exits_3_with_one_line(tmp_path, capsys):
    # 3x2x2 with reduced ranks (3, 2, 2): only part (A) has the top rank.
    text = """\
layout:
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1}
  subsystem C {c0, c1}
state: 1|a0,b0,c0> + 1|a1,b1,c1> + 0.5|a2,b0,c0> + 0.5|a2,b0,c1> + 0.5|a2,b1,c0> + 0.5|a2,b1,c1>
queries:
  triortho parts=((A),(B),(C))
"""
    path = write(tmp_path, "top.scn", text)
    assert main(["run", path]) == EXIT_EXEC
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{path}: execution error: query 1 (TriorthoQuery): ")
    assert "part 1 (A)" in err and "ranks 3, 2, 2" in err


def test_diagnostics_name_the_failing_file(tmp_path, capsys):
    good = write(tmp_path, "good.scn", bundled_scenario_text("ambiguity"))
    bad = write(tmp_path, "bad.scn", BAD)
    assert main(["run", good, bad]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: parse error: line 5, col 17: ")
    stuck = write(tmp_path, "stuck.scn", STUCK)
    assert main(["run", good, stuck]) == EXIT_EXEC
    assert capsys.readouterr().err.startswith(f"{stuck}: execution error: action 1 ")


def test_rewrite_prints_a_tiny_component_the_rebuild_needs(tmp_path, capsys):
    text = ("layout:\n  subsystem R {head, tail}\n  subsystem S {up, down}\n"
            "state: 1|head,up> + 1e-7|tail,down>\nqueries:\n  rewrite bases=()\n")
    path = write(tmp_path, "tiny.scn", text)
    assert main(["run", path]) == EXIT_OK
    assert "tail, down  1e-07" in capsys.readouterr().out


def test_table_prints_complex_coefficients_with_their_signs(tmp_path, capsys):
    # A zero imaginary part is left out; a zero real part is kept.
    text = ("layout:\n  subsystem a {x, y}\n  subsystem b {p, q}\n"
            "state: (0.5+0.5i)|x,p> - 0.5|y,p> - 0.5i|y,q>\nqueries:\n"
            "  rewrite bases=(a:{x,y})\n")
    path = write(tmp_path, "complex.scn", text)
    assert main(["run", path]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    assert table[-4:] == ["  component  coefficient", "  x, p       0.5+0.5i",
                          "  y, p       -0.5", "  y, q       0.0-0.5i"]


PAIR = """\
layout:
  subsystem R {head, tail}
  subsystem A {a0, a1, a2}
state: sqrt(1/2)|head,a0> + sqrt(1/2)|tail,a0>
actions:
  premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0
models:
  model m targets=(R) branches={|head>, |tail>}
queries:
  born targets=(R, A)
"""


@pytest.mark.parametrize("old, new, line, col", [
    ("actions:\n", "actions:\n  couple env=E targets=(R,R) branches={|head,head>, |tail,tail>}\n",
     6, 27),
    ("model m targets=(R)", "model m targets=(R,R)", 8, 22),
    ("born targets=(R, A)", "born targets=(R, R)", 10, 20),
    ("born targets=(R, A)", "rewrite bases=(R:{head,tail}, R:{tail,head})", 10, 33),
    ("born targets=(R, A)", 'consistency_audit chain=(s1:"A a1 R is_in_state head") '
     "joint=(A:head, A:tail) decoherent=s1 models=(m)", 10, 73),
    ("models:\n", "  group parts=(R,A) as G map={(head,a0):x, (head,a0):y}\nmodels:\n", 7, 44),
    ("born targets=(R, A)", 'certainty observer=A outcome=a1 prop="R is_in_state head" '
     "semantics=decoherent models=(m, m)", 10, 93),
    ("born targets=(R, A)", 'consistency_audit chain=(s1:"A a1 R is_in_state head") '
     "joint=(A:head) decoherent=s1 models=(m, m)", 10, 98),
    ("born targets=(R, A)", "triortho parts=((R),(A,A),(A))", 10, 26),
    ("born targets=(R, A)", "born targets=(R, R:{head,tail})", 10, 20),
    ("basis={head,tail}", "basis={head,head}", 6, 47),
], ids=["couple-targets", "model-targets", "born-targets", "rewrite-bases", "audit-joint",
        "group-map", "certainty-models", "audit-models", "triortho-part", "born-bare-and-labelled",
        "premeasure-basis"])
def test_repeated_entry_is_a_parse_error_at_its_column(tmp_path, capsys, old, new, line, col):
    # These used to exit 3 (a layout with R twice), fail only at run time,
    # or exit 0 with the last repeat silently winning.
    text = PAIR.replace(old, new, 1).replace("born targets=(R, A)", "born targets=(A)")
    path = write(tmp_path, "repeat.scn", text)
    assert main(["check", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"line {line}, col {col}: " in err and "appears twice" in err


SHARED_OBSERVER = """\
layout:
  subsystem R {head, tail}
  derived R plus = sqrt(1/2)|head> + sqrt(1/2)|tail>
  subsystem A {a0, a1, a2}
state: 1|head,a0>
actions:
  premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0
models:
  model m targets=(R,A) branches={|head,a1>, |tail,a2>}
queries:
  born targets=(R)
"""
UNCOVERED = 'certainty observer=A outcome=a1 prop="R is_in_state plus" semantics=decoherent ' \
            'models=(m)'
IMPOSSIBLE = 'certainty observer=A outcome=a2 prop="R is_in_state head" semantics=premeasurement'
CERTAIN = 'certainty observer=A outcome=a1 prop="R is_in_state head" semantics=premeasurement'
# An audit whose second statement names an impossible record, and one whose
# statement fails in the replay; both recheck statement s1.
AUDIT_IMPOSSIBLE = 'consistency_audit chain=(s1:"A a1 R is_in_state head", ' \
                   's2:"A a2 R is_in_state head") joint=(A:head) decoherent=s1 models=(m)'
AUDIT_UNCOVERED = 'consistency_audit chain=(s1:"A a1 R is_in_state plus") joint=(A:head) ' \
                  'decoherent=s1 models=(m)'
ZERO_A2 = "record 'a2' has probability 0 at 'A''s stage"
HALF = "measured bases cover only probability 0.5 of the state"


@pytest.mark.parametrize("queries, message", [
    ((UNCOVERED, IMPOSSIBLE), f"query 2 (CertaintyQuery): {HALF}"),
    ((IMPOSSIBLE, UNCOVERED), f"query 2 (CertaintyQuery): {ZERO_A2}"),
    ((CERTAIN, UNCOVERED), f"query 3 (CertaintyQuery): {HALF}"),
    ((CERTAIN, AUDIT_IMPOSSIBLE), f"query 3 (AuditQuery): {ZERO_A2}"),
    ((UNCOVERED, AUDIT_IMPOSSIBLE), f"query 2 (CertaintyQuery): {HALF}"),
    ((AUDIT_IMPOSSIBLE, UNCOVERED), f"query 2 (AuditQuery): {ZERO_A2}"),
    ((IMPOSSIBLE, AUDIT_UNCOVERED), f"query 2 (CertaintyQuery): {ZERO_A2}"),
    ((CERTAIN, AUDIT_UNCOVERED), f"query 3 (AuditQuery): {HALF}"),
], ids=["replay-then-plan", "plan-then-replay", "certain-then-replay", "certain-then-audit-plan",
        "replay-then-audit-plan", "audit-plan-then-replay", "plan-then-audit-replay",
        "certain-then-audit-replay"])
def test_a_failing_certainty_query_is_named_as_when_answered_alone(
        tmp_path, capsys, queries, message):
    # The queries share an observer and so one replay; the diagnostic still
    # names the first failing query with its own message, as when each
    # query was answered alone.  One failure comes from the replay (Born
    # coverage), the other before it (an impossible record).  An audit's
    # statements join the same replay.
    text = SHARED_OBSERVER + "".join(f"  {q}\n" for q in queries)
    path = write(tmp_path, "shared.scn", text)
    assert main(["run", path]) == EXIT_EXEC
    assert capsys.readouterr().err == f"{path}: execution error: {message}\n"


GROUPED_AWAY = """\
layout:
  subsystem S {s0, s1}
  subsystem F1 {a0, a1, a2}
  subsystem W2 {a0, a1, a2}
state: sqrt(1/2)|s0,a0,a0> + sqrt(1/2)|s1,a0,a0>
actions:
  premeasure target=S apparatus=F1 basis={s0,s1} outcomes={a1,a2} ready=a0
  group parts=(S,F1) as L1 map={(s0,a1):x, (s1,a2):y}
  derived L1 p = sqrt(1/2)|x> + sqrt(1/2)|y>
  derived L1 q = sqrt(1/2)|x> - sqrt(1/2)|y>
  premeasure target=L1 apparatus=W2 basis={p,q} outcomes={a1,a2} ready=a0
models:
  model two targets=(S,F1) branches={|s0,a1>, |s1,a2>}
queries:
"""


@pytest.mark.parametrize("query", [
    'certainty observer=W2 outcome=a1 prop="W2 will_obtain p" semantics=decoherent '
    "models=(two)",
    'consistency_audit chain=(s1:"W2 a1 W2 will_obtain p") joint=(W2:p) decoherent=s1 '
    "models=(two)",
], ids=["certainty", "audit"])
def test_a_model_of_registers_gone_by_the_observers_stage_is_a_parse_error(
        tmp_path, capsys, query):
    # This used to exit 3 with "layout has no subsystem 'S'" from the run.
    # The diagnostic points at the models= value.
    col = 3 + query.index("models=") + len("models=")
    path = write(tmp_path, "gone.scn", GROUPED_AWAY + f"  {query}\n")
    assert main(["run", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"parse error: line 15, col {col}: model 'two' couples 'S', which is not in " \
           "the layout where 'W2' measures" in err
    # At F1's stage the model's registers are all there.
    fine = GROUPED_AWAY + "  " + query.replace("observer=W2", "observer=F1").replace(
        '"W2 a1', '"F1 a1') + "\n"
    assert main(["check", write(tmp_path, "fine.scn", fine)]) == EXIT_OK


# Parses: every directive and query kind once, for the malformed forms below.
EVERY_DIRECTIVE = """\
layout:
  subsystem R {head, tail}
  subsystem S {up, down}
  derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1, b2}
state: sqrt(1/2)|head,up,a0,b0> + sqrt(1/2)|tail,up,a0,b0>
actions:
  premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0
  couple env=E targets=(S) branches={|up>, |down>}
  group parts=(R,A) as L map={(head,a1):h, (tail,a2):t}
  premeasure target=L apparatus=B basis={h,t} outcomes={b1,b2} ready=b0
models:
  model m targets=(R,A) branches={|head,a1>, |tail,a2>}
  model m2 targets=(B) branches={|b1>, |b2>}
  model m3 targets=(B) branches={|b0>, |b1>, |b2>}
queries:
  born targets=(B)
  certainty observer=A outcome=a1 prop="B will_obtain h" semantics=premeasurement
  certainty observer=A outcome=a1 prop="B will_obtain h" semantics=decoherent models=(m)
  rewrite bases=(B:{b0,b1,b2})
  triortho parts=((L),(S,E),(B))
  consistency_audit chain=(s1:"A a1 B will_obtain h", s2:"B b1 L is_in_state h") \
joint=(B:t) decoherent=s1 models=(m)
  decoherence_compare models=(m2, m3) hidden=(S) apparatus=B
"""
PREMEASURE_A = "premeasure target=R apparatus=A basis={head,tail} outcomes={a1,a2} ready=a0"
CERTAIN_A = 'certainty observer=A outcome=a1 prop="B will_obtain h" semantics=premeasurement'


# Rows whose diagnostic quotes a token other than the one it points at,
# with the reason.
QUOTES_ANOTHER_TOKEN = {
    "derived-norm": "about the whole expression; quotes the label it defines",
    "premeasure-literal-size": "about the literal; quotes the register it is measured against",
    "couple-arity": "about the branch ket; quotes the targets it is written over",
}


@pytest.mark.parametrize("old, new, line, col", [
    pytest.param("models:", "queries:\n  born targets=(B)\nmodels:", 15, 1, id="section-order"),
    pytest.param("queries:", "layout:\nqueries:", 17, 1, id="section-twice"),
    pytest.param("actions:", "actions: now", 8, 1, id="section-text"),
    pytest.param("layout:\n", "  subsystem Z {z}\nlayout:\n", 1, 1, id="before-header"),
    pytest.param("state: sqrt(1/2)", "state:\n  sqrt(1/2)", 7, 1, id="state-empty"),
    pytest.param("\nactions:", "\n  1|head,up,a0,b0>\nactions:", 8, 3, id="state-two-lines"),
    pytest.param("state: sqrt(1/2)|head,up,a0,b0> + sqrt(1/2)|tail,up,a0,b0>\n", "", 23, 1,
                 id="no-state"),
    pytest.param(EVERY_DIRECTIVE[EVERY_DIRECTIVE.index("queries:"):], "", 16, 1,
                 id="no-queries"),
    pytest.param("|tail,up,a0,b0>", "|tail,u*p,a0,b0>", 7, 50, id="ket-label"),
    pytest.param("|tail,up,a0,b0>", "|tail,left,a0,b0>", 7, 50, id="state-unknown-label"),
    pytest.param("subsystem R {head, tail}", "subsystem R head, tail", 2, 3,
                 id="subsystem-braces"),
    pytest.param("subsystem R {", "subsystem 1R {", 2, 13, id="subsystem-name"),
    pytest.param("{head, tail}", "{head, ta*l}", 2, 22, id="subsystem-label"),
    pytest.param("{head, tail}", "{}", 2, 15, id="subsystem-empty"),
    pytest.param("{head, tail}", "{head, head}", 2, 22, id="subsystem-repeat"),
    pytest.param("subsystem R", "qubit R", 2, 3, id="layout-directive"),
    pytest.param("derived S right = ", "derived S right ", 4, 3, id="derived-shape"),
    pytest.param("derived S right", "derived S ri*ht", 4, 13, id="derived-label"),
    pytest.param("derived S right", "derived S up", 4, 13, id="derived-taken"),
    pytest.param("= sqrt(1/2)|up> + sqrt(1/2)|down>", "= 1|up,down>", 4, 23, id="derived-arity"),
    pytest.param("= sqrt(1/2)|up> + sqrt(1/2)|down>", "= 1|left>", 4, 23, id="derived-unknown"),
    pytest.param("= sqrt(1/2)|up> + sqrt(1/2)|down>", "= 1|up> + 1|down>", 4, 21,
                 id="derived-norm"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("apparatus=A", "apparatus=R"), 9, 33,
                 id="premeasure-self"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{a1,a2}", "{a1,a1}"), 9, 66,
                 id="premeasure-outcome-repeat"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{a1,a2}", "{a1}"), 9, 62,
                 id="premeasure-outcome-count"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("ready=a0", "ready=zz"), 9, 76,
                 id="premeasure-ready"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{head,tail}", "{(1,0,0),(0,1)}"), 9, 42,
                 id="premeasure-literal-size"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{head,tail}", "{head,ta*l}"), 9, 47,
                 id="premeasure-basis-label"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{head,tail}", "{(,0),(0,1)}"), 9, 43,
                 id="premeasure-literal-empty"),
    pytest.param("couple env=E targets=(S) branches={|up>, |down>}",
                 "premeasure target=S apparatus=A basis={up,down} outcomes={a1,a2} ready=a0",
                 10, 33, id="premeasure-apparatus-twice"),
    pytest.param("parts=(R,A) as L", "parts=(R,A) L", 11, 3, id="group-shape"),
    pytest.param("parts=(R,A) as L", "parts=(R,R) as L", 11, 18, id="group-parts"),
    pytest.param("parts=(R,A) as L", "parts=(R) as L", 11, 15, id="group-one-part"),
    pytest.param("parts=(R,A) as L", "parts=(R,A) as 1L", 11, 24, id="group-name"),
    pytest.param("(tail,a2):t}", "tail:t}", 11, 44, id="group-entry"),
    pytest.param("(tail,a2):t}", "(tail,a2):t*}", 11, 54, id="group-label"),
    pytest.param("map={(head,a1):h, (tail,a2):t}", "map=(head,a1):h", 11, 30,
                 id="group-map-braces"),
    pytest.param(PREMEASURE_A, PREMEASURE_A.replace("{head,tail}", "{}"), 9, 41,
                 id="premeasure-empty-basis"),
    pytest.param("couple env=E", "couple env=R", 10, 14, id="couple-env"),
    pytest.param("targets=(S) branches", "targets=() branches", 10, 24, id="couple-no-targets"),
    pytest.param("{|up>, |down>}", "{}", 10, 37, id="couple-no-branches"),
    pytest.param("{|up>, |down>}", "{|up>, |down,up>}", 10, 45, id="couple-arity"),
    pytest.param("{|up>, |down>}", "{|up>, |left>}", 10, 45, id="couple-unknown-label"),
    pytest.param("model m targets=(R,A) branches={|head,a1>, |tail,a2>}", "model m", 14, 3,
                 id="model-shape"),
    pytest.param("model m targets", "model 1m targets", 14, 9, id="model-name"),
    pytest.param("  model m2 ", "  model m targets=(R) branches={|head>, |tail>}\n  model m2 ",
                 15, 9, id="model-twice"),
    pytest.param("born targets=(B)", "born targets=()", 18, 3, id="born-empty"),
    pytest.param("born targets=(B)", "born targets=(B) targets=(B)", 18, 20,
                 id="born-field-twice"),
    pytest.param("born targets=(B)", "born (B)", 18, 8, id="born-no-key"),
    pytest.param("{b0,b1,b2}", "{(1,0,0),b1,b2}", 21, 21, id="rewrite-literal"),
    pytest.param("(B:{b0,b1,b2})", "(B {b0,b1,b2})", 21, 18, id="rewrite-entry"),
    pytest.param("{b0,b1,b2}", "{b0,b1}", 21, 18, id="rewrite-incomplete"),
    pytest.param(CERTAIN_A, CERTAIN_A.replace("outcome=a1", "outcome=zz"), 19, 32,
                 id="certainty-outcome"),
    pytest.param(CERTAIN_A, CERTAIN_A.replace("will_obtain", "may_obtain"), 19, 43,
                 id="certainty-quantifier"),
    pytest.param(CERTAIN_A, CERTAIN_A.replace("=premeasurement", "=classical"), 19, 68,
                 id="certainty-semantics"),
    pytest.param(CERTAIN_A, CERTAIN_A + " models=(m)", 19, 3, id="certainty-models"),
    pytest.param("parts=((L),(S,E),(B))", "parts=((L),(S,E,B))", 22, 18, id="triortho-count"),
    pytest.param("parts=((L),(S,E),(B))", "parts=((L),(S),(B))", 22, 18, id="triortho-cover"),
    pytest.param('s2:"B b1', 's2:"B b9', 23, 61, id="audit-statement-outcome"),
    pytest.param("joint=(B:t)", "joint=(A:head)", 23, 89, id="audit-joint"),
    pytest.param("models=(m2, m3)", "models=(m2)", 24, 30, id="compare-models"),
])
def test_each_malformed_directive_is_one_positioned_diagnostic(request, tmp_path, capsys, old,
                                                               new, line, col):
    assert EVERY_DIRECTIVE.count(old) == 1
    text = EVERY_DIRECTIVE.replace(old, new)
    path = write(tmp_path, "bad.scn", text)
    assert main(["check", path]) == EXIT_PARSE
    captured = capsys.readouterr()
    (diagnostic,) = captured.err.splitlines()
    assert captured.out == ""
    head = f"{path}: parse error: line {line}, col {col}: "
    assert diagnostic.startswith(head)
    # A diagnostic whose message quotes a token points at it, unless its
    # row is listed, with the reason, as quoting another.
    quoted = re.search(r"'([^']*)'", diagnostic[len(head):].partition(" (fix: ")[0])
    if quoted:
        at = text.splitlines()[line - 1][col - 1:]
        listed = request.node.callspec.id in QUOTES_ANOTHER_TOKEN
        assert at.startswith(quoted.group(1)) != listed, (diagnostic, at)


@pytest.mark.parametrize("old, new, line, col, message", [
    ("couple env=E", "couple env=E:x,y", 10, 14, "malformed environment name 'E:x,y'"),
    ("{head,tail}", "{(1,0), (0,-)}", 9, 52, "vector literal entry '-' has no amplitude"),
], ids=["environment-name", "literal-sign-only-entry"])
def test_names_and_literal_entries_are_read_one_way(tmp_path, capsys, old, new, line, col,
                                                    message):
    # An environment name passes the check every declared name passes.  A
    # vector literal entry needs a number: unlike a ket's omitted
    # coefficient, a bare sign does not stand for 1 or -1.
    path = write(tmp_path, "bad.scn", EVERY_DIRECTIVE.replace(old, new, 1))
    assert main(["check", path]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(
        f"{path}: parse error: line {line}, col {col}: {message} (fix: ")


def test_group_parts_may_have_spaces_like_every_other_list(tmp_path, capsys):
    # Group lines are split into tokens like premeasure and couple lines, so
    # a space after the comma of parts=(...) reads as in any other list.
    results = []
    for parts in ("parts=(R,Fbar)", "parts=(R, Fbar)", "parts=( R ,Fbar )"):
        text = bundled_scenario_text("fr")
        assert text.count("parts=(R,Fbar)") == 1
        path = write(tmp_path, "fr.scn", text.replace("parts=(R,Fbar)", parts))
        assert main(["run", path, "--format", "structured"]) == EXIT_OK
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1] == results[2]
