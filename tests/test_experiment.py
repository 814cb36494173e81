"""Protocol transcript, joint outcomes, certainty semantics, audits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointerlab as pl
from pointerlab import experiment as ex
from pointerlab.cli import bundled_scenario_text
from pointerlab.errors import (ImpossibleOutcomeError, NonOrthonormalBasisError, PointerLabError,
                               UnknownLabelError)
from pointerlab.experiment import Proposition, run_transcript
from pointerlab.measurement import Basis
from pointerlab.runner import scenario_transcript
from pointerlab.scenario import (AuditQuery, CertaintyQuery, CompareQuery, CoupleAction,
                                 PremeasureAction, parse_scenario)

SQ = math.sqrt
H = 1 / SQ(2)

# The protocol's pieces, as the bundled FR scenario declares them.
FR = parse_scenario(bundled_scenario_text("fr"))
MEASURED = {a.apparatus: a.resolved.basis for a in FR.actions if isinstance(a, PremeasureAction)}
FAILBAR_OKBAR = MEASURED["Wbar"]  # {failbar, okbar} over Lbar
FAIL_OK = MEASURED["W"]  # {fail, ok} over L
SPIN_DIRECTION = next(dict(q.chain)["statement-1-spin"].resolved.prop.basis
                      for q in FR.queries if isinstance(q, AuditQuery))  # {right, left} over S
MODELS = tuple(m.resolved for m in FR.models)
READY = ("F0", "F0", "W0", "W0")


def test_initial_state():
    s = FR.initial
    assert abs(s.norm() - 1.0) < 1e-12
    assert s.amplitude(("head", "up") + READY) == 0
    assert abs(s.amplitude(("tail", "down") + READY) - 1 / SQ(3)) < 1e-12
    assert abs(s.amplitude(("head", "down") + READY) - SQ(1 / 3)) < 1e-12


def test_stage_after_inside_coin_measurement():
    tr = pl.run_protocol()
    st = tr.stage("after-Fbar").state

    def amp(r, s, f):
        return st.amplitude((r, s, f, "F0", "W0", "W0"))

    assert abs(amp("head", "down", "F1") - SQ(1 / 3)) < 1e-9
    assert abs(amp("tail", "down", "F2") - SQ(1 / 3)) < 1e-9
    assert abs(amp("tail", "up", "F2") - SQ(1 / 3)) < 1e-9
    assert abs(amp("head", "down", "F0")) < 1e-12


def test_stage_grouped_laboratories():
    tr = pl.run_protocol()
    g1 = tr.stage("group-Lbar").state
    assert g1.layout.names == ("Lbar", "S", "F", "Wbar", "W")
    assert abs(g1.amplitude(("h", "down", "F0", "W0", "W0")) - SQ(1 / 3)) < 1e-9
    g2 = tr.stage("group-L").state
    assert g2.layout.names == ("Lbar", "L", "Wbar", "W")
    for labels in [("h", "-1/2"), ("t", "-1/2"), ("t", "+1/2")]:
        assert abs(g2.amplitude(labels + ("W0", "W0")) - SQ(1 / 3)) < 1e-9


def test_stage_after_outer_lab_measurement():
    tr = pl.run_protocol()
    st = tr.stage("after-Wbar").state
    lay = st.layout
    okbar = FAILBAR_OKBAR.vectors[1]
    probe = pl.tensor(
        pl.tensor(okbar, pl.basis_state(lay.sublayout(["L"]), ("+1/2",))),
        pl.tensor(pl.basis_state(lay.sublayout(["Wbar"]), ("W2",)),
                  pl.basis_state(lay.sublayout(["W"]), ("W0",))),
    )
    assert abs(pl.inner(probe, st) - (-SQ(1 / 6))) < 1e-9


def test_final_stage_amplitudes():
    tr = pl.run_protocol()
    st = tr.final_state
    lay = st.layout
    fb = FAILBAR_OKBAR
    fo = FAIL_OK

    def amp(lbar_i, l_i, wbar, w):
        probe = pl.tensor(
            pl.tensor(fb.vectors[lbar_i], fo.vectors[l_i]),
            pl.tensor(pl.basis_state(lay.sublayout(["Wbar"]), (wbar,)),
                      pl.basis_state(lay.sublayout(["W"]), (w,))),
        )
        return pl.inner(probe, st)

    assert abs(amp(0, 0, "W1", "W1") - SQ(3 / 4)) < 1e-9
    assert abs(amp(0, 1, "W1", "W2") - SQ(1 / 12)) < 1e-9
    assert abs(amp(1, 0, "W2", "W1") - (-SQ(1 / 12))) < 1e-9
    assert abs(amp(1, 1, "W2", "W2") - SQ(1 / 12)) < 1e-9


def test_every_stage_has_unit_norm_with_tiny_drift():
    tr = pl.run_protocol()
    for st in tr.stages:
        assert abs(st.state.norm() - 1.0) < 1e-12


def test_joint_outcome_distribution():
    tr = pl.run_protocol()
    dist = pl.joint_outcome(tr, ("Wbar", "W"))
    assert abs(dist.probability(("failbar", "fail")) - 3 / 4) < 1e-9
    assert abs(dist.probability(("failbar", "ok")) - 1 / 12) < 1e-9
    assert abs(dist.probability(("okbar", "fail")) - 1 / 12) < 1e-9
    assert abs(dist.probability(("okbar", "ok")) - 1 / 12) < 1e-9


def test_joint_outcome_marginal_matches_brute_force():
    # Oracle: enumerate the final amplitude vector directly against
    # hand-built record projectors, no born() involved.
    tr = pl.run_protocol()
    st = tr.final_state
    lay = st.layout
    t = st.amplitudes.reshape(lay.dims)
    wbar_axis = lay.axis("Wbar")
    idx_w1 = lay.subsystem("Wbar").labels.index("W1")
    p_fail = float(np.sum(np.abs(np.take(t, idx_w1, axis=wbar_axis)) ** 2))
    idx_w2 = lay.subsystem("Wbar").labels.index("W2")
    p_ok = float(np.sum(np.abs(np.take(t, idx_w2, axis=wbar_axis)) ** 2))
    assert abs(p_fail - 5 / 6) < 1e-9
    assert abs(p_ok - 1 / 6) < 1e-9
    dist = pl.joint_outcome(tr, ("Wbar",))
    assert abs(dist.probability(("failbar",)) - p_fail) < 1e-9
    assert abs(dist.probability(("okbar",)) - p_ok) < 1e-9


def test_statement_chain_premeasurement():
    tr = pl.run_protocol()
    final_layout = tr.final_state.layout

    s1 = pl.certainty(tr, "Fbar", "F2",
                      Proposition("L", FAIL_OK, "fail", "will_obtain"))
    assert s1.kind == "certain"
    assert abs(s1.conditional.probability(("fail",)) - 1.0) < 1e-9

    s2 = pl.certainty(tr, "F", "F2",
                      Proposition("Lbar", Basis.computational(final_layout, "Lbar"),
                                  "t", "is_in_state"))
    assert s2.kind == "certain"
    assert abs(s2.conditional.probability(("t",)) - 1.0) < 1e-9

    s3 = pl.certainty(tr, "Wbar", "W2",
                      Proposition("L", Basis.computational(final_layout, "L"),
                                  "+1/2", "is_in_state"))
    assert s3.kind == "certain"
    assert abs(s3.conditional.probability(("+1/2",)) - 1.0) < 1e-9


def test_head_record_certifies_spin_down():
    tr = pl.run_protocol()
    lay = tr.stage("after-Fbar").state.layout
    prop = Proposition("S", Basis.computational(lay, "S"), "down", "is_in_state")
    v = pl.certainty(tr, "Fbar", "F1", prop)
    assert v.kind == "certain"


def test_observed_outcome_accepts_basis_label_too():
    tr = pl.run_protocol()
    prop = Proposition("S", SPIN_DIRECTION, "right", "is_in_state")
    by_record = pl.certainty(tr, "Fbar", "F2", prop)
    by_label = pl.certainty(tr, "Fbar", "tail", prop)
    assert by_record.kind == by_label.kind == "certain"


def test_decoherent_semantics_blocks_spin_claim():
    tr = pl.run_protocol()
    prop = Proposition("S", SPIN_DIRECTION, "right", "is_in_state")
    v = pl.certainty(tr, "Fbar", "F2", prop, semantics="decoherent",
                     models=MODELS)
    assert v.kind == "undetermined"
    probs = {name: d.probability(("right",)) for name, d in v.evidence}
    assert abs(probs["two-branch"] - 1.0) < 1e-9
    assert abs(probs["three-branch"] - 0.5) < 1e-9


def test_decoherent_semantics_blocks_final_outcome_claim():
    tr = pl.run_protocol()
    prop = Proposition("L", FAIL_OK, "fail", "will_obtain")
    v = pl.certainty(tr, "Fbar", "F2", prop, semantics="decoherent",
                     models=MODELS)
    assert v.kind == "undetermined"
    probs = [d.probability(("fail",)) for _, d in v.evidence]
    assert abs(probs[0] - probs[1]) > 0.1


def test_certainty_refuted_kind():
    tr = pl.run_protocol()
    prop = Proposition("S", SPIN_DIRECTION, "left", "is_in_state")
    v = pl.certainty(tr, "Fbar", "F2", prop)
    assert v.kind == "refuted"
    models = MODELS[:1]  # two-branch only
    vd = pl.certainty(tr, "Fbar", "F2", prop, semantics="decoherent", models=models)
    assert vd.kind == "refuted"


def test_certainty_error_paths():
    tr = pl.run_protocol()
    lay = tr.stage("after-Fbar").state.layout
    prop = Proposition("S", Basis.computational(lay, "S"), "down", "is_in_state")
    with pytest.raises(ImpossibleOutcomeError):
        pl.certainty(tr, "Fbar", "F0", prop)
    with pytest.raises(PointerLabError):
        pl.certainty(tr, "Fbar", "F2", prop, semantics="decoherent", models=[])
    with pytest.raises(UnknownLabelError):
        pl.certainty(tr, "Fbar", "nope", prop)
    with pytest.raises(PointerLabError, match="unknown semantics"):
        pl.certainty(tr, "Fbar", "F2", prop, semantics="bogus")
    # F measures at stage 3, after R is grouped into Lbar.
    coin = Proposition("R", Basis.computational(lay, "R"), "head", "is_in_state")
    with pytest.raises(PointerLabError, match="never exists after stage 3"):
        pl.certainty(tr, "F", "F2", coin)
    with pytest.raises(PointerLabError, match="no premeasurement with apparatus"):
        pl.certainty(tr, "Q", "F2", prop)


def test_decoherence_compare_report():
    rep = pl.decoherence_compare()
    assert rep.full_max_difference > 0.1
    assert rep.reduced_equal
    assert rep.reduced_max_difference < 1e-9
    assert np.allclose(rep.branch_weights_coarse, (1 / 3, 2 / 3), atol=1e-9)
    assert np.allclose(rep.branch_weights_fine, (1 / 3, 1 / 3, 1 / 3), atol=1e-9)
    for marginal in (rep.apparatus_marginal_coarse, rep.apparatus_marginal_fine):
        assert abs(marginal.probability(("A1",)) - 1 / 3) < 1e-9
        assert abs(marginal.probability(("A2",)) - 2 / 3) < 1e-9


@st.composite
def _state_and_models(draw):
    """A random complex state over 2-3 registers of 2-3 levels, two random
    complete complex branch sets (coarse and fine), each over a random
    subset of the registers, and the registers to hide (never the first)."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    layout = pl.SubsystemLayout.of(*((f"Q{i}", [f"q{j}" for j in range(d)])
                                     for i, d in enumerate(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    amps = gaussian(layout.dimension)
    state = pl.StateVector(layout, amps / np.linalg.norm(amps))
    models = []
    for environment in ("coarse", "fine"):
        names = draw(st.sets(st.sampled_from(layout.names), min_size=1))
        on = layout.sublayout(sorted(names, key=layout.names.index))
        rows = np.linalg.qr(gaussian(on.dimension, on.dimension))[0].T
        models.append(ex.CoupleStep(environment, Basis.from_rows(
            [f"b{k}" for k in range(on.dimension)], on, rows)))
    hidden = draw(st.lists(st.sampled_from(layout.names[1:]), unique=True))
    return state, models, hidden


@settings(max_examples=100, deadline=None)
@given(_state_and_models())
def test_decoherence_compare_mixes_branch_components_as_a_coupled_environment_does(case):
    # Reference: attach each model's environment, couple it, build the
    # coupled state's density matrix and trace the environment out.  The
    # record populations and the mixture's weight on each branch are that
    # environment's branch weights.
    state, models, hidden = case
    rep = ex.decoherence_compare(state, models, hidden, state.layout.names[0])
    for model, rho, weights in zip(models, (rep.rho_coarse, rep.rho_fine),
                                   (rep.branch_weights_coarse, rep.branch_weights_fine)):
        ext, records = pl.attach_environment(state, "E", model.branches.size)
        coupled = pl.environment_couple(ext, model.branches, "E", records)
        dense = pl.pointer_reduce(coupled, "E")
        assert np.max(np.abs(rho.matrix - dense.matrix)) <= 1e-12
        populations = np.diag(pl.partial_trace(pl.density(coupled), ["E"]).matrix).real[1:]
        on_targets = pl.partial_trace(dense, model.branches.layout.names).matrix
        on_branches = [np.vdot(b, on_targets @ b).real for b in model.branches.matrix]
        assert len(weights) == model.branches.size
        assert np.max(np.abs(np.array(weights) - populations)) <= 1e-12
        assert np.max(np.abs(np.array(weights) - on_branches)) <= 1e-12


def test_consistency_audit_flags():
    audit = pl.consistency_audit()
    assert audit.chain_derivable
    assert all(v.kind == "certain" for _, v in audit.statements_premeasurement)
    assert abs(audit.computed_probability - 1 / 12) < 1e-9
    assert audit.contradiction_premeasurement
    assert audit.recheck[1].kind == "undetermined"
    assert not audit.contradiction_decoherent
    assert tuple(name for name, _ in audit.recheck[1].evidence) == ("two-branch", "three-branch")


def test_audit_value_matches_exhaustive_enumeration():
    # Oracle: project the final amplitudes onto the hand-built
    # okbar x ok x W2 x W2 vector and square, bypassing born entirely.
    tr = pl.run_protocol()
    st = tr.final_state
    lay = st.layout
    vec = np.zeros(lay.dimension, dtype=complex)
    for lbar, sb in ((("h",), H), (("t",), -H)):
        for l, sl in ((("-1/2",), H), (("+1/2",), -H)):
            vec[lay.index((lbar[0], l[0], "W2", "W2"))] = sb * sl
    p = abs(np.vdot(vec, st.amplitudes)) ** 2
    assert abs(p - 1 / 12) < 1e-9
    assert abs(pl.consistency_audit().computed_probability - p) < 1e-9


def test_transcript_determinism_bit_identical():
    t1 = pl.run_protocol()
    t2 = pl.run_protocol()
    for a, b in zip(t1.stages, t2.stages):
        assert a.name == b.name
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_inside_record_marginal_stable_until_outer_measurement():
    # The coin-record weights stay {1/3, 2/3} through the inner stages; the
    # outer laboratory measurement is complementary to the record basis and
    # shifts them to {1/2, 1/2} (checked as the physical fact it is).
    tr = pl.run_protocol()
    rec = Basis.computational(tr.stage("after-Fbar").state.layout, "Fbar",
                              ("F1", "F2"))
    d = pl.born(tr.stage("after-Fbar").state, [("Fbar", rec)])
    assert abs(d.probability(("F1",)) - 1 / 3) < 1e-9
    assert abs(d.probability(("F2",)) - 2 / 3) < 1e-9
    for stage in ("group-Lbar", "after-F", "group-L"):
        st = tr.stage(stage).state
        lab = Basis.computational(st.layout, "Lbar", ("h", "t"))
        d = pl.born(st, [("Lbar", lab)])
        assert abs(d.probability(("h",)) - 1 / 3) < 1e-9
        assert abs(d.probability(("t",)) - 2 / 3) < 1e-9
    late = tr.stage("after-Wbar").state
    lab = Basis.computational(late.layout, "Lbar", ("h", "t"))
    d = pl.born(late, [("Lbar", lab)])
    assert abs(d.probability(("h",)) - 1 / 2) < 1e-9


def test_record_marginals_insensitive_to_measurement_order():
    # Swapping the two inside measurements leaves both record marginals as
    # they were; they act on disjoint registers.
    tr = pl.run_protocol()
    initial = tr.stages[0].state
    steps = [(st.name, step) for st, step in zip(tr.stages[1:], tr.steps[1:])]
    swapped = [steps[2], steps[0], steps[3], steps[1]] + steps[4:]
    tr_orig = run_transcript(initial, steps)
    tr_swap = run_transcript(initial, swapped)
    for tr in (tr_orig, tr_swap):
        st = tr.stages[4].state  # both laboratories formed, outer agents pending
        lbar = pl.born(st, [("Lbar", Basis.computational(st.layout, "Lbar", ("h", "t")))])
        lab = pl.born(st, [("L", Basis.computational(st.layout, "L", ("-1/2", "+1/2")))])
        assert abs(lbar.probability(("h",)) - 1 / 3) < 1e-9
        assert abs(lab.probability(("-1/2",)) - 2 / 3) < 1e-9


def test_final_probabilities_are_exact_rationals():
    dist = pl.joint_outcome(pl.run_protocol(), ("Wbar", "W"))
    expected = {("failbar", "fail"): 0.75, ("failbar", "ok"): 1 / 12,
                ("okbar", "fail"): 1 / 12, ("okbar", "ok"): 1 / 12}
    for labels, p in dist.entries:
        assert abs(p - expected[labels]) < 1e-9


def test_audit_reads_the_chain_its_query_declares():
    # Neither chain derives anything, so neither semantics flags a
    # contradiction.
    from pointerlab.runner import run

    inputs = [
        # F's down record leaves Lbar undetermined.
        ('"F F2 Lbar is_in_state t"', '"F F1 Lbar is_in_state t"',
         ["certain", "certain", "undetermined", "certain"], [1.0, 1.0, 0.5, 1.0]),
        # Fbar's tail record rules ok out: the statement's own predicate has
        # probability 0, though another outcome has 1.
        ('"Fbar F2 L will_obtain fail"', '"Fbar F2 L will_obtain ok"',
         ["certain", "refuted", "certain", "certain"], [1.0, 0.0, 1.0, 1.0]),
    ]
    for old, new, verdicts, probabilities in inputs:
        text = bundled_scenario_text("fr").replace(old, new)
        assert text.count(new) == 1
        report = run(parse_scenario(text), source_text=text)
        audit = report.results[2]
        pre = audit["premeasurement"]
        assert [st["verdict"] for st in pre["statements"]] == verdicts
        assert [st["probability"] for st in pre["statements"]] == probabilities
        for st in pre["statements"]:
            line = f"    {st['name']}: {st['verdict']} (p = {st['probability']})\n"
            assert line in report.to_table()
        assert not pre["chain_derivable"] and pre["claimed_probability"] is None
        assert pre["computed_probability"] == 0.0833333333333
        assert not pre["contradiction"] and not audit["decoherent"]["contradiction"]


def test_audit_labels_its_probabilities_with_the_declared_joint():
    # The printed probabilities are those of the outcome joint= names.  Only
    # labels and numbers are pinned: whether the chain rules that outcome
    # out is not judged here.
    from pointerlab.runner import run

    text = bundled_scenario_text("fr").replace("joint=(Wbar:okbar, W:ok)",
                                               "joint=(Wbar:failbar, W:fail)")
    assert text.count("joint=(Wbar:failbar, W:fail)") == 1
    report = run(parse_scenario(text), source_text=text)
    assert report.results[2]["premeasurement"]["joint"] == {"Wbar": "failbar", "W": "fail"}
    table = report.to_table()
    assert "claimed p(failbar,fail) = 0.0\n" in table
    assert "computed p(failbar,fail) = 0.75\n" in table
    assert "okbar" not in table.split("-- query 3")[1]


def test_compare_reads_the_models_its_query_declares():
    from pointerlab.runner import run

    text = bundled_scenario_text("decoherence").replace(
        "models=(two-branch, three-branch) hidden", "models=(three-branch, two-branch) hidden")
    cmp = run(parse_scenario(text), source_text=text).results[1]
    assert cmp["branch_weights"] == {"coarse": [0.333333333333] * 3,
                                     "fine": [0.333333333333, 0.666666666667]}
    assert cmp["restriction_equal"]


def test_reports_take_the_transcript_and_declared_inputs(monkeypatch):
    tr = pl.run_protocol()
    claim = ex.Claim("Fbar", "F2", Proposition("L", FAIL_OK, "fail", "will_obtain"))
    answer, recheck = ex.certainties(
        tr, [claim, replace(claim, semantics="decoherent", models=MODELS)])
    joint = [("Wbar", "okbar"), ("W", "ok")]
    # The audit judges the answers it is given and replays nothing.
    monkeypatch.setattr(ex, "apply_step", None)
    audit = ex.consistency_audit(tr, [("s1", answer)], ("s1", recheck), joint)
    assert audit.chain_derivable and audit.contradiction_premeasurement
    assert audit.recheck[1].kind == "undetermined"
    assert (tuple(name for name, _ in audit.recheck[1].evidence)
            == tuple(m.environment for m in MODELS))
    # A statement's error comes first, then the recheck's.
    failed, refused = PointerLabError("statement failed"), PointerLabError("recheck failed")
    with pytest.raises(PointerLabError, match="statement failed"):
        ex.consistency_audit(tr, [("s1", answer), ("s2", failed)], ("s1", refused), joint)
    with pytest.raises(PointerLabError, match="recheck failed"):
        ex.consistency_audit(tr, [("s1", answer)], ("s1", refused), joint)
    # A chain is derived under premeasurement semantics only, and the
    # recheck is made under decoherent semantics.
    with pytest.raises(PointerLabError, match="a chain is derived under premeasurement"):
        ex.consistency_audit(tr, [("s1", recheck)], ("s1", recheck), joint)
    with pytest.raises(PointerLabError, match="recheck needs decoherent semantics"):
        ex.consistency_audit(tr, [("s1", answer)], ("s1", answer), joint)
    with pytest.raises(PointerLabError):
        ex.decoherence_compare(tr.final_state, MODELS[:1], ("S",), "W")


# --------------------------------------------------------------------------
# Batched certainty against the spectator-environment reference
# --------------------------------------------------------------------------


def _cx(c) -> str:
    c = complex(c)
    return f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)"


def _chain_text(rng, n) -> str:
    """A nested chain of ``n`` agents with three-level apparatus: F1 records
    a spin S and is tagged by an environment E; each outer agent W_k
    measures the laboratory L_{k-1} in a rotated basis of its two record
    branches and then groups with it (the last one stays separate)."""
    p0 = rng.uniform(0.2, 0.8)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    ready = ",a0" * n
    agents = ["F1"] + [f"W{k}" for k in range(2, n + 1)]
    lines = ["layout:", "  subsystem S {s0, s1}"]
    lines += [f"  subsystem {a} {{a0, a1, a2}}" for a in agents]
    lines += [f"state: {_cx(SQ(p0))}|s0{ready}> + {_cx(SQ(1 - p0) * phase)}|s1{ready}>",
              "actions:",
              "  premeasure target=S apparatus=F1 basis={s0,s1} outcomes={a1,a2} ready=a0",
              "  couple env=E targets=(F1) branches={|a1>, |a2>}",
              "  group parts=(S,F1) as L1 map={(s0,a1):x, (s1,a2):y}"]
    P, Q = {"x": 1.0}, {"y": 1.0}
    for k in range(2, n + 1):
        th, e = rng.uniform(0.25, 1.3), np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = {**{l: math.cos(th) * v for l, v in P.items()},
             **{l: e * math.sin(th) * v for l, v in Q.items()}}
        q = {**{l: -np.conj(e) * math.sin(th) * v for l, v in P.items()},
             **{l: math.cos(th) * v for l, v in Q.items()}}
        for name, vec in ((f"p{k - 1}", p), (f"q{k - 1}", q)):
            terms = " + ".join(f"{_cx(c)}|{l}>" for l, c in vec.items())
            lines.append(f"  derived L{k - 1} {name} = {terms}")
        lines.append(f"  premeasure target=L{k - 1} apparatus=W{k} "
                     f"basis={{p{k - 1},q{k - 1}}} outcomes={{a1,a2}} ready=a0")
        if k < n:
            entries = ", ".join(f"({l},{r}):{l}{s}" for l in p for r, s in (("a1", "a"), ("a2", "b")))
            lines.append(f"  group parts=(L{k - 1},W{k}) as L{k} map={{{entries}}}")
            P = {l + "a": v for l, v in p.items()}
            Q = {l + "b": v for l, v in q.items()}
    eta = rng.uniform(0.3, 1.2)
    c, s = math.cos(eta), math.sin(eta)
    lines += ["models:",
              "  model two targets=(S,F1) branches={|s0,a1>, |s1,a2>}",
              f"  model rot targets=(S,F1) branches={{{c!r}|s0,a1> + {s!r}|s1,a2>, "
              f"{-s!r}|s0,a1> + {c!r}|s1,a2>}}"]
    lines += [f"  model rec{k} targets=(W{k}) branches={{|a1>, |a2>}}" for k in range(2, n + 1)]
    lines += ["queries:", f"  born targets=(W{n})"]
    return "\n".join(lines) + "\n"


def _chain_claims(scenario, transcript, n):
    """Premeasurement and decoherent claims from every agent, on both
    records: the last agent's outcome (will_obtain), and registers that
    exist at the observer's stage or only after it (is_in_state)."""
    models = {m.name: m.resolved for m in scenario.models}
    last = next(a.resolved.basis for a in scenario.actions
                if isinstance(a, PremeasureAction) and a.apparatus == f"W{n}")
    outcome = Proposition(last.layout.names[0], last, f"p{n - 1}", "will_obtain")
    spin = Proposition("S", Basis.computational(transcript.stages[1].state.layout, "S"),
                       "s0", "is_in_state")
    lab = Proposition("L1", Basis.computational(transcript.stage("group-L1").state.layout,
                                                "L1"), "x", "is_in_state")
    claims = []
    for k in range(1, n + 1):
        if k == 1:
            observer, props, decoherent = "F1", (outcome, spin, lab), (models["two"], models["rot"])
        else:
            observer, props, decoherent = f"W{k}", (outcome,), (models[f"rec{k}"],)
        for record in ("a1", "a2"):
            for prop in props:
                claims.append(ex.Claim(observer, record, prop))
                claims.append(ex.Claim(observer, record, prop, "decoherent", decoherent))
    return claims


def _reference(transcript, claim):
    """The spectator-environment path, from public functions only: condition
    the stage state (coupled to each model's environment, under decoherent
    semantics), apply the later steps one by one, read the proposition."""
    idx, step = transcript.agent_premeasure(claim.observer)
    stage = transcript.stages[idx].state
    record = Basis.computational(stage.layout, claim.observer)
    out_i = record.labels.index(claim.observed)
    if claim.semantics == "premeasurement":
        starts = [pl.condition(stage, claim.observer, record, out_i)]
    else:
        starts = []
        for model in claim.models:
            ext, rec = pl.attach_environment(stage, model.environment, model.branches.size)
            coupled = pl.environment_couple(ext, model.branches, model.environment, rec)
            starts.append(pl.condition(coupled, claim.observer,
                                       Basis.computational(coupled.layout, claim.observer),
                                       out_i))
    prop = claim.prop
    dists = []
    for state in starts:
        i = idx
        while i + 1 < len(transcript.steps) and (
                prop.quantifier == "will_obtain" or prop.subject not in state.layout.names):
            i += 1
            state = ex.apply_step(state, transcript.steps[i])
        dists.append(pl.born(state, [(prop.subject, prop.basis)]))
    probs = [d.probability((prop.predicate,)) for d in dists]
    if all(p >= 1 - ex.CERTAIN_TOL for p in probs):
        kind = "certain"
    elif all(p <= ex.CERTAIN_TOL for p in probs):
        kind = "refuted"
    else:
        kind = "undetermined"
    return kind, dists


def _assert_matches_reference(transcript, claims):
    verdicts = ex.certainties(transcript, claims)
    for claim, verdict in zip(claims, verdicts):
        assert isinstance(verdict, ex.CertaintyVerdict), (claim, verdict)
        kind, dists = _reference(transcript, claim)
        got = [verdict.conditional] if claim.semantics == "premeasurement" else [
            d for _, d in verdict.evidence]
        assert verdict.kind == kind
        assert verdict.conditional == got[0]
        for mine, ref in zip(got, dists, strict=True):
            assert [k for k, _ in mine.entries] == [k for k, _ in ref.entries]
            for (_, p), (_, r) in zip(mine.entries, ref.entries):
                assert abs(p - r) <= 1e-12, (claim, mine, ref)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_batched_certainty_matches_the_spectator_environment(seed, n):
    # Every claim of a generated chain, answered in one call (one replay of
    # each stage), against the same claim answered alone by the spectator
    # reference: premeasurement and decoherent, will_obtain and is_in_state,
    # and models with a zero-weight branch once the record is conditioned on.
    scenario = parse_scenario(_chain_text(np.random.default_rng(seed), n))
    transcript = scenario_transcript(scenario)
    _assert_matches_reference(transcript, _chain_claims(scenario, transcript, n))


@pytest.mark.parametrize("name", ["fr", "decoherence"])
def test_batched_certainty_matches_the_reference_on_the_bundled_scenarios(name):
    scenario = parse_scenario(bundled_scenario_text(name))
    transcript = scenario_transcript(scenario)
    models = tuple(m.resolved for m in scenario.models)
    claims = []
    for q in scenario.queries:
        asked = [q] if hasattr(q, "observer") else [s for _, s in getattr(q, "chain", ())]
        for s in asked:
            idx, step = transcript.agent_premeasure(s.observer)
            # The models couple registers that F and the outer agents no
            # longer hold at their stages.
            held = set(models[0].branches.layout.names) <= set(
                transcript.stages[idx].state.layout.names)
            for record in step.outcome_labels:
                claims.append(ex.Claim(s.observer, record, s.resolved.prop))
                if held:
                    claims.append(ex.Claim(s.observer, record, s.resolved.prop, "decoherent",
                                           models))
    assert sum(c.semantics == "decoherent" for c in claims) >= 2
    _assert_matches_reference(transcript, claims)


def _chain(n=3, seed=5):
    scenario = parse_scenario(_chain_text(np.random.default_rng(seed), n))
    return scenario, scenario_transcript(scenario)


def _count_kernels(monkeypatch):
    calls = []
    for name in ("premeasure", "group_state", "environment_couple"):
        kernel = getattr(ex, name)

        def counted(state, *args, kernel=kernel, **kwargs):
            calls.append(len(state.rows()))
            return kernel(state, *args, **kwargs)

        monkeypatch.setattr(ex, name, counted)
    return calls


def test_claims_sharing_an_observer_replay_each_later_step_once(monkeypatch):
    scenario, transcript = _chain()
    claims = [c for c in _chain_claims(scenario, transcript, 3) if c.observer == "F1"]
    calls = _count_kernels(monkeypatch)
    ex.certainties(transcript, claims)
    later = len(transcript.steps) - 2  # the steps after F1's premeasurement
    assert len(calls) == later
    # The columns: one conditioned state per record, and per record each
    # model's branches that keep weight (two's other branch has none).
    assert calls[0] == 2 + 2 * (1 + 2)


def test_a_run_replays_each_stage_once(monkeypatch):
    from pointerlab.runner import run

    asked = [f"observer={o} outcome={r} prop=\"W3 will_obtain p2\" semantics=premeasurement"
             for o in ("F1", "W2") for r in ("a1", "a2")]
    asked.append('observer=F1 outcome=a1 prop="W3 will_obtain p2" semantics=decoherent '
                 "models=(two, rot)")
    text = _chain_text(np.random.default_rng(5), 3) + "".join(
        f"  certainty {a}\n" for a in asked)
    scenario = parse_scenario(text)
    calls = _count_kernels(monkeypatch)
    report = run(scenario, source_text=text)
    # The transcript's six steps, then one replay of the five after F1's
    # premeasurement: F1's five states (two records, and two's one branch
    # and rot's two on a1) until W2 measures, and W2's two records with them
    # after that.
    assert calls == [1] * 6 + [5] * 3 + [7] * 2
    assert [r["kind"] for r in report.results] == ["born"] + ["certainty"] * 5


def test_a_replay_over_the_amplitude_limit_goes_in_chunks(monkeypatch):
    scenario, transcript = _chain()
    claims = [c for c in _chain_claims(scenario, transcript, 3) if c.observer == "F1"]
    whole = ex.certainties(transcript, claims)
    final = transcript.final_state.layout.dimension
    monkeypatch.setattr(ex, "MAX_AMPLITUDES", 3 * final + 1)  # three states per chunk
    calls = _count_kernels(monkeypatch)
    chunked = ex.certainties(transcript, claims)
    later = len(transcript.steps) - 2
    # 8 columns (see above) in chunks of 3, 3 and 2, each through every step.
    assert calls == [3] * later + [3] * later + [2] * later
    for a, b in zip(whole, chunked, strict=True):
        assert a.kind == b.kind
        pairs = [(a.conditional, b.conditional)] + [
            (x, y) for (_, x), (_, y) in zip(a.evidence, b.evidence, strict=True)]
        for x, y in pairs:
            assert [k for k, _ in x.entries] == [k for k, _ in y.entries]
            assert all(abs(p - q) <= 1e-12 for (_, p), (_, q) in zip(x.entries, y.entries))


def test_couple_branches_are_checked_once_when_the_step_is_made(monkeypatch):
    from pointerlab import measurement

    scenario, transcript = _chain()
    checks = []
    real = measurement.gram_defect
    monkeypatch.setattr(measurement, "gram_defect", lambda rows: checks.append(1) or real(rows))
    couple = next(s for s in transcript.steps if isinstance(s, ex.CoupleStep))
    vectors = couple.branches.vectors
    remade = ex.CoupleStep(couple.environment, pl.branch_basis(vectors))
    model = ex.CoupleStep("m", pl.branch_basis(vectors))
    assert len(checks) == 2
    ex.apply_step(transcript.stages[1].state, remade)
    ex.apply_step(transcript.stages[1].state, model)
    assert len(checks) == 2
    with pytest.raises(NonOrthonormalBasisError):
        ex.CoupleStep("E", pl.branch_basis((vectors[0], vectors[0])))


def test_one_run_answers_every_claim_with_one_replay(monkeypatch):
    # The bundled FR run asks one certainty query, then an audit of four
    # statements and the recheck of one.  One certainties call answers all
    # six claims, so the steps after Fbar's stage (the earliest observer's)
    # run once in the replay, after the transcript's six.
    from pointerlab import runner

    calls = dict.fromkeys(("certainties", "apply_step"), 0)
    for name in calls:
        def counted(*args, real=getattr(ex, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(ex, name, counted)
    text = bundled_scenario_text("fr")
    runner.run(parse_scenario(text), source_text=text)
    assert calls == {"certainties": 1, "apply_step": 6 + 5}


# Distinct bases and branch sets each file declares.  fr: four premeasured
# bases, S's {right, left} (a proposition's) and two models; decoherence: one
# premeasured basis, S's {right, left} and two models; the chain: three
# premeasured bases, one couple and four models.  A computational basis is
# identity rows and needs no check.
@pytest.mark.parametrize("name, declared", [("fr", 7), ("decoherence", 4), ("chain", 8)])
def test_each_basis_is_checked_once_and_the_parsed_one_reaches_the_kernels(
        monkeypatch, name, declared):
    from pointerlab import measurement, runner

    checks = []
    real = measurement.gram_defect
    monkeypatch.setattr(measurement, "gram_defect", lambda rows: checks.append(1) or real(rows))
    text = (_chain_text(np.random.default_rng(5), 3) if name == "chain"
            else bundled_scenario_text(name))
    scenario = parse_scenario(text)
    assert len(checks) == declared
    received = []
    for kernel in ("environment_couple", "conditioned_branches", "branch_components"):
        def seen(state, branches, *args, real_kernel=getattr(ex, kernel)):
            received.append(branches)
            return real_kernel(state, branches, *args)

        monkeypatch.setattr(ex, kernel, seen)
    # Record the claims certainty is asked and the models a comparison couples.
    asked, consulted = [], []
    real_certainties, real_compare = ex.certainties, ex.decoherence_compare
    monkeypatch.setattr(ex, "certainties", lambda transcript, claims: (
        asked.extend(claims) or real_certainties(transcript, claims)))
    monkeypatch.setattr(ex, "decoherence_compare", lambda *args: (
        consulted.append(args[1]) or real_compare(*args)))
    runner.run(scenario, source_text=text)
    assert len(checks) == declared
    models = {m.name: m.resolved for m in scenario.models}
    parsed = [a.resolved.branches for a in scenario.actions if isinstance(a, CoupleAction)]
    parsed += [m.branches for m in models.values()]
    assert any(received) and all(b is None or any(b is p for p in parsed) for b in received)
    # The objects the parser resolved are the objects the engine runs: the
    # steps, the claims in query order (an audit adds the decoherent recheck
    # of its named statement, which consults the audit's declared models)
    # and the models a comparison declares.
    steps = scenario_transcript(scenario).steps[1:]
    assert _same(steps, [a.resolved for a in scenario.actions])
    claims, reports = [], []
    for q in scenario.queries:
        if isinstance(q, CertaintyQuery):
            claims.append(q.resolved)
        if isinstance(q, AuditQuery):
            claims += [s.resolved for _, s in q.chain]
            claims.append((dict(q.chain)[q.decoherent].resolved, [models[n] for n in q.models]))
        if isinstance(q, CompareQuery):
            reports.append([models[n] for n in q.models])
    assert len(asked) == len(claims)
    for got, claim in zip(asked, claims):
        if isinstance(claim, tuple):
            rechecked, consults = claim
            assert got.semantics == "decoherent" and got.prop is rechecked.prop
            assert _same(got.models, consults)
        else:
            assert got is claim and all(m is models[m.environment] for m in got.models)
    assert len(consulted) == len(reports)
    assert all(_same(got, want) for got, want in zip(consulted, reports))


def _same(got, want):
    """The same objects, in the same order."""
    return len(got) == len(want) and all(g is w for g, w in zip(got, want))
