"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

import pointerlab as pl
from pointerlab.cli import bundled_scenario_text
from pointerlab.decomposition import relative_states, rewrite, triortho_verdict
from pointerlab.experiment import Proposition
from pointerlab.measurement import Basis, MeasurementSpec, correlating_unitary
from pointerlab.scenario import AuditQuery, PremeasureAction, parse_scenario, serialize_scenario

SQ = math.sqrt
H = 1 / SQ(2)
TOL = 1e-9

# The initial state and bases come from the bundled FR scenario.
FR = parse_scenario(bundled_scenario_text("fr"))
FAIL_OK = next(a.resolved for a in FR.actions
               if isinstance(a, PremeasureAction) and a.apparatus == "W")
SPIN_DIRECTION = next(dict(q.chain)["statement-1-spin"].resolved
                      for q in FR.queries if isinstance(q, AuditQuery))


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {criterion}")
    assert ok, criterion


def test_criterion_1_final_joint_distribution():
    dist = pl.joint_outcome(pl.run_protocol(), ("Wbar", "W"))
    ok = abs(dist.probability(("okbar", "ok")) - 1 / 12) < TOL
    expected = {("failbar", "fail"): 3 / 4, ("failbar", "ok"): 1 / 12,
                ("okbar", "fail"): 1 / 12, ("okbar", "ok"): 1 / 12}
    for labels, p in dist.entries:
        ok = ok and abs(p - expected[labels]) < TOL
    report("criterion 1: joint record distribution {3/4, 1/12, 1/12, 1/12} "
           "with (okbar, ok) = 1/12 within 1e-9", ok)


def test_criterion_2_decomposition_equality_suite():
    init = FR.initial
    lay = init.layout
    spin = SPIN_DIRECTION
    coin = Basis(("h+t", "h-t"), (
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), H)]),
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), -H)]),
    ))
    ok = True
    for bases in ({}, {"S": spin}, {"R": coin}, {"R": coin, "S": spin}):
        dec = rewrite(init, bases)
        ok = ok and np.linalg.norm(dec.reconstruct() - init.amplitudes) < TOL
    native = rewrite(init, {})
    ok = ok and native.coefficient(("head", "up", "F0", "F0", "W0", "W0")) == 0
    report("criterion 2: all four expansions rebuild the initial amplitudes "
           "within 1e-9 and the (head, up) component reports exactly 0", ok)


def test_criterion_3_statement_chain():
    tr = pl.run_protocol()
    final_layout = tr.final_state.layout
    checks = [
        ("Fbar", "F2", Proposition("L", FAIL_OK,
                                   "fail", "will_obtain"), ("fail",)),
        ("F", "F2", Proposition("Lbar", Basis.computational(final_layout, "Lbar"),
                                "t", "is_in_state"), ("t",)),
        ("Wbar", "W2", Proposition("L", Basis.computational(final_layout, "L"),
                                   "+1/2", "is_in_state"), ("+1/2",)),
    ]
    ok = True
    for observer, outcome, prop, labels in checks:
        v = pl.certainty(tr, observer, outcome, prop)
        ok = ok and v.kind == "certain"
        ok = ok and abs(v.conditional.probability(labels) - 1.0) < TOL
    report("criterion 3: statements 1-3 come out certain with conditional "
           "probability 1 within 1e-9 under premeasurement semantics", ok)


def test_criterion_4_contradiction_audit():
    audit = pl.consistency_audit()
    ok = audit.contradiction_premeasurement
    ok = ok and audit.chain_derivable
    ok = ok and abs(audit.computed_probability - 1 / 12) < TOL
    ok = ok and not audit.contradiction_decoherent
    ok = ok and audit.statement_1_decoherent.kind == "undetermined"
    report("criterion 4: audit flags the premeasurement chain (claims 0, "
           "measures 1/12) and clears under decoherent semantics", ok)


def test_criterion_5_decoherence_indistinguishability():
    rep = pl.decoherence_compare()
    ok = rep.reduced_max_difference < TOL
    ok = ok and rep.full_max_difference > 0.1
    for marginal in (rep.apparatus_marginal_coarse, rep.apparatus_marginal_fine):
        ok = ok and abs(marginal.probability(("A1",)) - 1 / 3) < TOL
        ok = ok and abs(marginal.probability(("A2",)) - 2 / 3) < TOL
    report("criterion 5: pointer mixtures agree on (coin, record) within "
           "1e-9, differ by > 0.1 with the spin, marginal {1/3, 2/3}", ok)


def test_criterion_6_basis_ambiguity():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A1", "A2")))
    psi = pl.make_state(lay, [(("head", "A1"), SQ(1 / 3)), (("tail", "A2"), SQ(2 / 3))])
    rotated = Basis(("A1p", "A2p"), (
        pl.make_state(lay.sublayout(["A"]), [(("A1",), H), (("A2",), H)]),
        pl.make_state(lay.sublayout(["A"]), [(("A1",), H), (("A2",), -H)]),
    ))
    dec = relative_states(psi, "A", rotated)
    ok = len(dec.terms) == 2
    for t in dec.terms:
        ok = ok and abs(t.coefficient - H) < TOL
    expected = (
        pl.make_state(lay.sublayout(["R"]), [(("head",), SQ(1 / 3)), (("tail",), SQ(2 / 3))]),
        pl.make_state(lay.sublayout(["R"]), [(("head",), SQ(1 / 3)), (("tail",), -SQ(2 / 3))]),
    )
    for t, exp in zip(dec.terms, expected):
        ok = ok and abs(pl.inner(exp, t.factors[0])) >= 1.0 - TOL
    a, b = (t.factors[0] for t in dec.terms)
    ok = ok and abs(abs(pl.inner(a, b)) - 1 / 3) < TOL
    report("criterion 6: rotated-record relative states have weights 1/sqrt2, "
           "match the expected coin states, and overlap with |1/3|", ok)


def test_criterion_7_triortho_verdicts():
    start = time.time()
    tagged = pl.make_state(
        pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A1", "A2")),
                              ("E", ("e1", "e2"))),
        [(("head", "A1", "e1"), SQ(1 / 3)), (("tail", "A2", "e2"), SQ(2 / 3))],
    )
    unique = triortho_verdict(tagged, (("R",), ("A",), ("E",)))
    lay3 = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
    loose = pl.make_state(lay3, [(("0", "0", "0"), 1.0), (("1", "1", "0"), 1.0)])
    ambiguous = triortho_verdict(loose, (("a",), ("b",), ("c",)))
    elapsed = time.time() - start
    ok = unique.kind == "unique" and unique.witness is None
    ok = ok and ambiguous.kind == "ambiguous" and ambiguous.witness is not None
    ok = ok and np.linalg.norm(
        ambiguous.witness.reconstruct() - loose.amplitudes) < TOL
    ok = ok and elapsed < 10.0
    report("criterion 7: environment-tagged state unique, biorthogonal pair "
           "with fixed third ambiguous with verified witness, verdicts < 10 s", ok)


def test_criterion_8_property_suites():
    ok = True

    # Unitarity of every constructed operator (entrywise 1e-9).
    tr = pl.run_protocol()
    for i, (name, step) in enumerate(zip([s.name for s in tr.stages[1:]],
                                         tr.steps[1:])):
        if not isinstance(step, MeasurementSpec):
            continue
        layout = tr.stages[i].state.layout
        spec = step
        op = correlating_unitary(layout, spec.basis, spec.apparatus, spec.ready_label,
                                 spec.outcome_labels)
        gram = op.matrix.conj().T @ op.matrix
        ok = ok and float(np.max(np.abs(gram - np.eye(gram.shape[0])))) < TOL

    # Norm drift per stage within 1e-12.
    for st in tr.stages:
        ok = ok and abs(st.state.norm() - 1.0) < 1e-12

    # Partial trace preserves the trace.
    rng = np.random.default_rng(41)
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1", "2")))
    for _ in range(10):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        rho = pl.density(pl.StateVector(lay, v / np.linalg.norm(v)))
        red = pl.partial_trace(rho, {"a"})
        ok = ok and abs(np.trace(red.matrix) - 1.0) < TOL

    # Born distributions sum to 1.
    for st in tr.stages:
        first = st.state.layout.names[0]
        dist = pl.born(st.state, [(first, None)])
        ok = ok and abs(sum(p for _, p in dist.entries) - 1.0) < TOL

    # Conditioning then measuring the same register is a point mass.
    basis = Basis.computational(lay, "b")
    for k in range(3):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = pl.StateVector(lay, v / np.linalg.norm(v))
        c = pl.condition(s, "b", basis, k)
        ok = ok and abs(pl.born(c, [("b", basis)]).probability((basis.labels[k],))
                        - 1.0) < TOL

    # Transcript determinism: bit-identical reruns.
    t2 = pl.run_protocol()
    for a, b in zip(tr.stages, t2.stages):
        ok = ok and np.array_equal(a.state.amplitudes, b.state.amplitudes)

    # Scenario parse/serialize round-trip.
    for name in ("fr", "ambiguity", "decoherence", "triortho"):
        s = parse_scenario(bundled_scenario_text(name))
        ok = ok and parse_scenario(serialize_scenario(s)) == s

    report("criterion 8: property suites (unitarity, norm drift, trace "
           "preservation, Born sums, conditioning point mass, determinism, "
           "scenario round-trip)", ok)
