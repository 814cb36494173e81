"""Measurement engine: correlating unitaries, Born statistics, conditioning,
environment couplings, pointer reduction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointerlab as pl
from pointerlab.errors import (
    ApparatusNotReadyError,
    BasisCoverageError,
    DegenerateStateError,
    ImpossibleOutcomeError,
    IncompleteBranchingError,
    LayoutMismatchError,
    NonOrthonormalBasisError,
)
from pointerlab.hilbert import StateBatch
from pointerlab.decomposition import rewrite
from pointerlab.measurement import Basis, MeasurementSpec, correlating_unitary
from pointerlab.runner import DEMOS, bundled_scenario_text
from pointerlab.scenario import parse_scenario

SQ = math.sqrt
H = 1 / SQ(2)


def coin_spin_app():
    return pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("S", ("up", "down")), ("Fbar", ("F0", "F1", "F2"))
    )


def coin_basis(layout):
    return Basis.computational(layout, "R")


def coin_spec(layout):
    return MeasurementSpec("R", coin_basis(layout), "Fbar", "F0", ("F1", "F2"))


def init_with_ready():
    lay = coin_spin_app()
    return lay, pl.make_state(lay, [
        (("head", "down", "F0"), SQ(1 / 3)),
        (("tail", "up", "F0"), SQ(1 / 3)),
        (("tail", "down", "F0"), SQ(1 / 3)),
    ])


def test_premeasure_correlates_arbitrary_coin_state():
    lay = coin_spin_app()
    c1, c2 = 0.6, 0.8
    s = pl.make_state(lay, [(("head", "up", "F0"), c1), (("tail", "up", "F0"), c2)])
    out = pl.premeasure(s, coin_spec(lay))
    assert abs(out.amplitude(("head", "up", "F1")) - c1) < 1e-12
    assert abs(out.amplitude(("tail", "up", "F2")) - c2) < 1e-12
    assert abs(out.amplitude(("head", "up", "F0"))) < 1e-12


def test_premeasure_entangled_input_leaves_spin_untouched():
    lay, s = init_with_ready()
    out = pl.premeasure(s, coin_spec(lay))
    spin_lr = Basis(("right", "left"), (
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), H)]),
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), -H)]),
    ))
    # Express the result against the directional spin basis by inner products.
    def amp(r, srec, sdir):
        vec = pl.tensor(
            pl.tensor(pl.basis_state(lay.sublayout(["R"]), (r,)), spin_lr.vectors[sdir]),
            pl.basis_state(lay.sublayout(["Fbar"]), (srec,)),
        )
        return pl.inner(vec, out)

    assert abs(amp("head", "F1", 0) - SQ(1 / 6)) < 1e-9
    assert abs(amp("head", "F1", 1) - (-SQ(1 / 6))) < 1e-9
    assert abs(amp("tail", "F2", 0) - SQ(2 / 3)) < 1e-9
    assert abs(amp("tail", "F2", 1)) < 1e-9


def test_premeasure_basis_state_gives_classical_record():
    lay = coin_spin_app()
    s = pl.basis_state(lay, ("head", "down", "F0"))
    out = pl.premeasure(s, coin_spec(lay))
    assert abs(out.amplitude(("head", "down", "F1")) - 1.0) < 1e-12


def test_premeasure_requires_ready_apparatus():
    lay = coin_spin_app()
    s = pl.basis_state(lay, ("head", "down", "F1"))
    with pytest.raises(ApparatusNotReadyError):
        pl.premeasure(s, coin_spec(lay))


def test_measurement_basis_must_be_orthonormal():
    lay = coin_spin_app()
    v = pl.make_state(lay.sublayout(["R"]), [(("head",), 1.0)])
    with pytest.raises(NonOrthonormalBasisError):
        Basis(("a", "b"), (v, v))
    # The reference takes only a checked Basis, so such rows never reach it.
    with pytest.raises(NonOrthonormalBasisError):
        correlating_unitary(lay, Basis(("a", "b"), (v, v)), "Fbar", "F0", ("F1", "F2"))


def test_constructed_operators_are_unitary():
    lay, s = init_with_ready()
    op = correlating_unitary(lay, coin_basis(lay), "Fbar", "F0", ("F1", "F2"))
    gram = op.matrix.conj().T @ op.matrix
    assert np.max(np.abs(gram - np.eye(op.matrix.shape[0]))) < 1e-9


def test_unitary_on_grouped_laboratory_target():
    # Measuring a six-level grouped register in a two-vector basis still
    # produces a genuine unitary (identity on unmeasured directions).
    lay = pl.SubsystemLayout.of(
        ("Lbar", ("(head,F0)", "h", "(head,F2)", "(tail,F0)", "(tail,F1)", "t")),
        ("Wbar", ("W0", "W1", "W2")),
    )
    sub = lay.sublayout(["Lbar"])
    failbar = pl.make_state(sub, [(("h",), H), (("t",), H)])
    okbar = pl.make_state(sub, [(("h",), H), (("t",), -H)])
    op = correlating_unitary(lay, Basis(("fail", "ok"), (failbar, okbar)), "Wbar", "W0",
                             ("W1", "W2"))
    gram = op.matrix.conj().T @ op.matrix
    assert np.max(np.abs(gram - np.eye(18))) < 1e-9


def test_record_statistics_mirror_system_statistics():
    rng = np.random.default_rng(21)
    lay = coin_spin_app()
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps = np.kron(v / np.linalg.norm(v), [1.0, 0.0, 0.0])  # Fbar ready
        s = pl.StateVector(lay, amps)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        basis = Basis(("b0", "b1"), (
            pl.StateVector(lay.sublayout(["R"]), q[:, 0]),
            pl.StateVector(lay.sublayout(["R"]), q[:, 1]),
        ))
        spec = MeasurementSpec("R", basis, "Fbar", "F0", ("F1", "F2"))
        before = pl.born(s, [("R", basis)])
        after = pl.born(pl.premeasure(s, spec),
                        [("Fbar", Basis.computational(lay, "Fbar", ("F1", "F2")))])
        for (labs_b, p_b), (labs_a, p_a) in zip(before.entries, after.entries):
            assert abs(p_b - p_a) < 1e-9


def test_born_coin_marginal_and_sum():
    lay, s = init_with_ready()
    dist = pl.born(s, [("R", None)])
    assert abs(dist.probability(("head",)) - 1 / 3) < 1e-9
    assert abs(dist.probability(("tail",)) - 2 / 3) < 1e-9
    assert abs(sum(p for _, p in dist.entries) - 1.0) < 1e-9


def test_born_joint_diagonal_bases_quarter_twelfths():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))
    init = pl.make_state(lay, [
        (("head", "down"), SQ(1 / 3)),
        (("tail", "up"), SQ(1 / 3)),
        (("tail", "down"), SQ(1 / 3)),
    ])
    coin_diag = Basis(("h+t", "h-t"), (
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), H)]),
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), -H)]),
    ))
    spin_dir = Basis(("right", "left"), (
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), H)]),
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), -H)]),
    ))
    dist = pl.born(init, [("R", coin_diag), ("S", spin_dir)])
    assert abs(dist.probability(("h+t", "right")) - 3 / 4) < 1e-9
    assert abs(dist.probability(("h+t", "left")) - 1 / 12) < 1e-9
    assert abs(dist.probability(("h-t", "right")) - 1 / 12) < 1e-9
    assert abs(dist.probability(("h-t", "left")) - 1 / 12) < 1e-9


def test_born_outcome_tuples_follow_caller_order():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))
    s = pl.make_state(lay, [(("head", "down"), 1.0)])
    forward = pl.born(s, [("R", None), ("S", None)])
    backward = pl.born(s, [("S", None), ("R", None)])
    assert forward.probability(("head", "down")) == 1.0
    assert backward.probability(("down", "head")) == 1.0


def test_basis_matrix_is_built_once_and_read_only():
    lay = coin_spin_app()
    eye = np.eye(3)
    # Identity rows in the order the labels are given, full or restricted.
    for b, rows in ((Basis.computational(lay, "Fbar"), eye),
                    (Basis.computational(lay, "S", ("down",)), np.eye(2)[[1]]),
                    (Basis.computational(lay, "Fbar", ("F2", "F0")), eye[[2, 0]]),
                    (Basis.computational(lay.sublayout(["Fbar"]), "Fbar"), eye)):
        assert b.matrix is b.matrix
        assert b.matrix.dtype == np.complex128 and np.array_equal(b.matrix, rows)
        assert b.layout == lay.sublayout([b.layout.names[0]])
        assert np.array_equal(b.matrix, np.stack([v.amplitudes for v in b.vectors]))
        with pytest.raises(ValueError):
            b.matrix[0, 0] = 0.5
    with pytest.raises(NonOrthonormalBasisError):
        Basis.computational(lay, "Fbar", ("F1", "F1"))


# Rows a little off unit norm, and complex ones, as vector literals.
NEAR_UNIT = """\
layout:
  subsystem a {x, y}
  subsystem b {p, q, r}
state: 0.6|x,p> + 0.8i|y,p>
actions:
  premeasure target=a apparatus=b basis={(0.6,0.8000000004),(0.8000000004i,-0.6i)} outcomes={q,r} ready=p
queries:
  born targets=(b)
"""


@pytest.mark.parametrize("text", [*(bundled_scenario_text(n) for n in sorted(DEMOS)
                                    if n != "triortho"), NEAR_UNIT],
                         ids=[*(n for n in sorted(DEMOS) if n != "triortho"), "near-unit"])
def test_row_built_bases_equal_the_vector_built_ones(monkeypatch, text):
    # Every basis and branch set a scenario resolves is made from its raw
    # rows; normalised row by row it must hold the rows made into unit
    # StateVectors, bit for bit.  (The bundled triortho scenario resolves
    # only a computational basis.)
    made = []
    from_rows = Basis.from_rows.__func__

    def recorded(cls, labels, layout, rows):
        basis = from_rows(cls, labels, layout, rows)
        made.append((labels, layout, rows.copy(), basis))
        return basis

    monkeypatch.setattr(Basis, "from_rows", classmethod(recorded))
    parse_scenario(text)
    assert made
    for labels, layout, rows, basis in made:
        unit = [pl.hilbert.normalized(layout, row).amplitudes for row in rows]
        assert basis.labels == tuple(labels) and basis.layout == layout
        assert np.array_equal(basis.matrix, np.stack(unit))
        for vec, amps in zip(basis.vectors, unit, strict=True):
            assert np.array_equal(vec.amplitudes, amps)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 0.5


def test_default_bases_read_as_explicit_computational_ones():
    lay = coin_spin_app()
    rng = np.random.default_rng(7)
    amps = rng.normal(size=lay.dimension) + 1j * rng.normal(size=lay.dimension)
    s = pl.StateVector(lay, amps / np.linalg.norm(amps))
    comp = {name: Basis.computational(lay, name) for name in lay.names}
    implicit = pl.born(s, [("Fbar", None), ("R", None)])
    explicit = pl.born(s, [("Fbar", comp["Fbar"]), ("R", comp["R"])])
    assert implicit.entries == explicit.entries
    spin_dir = Basis(("in", "out"), (
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), 1j * H)]),
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), -1j * H)]),
    ))
    alone = rewrite(s, {"S": spin_dir}).terms
    spelled = rewrite(s, {"R": comp["R"], "S": spin_dir, "Fbar": comp["Fbar"]}).terms
    assert [t.labels for t in alone] == [t.labels for t in spelled]
    assert max(abs(a.coefficient - b.coefficient) for a, b in zip(alone, spelled)) < 1e-12


def test_born_basis_state_point_mass():
    lay = coin_spin_app()
    s = pl.basis_state(lay, ("tail", "up", "F0"))
    dist = pl.born(s, [("R", None), ("S", None)])
    assert dist.probability(("tail", "up")) == 1.0


def test_born_incomplete_coverage_raises():
    lay = coin_spin_app()
    s = pl.basis_state(lay, ("head", "down", "F0"))
    only_tail = Basis.computational(lay, "R", ("tail",))
    with pytest.raises(BasisCoverageError):
        pl.born(s, [("R", only_tail)])


def test_condition_on_coin_outcomes():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))
    init = pl.make_state(lay, [
        (("head", "down"), SQ(1 / 3)),
        (("tail", "up"), SQ(1 / 3)),
        (("tail", "down"), SQ(1 / 3)),
    ])
    basis = Basis.computational(lay, "R")
    on_tail = pl.condition(init, "R", basis, 1)
    assert abs(on_tail.amplitude(("tail", "up")) - H) < 1e-12
    assert abs(on_tail.amplitude(("tail", "down")) - H) < 1e-12
    on_head = pl.condition(init, "R", basis, 0)
    assert abs(on_head.amplitude(("head", "down")) - 1.0) < 1e-12


def test_condition_impossible_outcome():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))
    s = pl.basis_state(lay, ("head", "down"))
    with pytest.raises(ImpossibleOutcomeError):
        pl.condition(s, "R", Basis.computational(lay, "R"), 1)


def test_condition_then_born_is_point_mass():
    rng = np.random.default_rng(31)
    lay = pl.SubsystemLayout.of(("a", ("0", "1", "2")), ("b", ("x", "y")))
    basis = Basis.computational(lay, "a")
    for _ in range(20):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = pl.StateVector(lay, v / np.linalg.norm(v))
        k = int(rng.integers(0, 3))
        try:
            conditioned = pl.condition(s, "a", basis, k)
        except ImpossibleOutcomeError:
            continue
        dist = pl.born(conditioned, [("a", basis)])
        assert abs(dist.probability((basis.labels[k],)) - 1.0) < 1e-9


def eq21_layout_state():
    lay = pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("S", ("up", "down")), ("A", ("A0", "A1", "A2"))
    )
    psi = pl.make_state(lay, [
        (("head", "down", "A1"), SQ(1 / 3)),
        (("tail", "up", "A2"), SQ(2 / 3) * H),
        (("tail", "down", "A2"), SQ(2 / 3) * H),
    ])
    return lay, psi


def coarse_branches(lay):
    sub = lay.sublayout(["R", "S", "A"])
    return (
        pl.make_state(sub, [(("head", "down", "A1"), 1.0)]),
        pl.make_state(sub, [(("tail", "up", "A2"), H), (("tail", "down", "A2"), H)]),
    )


def fine_branches(lay):
    sub = lay.sublayout(["R", "S", "A"])
    return (
        pl.make_state(sub, [(("head", "down", "A1"), 1.0)]),
        pl.make_state(sub, [(("tail", "down", "A2"), 1.0)]),
        pl.make_state(sub, [(("tail", "up", "A2"), 1.0)]),
    )


def test_environment_couple_two_branches():
    lay, psi = eq21_layout_state()
    ext, rec = pl.attach_environment(psi, "E", 2)
    out = pl.environment_couple(ext, coarse_branches(lay), "E", rec)
    assert abs(out.amplitude(("head", "down", "A1", "eps1")) - SQ(1 / 3)) < 1e-9
    assert abs(out.amplitude(("tail", "up", "A2", "eps2")) - SQ(1 / 3)) < 1e-9
    assert abs(out.amplitude(("tail", "down", "A2", "eps2")) - SQ(1 / 3)) < 1e-9


def test_environment_couple_three_branches_pointer_mixture():
    lay, psi = eq21_layout_state()
    ext, rec = pl.attach_environment(psi, "E", 3)
    out = pl.environment_couple(ext, fine_branches(lay), "E", rec)
    rho = pl.pointer_reduce(out, "E")
    for labels in [("head", "down", "A1"), ("tail", "down", "A2"), ("tail", "up", "A2")]:
        k = rho.layout.index(labels)
        assert abs(rho.matrix[k, k].real - 1 / 3) < 1e-9
    # Branch coherences are gone.
    i = rho.layout.index(("tail", "up", "A2"))
    j = rho.layout.index(("tail", "down", "A2"))
    assert abs(rho.matrix[i, j]) < 1e-9


def test_environment_couple_single_branch_product():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")))
    s = pl.basis_state(lay, ("head",))
    ext, rec = pl.attach_environment(s, "E", 1)
    branch = pl.basis_state(lay.sublayout(["R"]), ("head",))
    out = pl.environment_couple(ext, (branch,), "E", rec)
    assert abs(out.amplitude(("head", "eps1")) - 1.0) < 1e-12
    rho = pl.pointer_reduce(out, "E")
    assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-9  # still pure


def test_environment_couple_rejects_incomplete_branching():
    lay, psi = eq21_layout_state()
    ext, rec = pl.attach_environment(psi, "E", 1)
    only_head = (coarse_branches(lay)[0],)
    with pytest.raises(IncompleteBranchingError):
        pl.environment_couple(ext, only_head, "E", rec)


def test_environment_couple_rejects_nonorthonormal_branches():
    lay, psi = eq21_layout_state()
    ext, rec = pl.attach_environment(psi, "E", 2)
    b = coarse_branches(lay)
    with pytest.raises(NonOrthonormalBasisError):
        pl.environment_couple(ext, (b[0], b[0]), "E", rec)


def test_pointer_reduce_two_branch_weights():
    lay, psi = eq21_layout_state()
    ext, rec = pl.attach_environment(psi, "E", 2)
    out = pl.environment_couple(ext, coarse_branches(lay), "E", rec)
    rho = pl.pointer_reduce(out, "E")
    b1, b2 = coarse_branches(lay)
    w1 = np.real(np.vdot(b1.amplitudes, rho.matrix @ b1.amplitudes))
    w2 = np.real(np.vdot(b2.amplitudes, rho.matrix @ b2.amplitudes))
    assert abs(w1 - 1 / 3) < 1e-9
    assert abs(w2 - 2 / 3) < 1e-9


def test_reductions_of_both_couplings_agree_on_coin_and_record():
    lay, psi = eq21_layout_state()
    ext2, rec2 = pl.attach_environment(psi, "E", 2)
    rho2 = pl.pointer_reduce(
        pl.environment_couple(ext2, coarse_branches(lay), "E", rec2), "E")
    ext3, rec3 = pl.attach_environment(psi, "E", 3)
    rho3 = pl.pointer_reduce(
        pl.environment_couple(ext3, fine_branches(lay), "E", rec3), "E")
    red2 = pl.partial_trace(rho2, {"R", "A"})
    red3 = pl.partial_trace(rho3, {"R", "A"})
    assert np.max(np.abs(red2.matrix - red3.matrix)) < 1e-9
    # But the un-reduced mixtures disagree visibly on the spin.
    assert np.max(np.abs(rho2.matrix - rho3.matrix)) > 0.1


def test_outcome_distribution_clamps_tiny_negatives():
    d = pl.OutcomeDistribution(((("a",), 1.0), (("b",), -1e-13)))
    assert d.probability(("b",)) == 0.0


def test_coin_record_unitary_as_explicit_operator():
    # Applying the record-correlating unitary to a coin superposition with a
    # ready apparatus leaves the perfectly correlated pair behind.
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A0", "A1", "A2")))
    u_ra = correlating_unitary(lay, Basis.computational(lay, "R"), "A", "A0", ("A1", "A2"))
    psi0 = pl.make_state(lay, [(("head", "A0"), SQ(1 / 3)), (("tail", "A0"), SQ(2 / 3))])
    psi = pl.apply(u_ra, psi0)
    assert abs(psi.amplitude(("head", "A1")) - SQ(1 / 3)) < 1e-9
    assert abs(psi.amplitude(("tail", "A2")) - SQ(2 / 3)) < 1e-9
    assert abs(psi.amplitude(("head", "A0"))) < 1e-12


def test_pointer_reduce_uncoupled_product_is_rank_one():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("E", ("e0", "e1")))
    s = pl.make_state(lay, [(("head", "e0"), H), (("tail", "e0"), H)])
    rho = pl.pointer_reduce(s, "E")
    vals = np.linalg.eigvalsh(rho.matrix)
    assert abs(vals[-1] - 1.0) < 1e-9  # pure projector, rank 1


def test_apparatus_needs_room_for_ready_plus_records():
    from pointerlab.errors import LayoutConflictError

    # Ready level reused as a record: two levels suffice for two outcomes.
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A0", "A1")))
    spec = MeasurementSpec("R", Basis.computational(lay, "R"), "A", "A0", ("A1", "A0"))
    out = pl.premeasure(pl.basis_state(lay, ("head", "A0")), spec)
    assert abs(out.amplitude(("head", "A1")) - 1.0) < 1e-12

    # Two records distinct from the ready level cannot fit in two levels.
    small = pl.SubsystemLayout.of(("R", ("head", "tail")), ("B", ("B0", "B1")))
    with pytest.raises(LayoutConflictError):
        correlating_unitary(small, Basis.computational(small, "R"), "B", "B0", ("B1", "B1"))


# --------------------------------------------------------------------------
# The correlating kernel against the full reference unitary
# --------------------------------------------------------------------------

# Target registers a and b sit on both sides of the apparatus, so the kernel
# has to move non-adjacent axes; c is a bystander.
KERNEL_LAYOUT = pl.SubsystemLayout.of(
    ("a", ("a0", "a1")), ("A", ("A0", "A1", "A2", "A3", "A4")),
    ("b", ("b0", "b1", "b2")), ("c", ("c0", "c1")),
)


def _random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


def _ready_state(rng, targets, vectors, ready="A1"):
    """Random complex state with the apparatus ready; with ``vectors`` the
    target part lies in their span (as a coupling requires)."""
    lay = KERNEL_LAYOUT
    rest = [n for n in lay.names if n not in targets and n != "A"]
    shape = [lay.subsystem(n).dimension for n in (*targets, *rest)]
    coeff = rng.standard_normal((len(vectors), math.prod(shape[len(targets):])))
    coeff = coeff + 1j * rng.standard_normal(coeff.shape)
    on_targets = np.stack([v.amplitudes for v in vectors]).T @ coeff
    ready_vec = np.zeros(lay.subsystem("A").dimension)
    ready_vec[lay.subsystem("A").index_of(ready)] = 1.0
    t = np.multiply.outer(on_targets.reshape(shape), ready_vec)
    t = np.moveaxis(t, -1, 0)
    order = ["A", *targets, *rest]
    t = t.transpose([order.index(n) for n in lay.names]).reshape(-1)
    return pl.StateVector(lay, t / np.linalg.norm(t))


def _target_vectors(rng, targets, k):
    sub = KERNEL_LAYOUT.sublayout(sorted(targets, key=KERNEL_LAYOUT.axis))
    u = _random_unitary(rng, sub.dimension)
    return tuple(pl.StateVector(sub, u[:, i]) for i in range(k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["premeasure", "reuse-ready", "couple"]),
       st.integers(1, 3))
def test_kernel_matches_reference_unitary(seed, case, k):
    rng = np.random.default_rng(seed)
    lay = KERNEL_LAYOUT
    if case == "couple":
        # A grouped multi-register target, spanned by k of its basis vectors.
        targets = ("a", "b")
        vectors = _target_vectors(rng, targets, k)
        state = _ready_state(rng, targets, vectors)
        records = ("A0", "A2", "A3")[:k]
        out = pl.environment_couple(state, vectors, "A", records, ready_label="A1")
    else:
        # k vectors of a random basis of b; the rest of b keeps A ready.
        targets = ("b",)
        vectors = _target_vectors(rng, targets, k)
        state = _ready_state(rng, targets, _target_vectors(rng, targets, 3))
        records = ("A1", "A3", "A4")[:k] if case == "reuse-ready" else ("A0", "A3", "A4")[:k]
        spec = MeasurementSpec("b", Basis(tuple(f"s{i}" for i in range(k)), vectors),
                               "A", "A1", records)
        out = pl.premeasure(state, spec)
    ref = pl.apply(correlating_unitary(lay, pl.branch_basis(vectors), "A", "A1", records), state)
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-9
    assert abs(out.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("case", ["premeasure", "couple"])
def test_kernel_projects_out_weight_outside_the_ready_sector(case):
    rng = np.random.default_rng(7)
    lay = KERNEL_LAYOUT
    targets = ("b",)
    vectors = _target_vectors(rng, targets, 3)
    ready = _ready_state(rng, targets, vectors)
    leak = _ready_state(rng, targets, vectors, ready="A3")
    amps = np.sqrt(1 - 1e-10) * ready.amplitudes + np.sqrt(1e-10) * leak.amplitudes
    state = pl.StateVector(lay, amps)
    records = ("A0", "A2", "A4")
    if case == "couple":
        out = pl.environment_couple(state, vectors, "A", records, ready_label="A1")
    else:
        spec = MeasurementSpec("b", Basis(("s0", "s1", "s2"), vectors), "A", "A1", records)
        out = pl.premeasure(state, spec)
    expected = pl.apply(correlating_unitary(lay, pl.branch_basis(vectors), "A", "A1", records),
                        ready)
    assert abs(out.norm() - 1.0) < 1e-12
    assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12
    # Nothing of the leaked part survives: A3 is neither ready nor a record.
    assert np.max(np.abs(out.tensor_view()[:, 3])) == 0.0


@pytest.mark.parametrize("case", ["premeasure", "couple"])
def test_kernel_allocates_in_proportion_to_the_state(case):
    # Two of the 729 basis vectors of a target, and a 3-level apparatus: 2,187
    # amplitudes.  A dense map would take d_t**2 * d_a * 16 B, about 25 MB.
    lay = pl.SubsystemLayout.of(("T", tuple(f"t{i}" for i in range(729))),
                                ("A", ("A0", "A1", "A2")))
    basis = Basis.computational(lay, "T", ("t0", "t1"))
    state = pl.make_state(lay, [(("t0", "A0"), 0.6), (("t1", "A0"), 0.8)])
    tracemalloc.start()
    try:
        if case == "couple":
            pl.environment_couple(state, basis.vectors, "A", ("A1", "A2"), ready_label="A0")
        else:
            pl.premeasure(state, MeasurementSpec("T", basis, "A", "A0", ("A1", "A2")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * state.amplitudes.nbytes


def _batch_case(rng, case):
    """A maker of random states of KERNEL_LAYOUT with the apparatus A at a
    given level, and a kernel that acts on them (A1 is ready)."""
    if case == "couple":
        targets = ("a", "b")
        vectors = _target_vectors(rng, targets, 3)
        return (lambda ready="A1": _ready_state(rng, targets, vectors, ready),
                lambda s: pl.environment_couple(s, vectors, "A", ("A0", "A2", "A3"),
                                                ready_label="A1"))
    make = lambda ready="A1": _ready_state(rng, ("b",), _target_vectors(rng, ("b",), 3), ready)
    if case == "group":
        register = pl.merged_register(KERNEL_LAYOUT, ("c", "a"), "G", {})
        return make, lambda s: pl.group_state(s, ("c", "a"), register)
    vectors = _target_vectors(rng, ("b",), 2)
    spec = MeasurementSpec("b", Basis(("s0", "s1"), vectors), "A", "A1", ("A0", "A3"))
    return make, lambda s: pl.premeasure(s, spec)


@pytest.mark.parametrize("case", ["premeasure", "couple", "group"])
def test_a_batch_goes_through_a_kernel_as_its_states_do_alone(case):
    # Up to rounding: BLAS may sum a wider product in another order.
    make, kernel = _batch_case(np.random.default_rng(11), case)
    states = [make() for _ in range(3)]
    batch = kernel(StateBatch(KERNEL_LAYOUT, np.stack([s.amplitudes for s in states])))
    assert isinstance(batch, StateBatch) and len(batch.amplitudes) == 3
    dists = pl.born(batch, [("b", None)])
    for row, dist, state in zip(batch.amplitudes, dists, states):
        alone = kernel(state)
        assert batch.layout == alone.layout
        assert np.max(np.abs(row - alone.amplitudes)) < 1e-14
        ref = pl.born(alone, [("b", None)])
        assert [k for k, _ in dist.entries] == [k for k, _ in ref.entries]
        assert max(abs(p - q) for (_, p), (_, q) in zip(dist.entries, ref.entries)) < 1e-14


@pytest.mark.parametrize("case", ["premeasure", "couple"])
@pytest.mark.parametrize("bad", [0, 2])
def test_a_state_off_the_ready_sector_fails_its_batch(case, bad):
    # Each state gets its own ready check: one state with its apparatus in a
    # record level fails the batch even though the others are ready.
    make, kernel = _batch_case(np.random.default_rng(3), case)
    states = [make("A3" if i == bad else "A1") for i in range(3)]
    role = "environment" if case == "couple" else "apparatus"
    batch = StateBatch(KERNEL_LAYOUT, np.stack([s.amplitudes for s in states]))
    with pytest.raises(ApparatusNotReadyError, match=f"{role} 'A' is not in its ready state"):
        kernel(batch)
    kernel(batch.take([i for i in range(3) if i != bad]))


def test_a_batch_checks_each_state_for_unit_norm():
    lay = coin_spin_app()
    good = pl.basis_state(lay, ("head", "up", "F0")).amplitudes
    with pytest.raises(DegenerateStateError, match="state 1 of the batch"):
        StateBatch(lay, np.stack([good, 1.1 * good]))
    with pytest.raises(LayoutMismatchError):
        StateBatch(lay, good)


def test_conditioned_branches_weigh_what_the_environment_records():
    # The weights are the environment's record probabilities once the record
    # is conditioned on; a branch the record rules out is left out.
    lay, state = eq21_layout_state()
    record = Basis.computational(lay, "A")
    branches = pl.branch_basis(fine_branches(lay))
    batch, weights = pl.conditioned_branches(state, branches, "A", record, 2)
    ext, rec = pl.attach_environment(state, "E", 3)
    coupled = pl.condition(pl.environment_couple(ext, branches, "E", rec), "A",
                           Basis.computational(ext.layout, "A"), 2)
    env = pl.born(coupled, [("E", None)])
    assert env.probability(("eps1",)) < 1e-24 and len(weights) == 2
    assert np.allclose(weights, [env.probability(("eps2",)), env.probability(("eps3",))],
                       atol=1e-15)
    assert np.allclose(np.linalg.norm(batch.amplitudes, axis=1), 1.0, atol=1e-15)
    with pytest.raises(ImpossibleOutcomeError):
        pl.conditioned_branches(state, branches, "A", record, 0)
    with pytest.raises(IncompleteBranchingError):
        pl.conditioned_branches(state, pl.branch_basis(coarse_branches(lay)[:1]), "A", record, 2)


def test_rows_are_checked_as_given_then_normalised():
    lay = pl.SubsystemLayout.of(("a", ("x", "y")))
    basis = Basis.from_rows(("u", "v"), lay, np.array([[0.6, 0.8000000004], [-0.8, 0.6]]))
    assert basis.matrix.dtype == np.complex128
    assert np.allclose(np.linalg.norm(basis.matrix, axis=1), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(NonOrthonormalBasisError) as err:
        Basis.from_rows(("u", "v"), lay, np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert err.value.gram == (0, 0, 4.0)
    with pytest.raises(LayoutMismatchError):
        Basis.from_rows(("u",), lay, np.array([[1.0, 0.0, 0.0]]))
