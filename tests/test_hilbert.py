"""Core layout / state / operator behavior."""

import math

import numpy as np
import pytest

import pointerlab as pl
from pointerlab.errors import (
    DegenerateStateError,
    InvalidPartitionError,
    LayoutConflictError,
    LayoutMismatchError,
    NonInjectiveLabelMapError,
    UnknownLabelError,
    UnknownSubsystemError,
)
from pointerlab.hilbert import apply_to_axis

SQ = math.sqrt


def coin_spin():
    return pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))


def init_state():
    lay = coin_spin()
    return pl.make_state(lay, [
        (("head", "down"), SQ(1 / 3)),
        (("tail", "up"), SQ(1 / 3)),
        (("tail", "down"), SQ(1 / 3)),
    ])


def test_index_bijection_random_layouts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        specs = []
        for k in range(n):
            d = int(rng.integers(1, 5))
            specs.append((f"s{k}", tuple(f"l{k}_{j}" for j in range(d))))
        lay = pl.SubsystemLayout.of(*specs)
        for flat in range(lay.dimension):
            digits = np.unravel_index(flat, lay.dims)
            labels = tuple(sub.labels[k] for sub, k in zip(lay.subsystems, digits))
            assert lay.index(labels) == flat
        # The label and name indexes take no part in equality, hashing or repr.
        again = pl.SubsystemLayout.of(*specs)
        assert again == lay and hash(again) == hash(lay) and repr(again) == repr(lay)
        for sub, twin in zip(lay.subsystems, again.subsystems):
            assert sub is not twin and sub == twin and hash(sub) == hash(twin)
            assert repr(sub) == repr(twin) == f"Subsystem(name={sub.name!r}, labels={sub.labels!r})"


def test_make_state_sums_repeats_and_normalizes():
    lay = coin_spin()
    s = pl.make_state(lay, [(("head", "up"), 1.0), (("tail", "down"), 2.0),
                            (("head", "up"), 1.0)])
    # The two head-up terms sum to the weight of the one tail-down term.
    assert abs(s.amplitude(("head", "up")) - SQ(1 / 2)) < 1e-12
    assert abs(s.amplitude(("tail", "down")) - SQ(1 / 2)) < 1e-12


def test_make_state_init_has_no_head_up_component():
    s = init_state()
    assert s.amplitude(("head", "up")) == 0
    assert abs(s.norm() - 1.0) < 1e-12


def test_make_state_single_term_basis_state():
    lay = coin_spin()
    s = pl.make_state(lay, [(("head", "down"), 1.0)])
    assert abs(s.amplitude(("head", "down")) - 1.0) < 1e-12


def test_make_state_zero_vector_rejected():
    lay = coin_spin()
    with pytest.raises(DegenerateStateError):
        pl.make_state(lay, [(("head", "up"), 1.0), (("head", "up"), -1.0)])


def test_make_state_unknown_label_names_subsystem():
    lay = coin_spin()
    with pytest.raises(UnknownLabelError) as err:
        pl.make_state(lay, [(("head", "sideways"), 1.0)])
    assert "S" in str(err.value) and "sideways" in str(err.value)


def test_tensor_product_amplitudes_and_norm():
    r = pl.basis_state(pl.SubsystemLayout.of(("R", ("head", "tail"))), ("head",))
    s = pl.basis_state(pl.SubsystemLayout.of(("S", ("up", "down"))), ("down",))
    t = pl.tensor(r, s)
    assert abs(t.amplitude(("head", "down")) - 1.0) < 1e-12
    assert abs(t.norm() - 1.0) < 1e-12


def test_tensor_ready_register():
    fbar = pl.basis_state(pl.SubsystemLayout.of(("Fbar", ("F0", "F1", "F2"))), ("F0",))
    t = pl.tensor(init_state(), fbar)
    assert t.layout.names == ("R", "S", "Fbar")
    assert abs(t.amplitude(("tail", "up", "F0")) - SQ(1 / 3)) < 1e-12


def test_tensor_norm_multiplicative_random():
    rng = np.random.default_rng(11)
    layA = pl.SubsystemLayout.of(("a", ("0", "1", "2")))
    layB = pl.SubsystemLayout.of(("b", ("x", "y")))
    for _ in range(25):
        va = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = pl.StateVector(layA, va / np.linalg.norm(va))
        b = pl.StateVector(layB, vb / np.linalg.norm(vb))
        assert abs(pl.tensor(a, b).norm() - 1.0) < 1e-12


def test_tensor_name_collision():
    with pytest.raises(LayoutConflictError):
        pl.tensor(init_state(), init_state())


def test_inner_examples():
    s = init_state()
    assert abs(pl.inner(s, s) - 1.0) < 1e-12
    head_up = pl.basis_state(s.layout, ("head", "up"))
    assert abs(pl.inner(head_up, s)) < 1e-12
    tail_up = pl.basis_state(s.layout, ("tail", "up"))
    assert abs(pl.inner(tail_up, s) - 1 / SQ(3)) < 1e-12


def test_inner_conjugate_linear_in_first_argument():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")))
    u = pl.StateVector(lay, np.array([1j, 0]) / 1.0)
    v = pl.StateVector(lay, np.array([1.0, 0.0]))
    assert abs(pl.inner(u, v) - (-1j)) < 1e-12


def test_inner_layout_mismatch():
    a = pl.basis_state(pl.SubsystemLayout.of(("a", ("0", "1"))), ("0",))
    b = pl.basis_state(pl.SubsystemLayout.of(("b", ("0", "1"))), ("0",))
    with pytest.raises(LayoutMismatchError):
        pl.inner(a, b)


def test_apply_identity_and_mismatch():
    s = init_state()
    ident = pl.LinearOperator(s.layout, s.layout, np.eye(4))
    assert np.allclose(pl.apply(ident, s).amplitudes, s.amplitudes)
    other = pl.basis_state(pl.SubsystemLayout.of(("X", ("0",))), ("0",))
    with pytest.raises(LayoutMismatchError):
        pl.apply(ident, other)


def test_unitary_flag_is_checked():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")))
    with pytest.raises(LayoutConflictError):
        pl.LinearOperator(lay, lay, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_density_is_pure_projector():
    s = init_state()
    rho = pl.density(s)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-9
    vals = np.linalg.eigvalsh(rho.matrix)
    assert abs(vals[-1] - 1.0) < 1e-9


def test_partial_trace_bell_is_maximally_mixed():
    # Oracle: by hand, tracing half of (|00> + |11>)/sqrt2 leaves I/2.
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    bell = pl.make_state(lay, [(("0", "0"), 1.0), (("1", "1"), 1.0)])
    red = pl.partial_trace(pl.density(bell), {"a"})
    assert np.max(np.abs(red.matrix - np.eye(2) / 2)) < 1e-12


def test_partial_trace_product_state_stays_pure():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    s = pl.make_state(lay, [(("0", "0"), 1.0), (("1", "0"), 1j)])
    red = pl.partial_trace(pl.density(s), {"a"})
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.max(np.abs(red.matrix - expected)) < 1e-12


def test_partial_trace_environment_tagged_state():
    lay = pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("A", ("A1", "A2")), ("E", ("e1", "e2"))
    )
    psi = pl.make_state(lay, [(("head", "A1", "e1"), SQ(1 / 3)),
                              (("tail", "A2", "e2"), SQ(2 / 3))])
    red = pl.partial_trace(pl.density(psi), {"R", "A"})
    sub = red.layout
    assert sub.names == ("R", "A")
    expected = np.zeros((4, 4))
    expected[sub.index(("head", "A1")), sub.index(("head", "A1"))] = 1 / 3
    expected[sub.index(("tail", "A2")), sub.index(("tail", "A2"))] = 2 / 3
    assert np.max(np.abs(red.matrix - expected)) < 1e-12


def test_partial_trace_linearity_and_trace_preservation():
    rng = np.random.default_rng(3)
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1", "2")))
    for _ in range(20):
        v1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        r1 = pl.density(pl.StateVector(lay, v1 / np.linalg.norm(v1)))
        r2 = pl.density(pl.StateVector(lay, v2 / np.linalg.norm(v2)))
        alpha = float(rng.uniform(0.1, 0.9))
        mix = pl.DensityOperator(lay, alpha * r1.matrix + (1 - alpha) * r2.matrix)
        lhs = pl.partial_trace(mix, {"b"}).matrix
        rhs = (alpha * pl.partial_trace(r1, {"b"}).matrix
               + (1 - alpha) * pl.partial_trace(r2, {"b"}).matrix)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert abs(np.trace(lhs) - 1.0) < 1e-9


def test_partial_trace_errors():
    rho = pl.density(init_state())
    with pytest.raises(InvalidPartitionError):
        pl.partial_trace(rho, set())
    with pytest.raises(UnknownSubsystemError):
        pl.partial_trace(rho, {"Q"})


def test_group_merges_at_first_part_position():
    # (R, S, Fbar) grouped over (R, Fbar) -> (Lbar, S), amplitudes intact.
    lay = pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("S", ("up", "down")), ("Fbar", ("F0", "F1", "F2"))
    )
    s = pl.make_state(lay, [
        (("head", "down", "F1"), SQ(1 / 3)),
        (("tail", "up", "F2"), SQ(1 / 3)),
        (("tail", "down", "F2"), SQ(1 / 3)),
    ])
    lbar = pl.merged_register(lay, ("R", "Fbar"), "Lbar",
                              {("head", "F1"): "h", ("tail", "F2"): "t"})
    g = pl.group_state(s, ("R", "Fbar"), lbar)
    assert g.layout.names == ("Lbar", "S")
    assert abs(g.amplitude(("h", "down")) - SQ(1 / 3)) < 1e-12
    assert abs(g.amplitude(("t", "up")) - SQ(1 / 3)) < 1e-12
    assert g.amplitude(("(head,F0)", "up")) == 0


def test_group_of_adjacent_parts_is_bit_identical():
    # Grouping consecutive parts in layout order only renames the index.
    lay = pl.SubsystemLayout.of(("S", ("up", "down")), ("F", ("F0", "F1", "F2")))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    s = pl.StateVector(lay, v / np.linalg.norm(v))
    label_map = {("down", "F1"): "-1/2", ("up", "F2"): "+1/2"}
    g = pl.group_state(s, ("S", "F"), pl.merged_register(lay, ("S", "F"), "L", label_map))
    assert g.layout.names == ("L",)
    assert np.array_equal(g.amplitudes, s.amplitudes)


def test_group_reordered_parts_round_trip_by_label():
    lay = pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("S", ("up", "down")), ("F", ("F0", "F1"))
    )
    rng = np.random.default_rng(9)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = pl.StateVector(lay, v / np.linalg.norm(v))
    g = pl.group_state(s, ("R", "F"), pl.merged_register(lay, ("R", "F"), "G", {}))
    assert g.layout.names == ("G", "S")
    for labels in [("head", "up", "F0"), ("tail", "down", "F1")]:
        grouped = (f"({labels[0]},{labels[2]})", labels[1])
        assert g.amplitude(grouped) == s.amplitude(labels)


def test_group_non_injective_map_rejected():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("F", ("F0", "F1")))
    s = pl.basis_state(lay, ("head", "F0"))
    with pytest.raises(NonInjectiveLabelMapError):
        pl.merged_register(lay, ("R", "F"), "G",
                           {("head", "F0"): "x", ("tail", "F1"): "x"})
    # A register handed in must span exactly the parts it replaces, once each.
    with pytest.raises(LayoutMismatchError):
        pl.group_state(s, ("R", "F"), pl.Subsystem("G", ("a", "b", "c")))
    with pytest.raises(InvalidPartitionError):
        pl.group_state(s, ("R", "R"), pl.merged_register(lay, ("R", "R"), "G", {}))


def test_amplitudes_are_read_only():
    s = init_state()
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


def test_apply_to_axis_is_tensordot_then_moveaxis_bit_for_bit():
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    checked = 0
    for ndim in range(1, 6):
        for _ in range(12):
            t = cplx(*rng.integers(1, 5, size=ndim))
            for axis in range(ndim):
                d = t.shape[axis]
                # Square, rectangular (k != d), and the F-ordered transpose
                # that rewrite's rebuild passes.
                for mat in (cplx(d, d), cplx(d + 1, d), cplx(max(d - 1, 1), d), cplx(d, d).T):
                    want = np.moveaxis(np.tensordot(t, mat, ([axis], [1])), -1, axis)
                    got = apply_to_axis(t, mat, axis)
                    assert got.shape == want.shape and np.array_equal(got, want)
                    checked += 1
    assert checked > 600


def test_layout_caches_names_dims_and_dimension_outside_equality():
    lay = coin_spin()
    assert (lay.names, lay.dims, lay.dimension) == (("R", "S"), (2, 2), 4)
    again = pl.SubsystemLayout(lay.subsystems)
    assert again == lay and hash(again) == hash(lay)
    assert repr(lay) == f"SubsystemLayout(subsystems={lay.subsystems!r})"
    with pytest.raises(InvalidPartitionError):
        pl.SubsystemLayout(())
