"""Basis rewrites, Schmidt analysis, relative states, tripartite uniqueness."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointerlab as pl
from pointerlab.decomposition import relative_states, rewrite, schmidt, triortho_verdict
from pointerlab.errors import BasisCoverageError, InvalidPartitionError
from pointerlab.measurement import Basis

SQ = math.sqrt
H = 1 / SQ(2)


def coin_spin():
    return pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))


def init_state():
    return pl.make_state(coin_spin(), [
        (("head", "down"), SQ(1 / 3)),
        (("tail", "up"), SQ(1 / 3)),
        (("tail", "down"), SQ(1 / 3)),
    ])


def spin_dir(lay):
    return Basis(("right", "left"), (
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), H)]),
        pl.make_state(lay.sublayout(["S"]), [(("up",), H), (("down",), -H)]),
    ))


def coin_diag(lay):
    return Basis(("h+t", "h-t"), (
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), H)]),
        pl.make_state(lay.sublayout(["R"]), [(("head",), H), (("tail",), -H)]),
    ))


def test_rewrite_native_basis_reproduces_amplitudes():
    s = init_state()
    dec = rewrite(s, {})
    labels = {t.labels: t.coefficient for t in dec.terms}
    assert set(labels) == {("head", "down"), ("tail", "up"), ("tail", "down")}
    for c in labels.values():
        assert abs(c - SQ(1 / 3)) < 1e-12
    assert dec.coefficient(("head", "up")) == 0  # pruned exactly


def test_rewrite_directional_spin():
    s = init_state()
    dec = rewrite(s, {"S": spin_dir(s.layout)})
    assert abs(dec.coefficient(("head", "right")) - SQ(1 / 6)) < 1e-9
    assert abs(dec.coefficient(("head", "left")) - (-SQ(1 / 6))) < 1e-9
    assert abs(dec.coefficient(("tail", "right")) - SQ(2 / 3)) < 1e-9
    assert dec.coefficient(("tail", "left")) == 0


def test_rewrite_diagonal_coin():
    s = init_state()
    dec = rewrite(s, {"R": coin_diag(s.layout)})
    assert abs(dec.coefficient(("h+t", "down")) - SQ(2 / 3)) < 1e-9
    assert abs(dec.coefficient(("h+t", "up")) - SQ(1 / 6)) < 1e-9
    assert abs(dec.coefficient(("h-t", "up")) - (-SQ(1 / 6))) < 1e-9
    assert dec.coefficient(("h-t", "down")) == 0


def test_rewrite_both_rotated():
    s = init_state()
    dec = rewrite(s, {"R": coin_diag(s.layout), "S": spin_dir(s.layout)})
    assert abs(dec.coefficient(("h+t", "right")) - SQ(3 / 4)) < 1e-9
    assert abs(dec.coefficient(("h+t", "left")) - (-SQ(1 / 12))) < 1e-9
    assert abs(dec.coefficient(("h-t", "right")) - (-SQ(1 / 12))) < 1e-9
    assert abs(dec.coefficient(("h-t", "left")) - (-SQ(1 / 12))) < 1e-9


def test_rewrite_reconstruction_suite():
    # All four expansions rebuild the same amplitude vector.
    s = init_state()
    expansions = [
        {},
        {"S": spin_dir(s.layout)},
        {"R": coin_diag(s.layout)},
        {"R": coin_diag(s.layout), "S": spin_dir(s.layout)},
    ]
    for bases in expansions:
        dec = rewrite(s, bases)
        assert np.linalg.norm(dec.reconstruct() - s.amplitudes) < 1e-9


def test_rewrite_requires_complete_bases():
    s = init_state()
    partial = Basis.computational(s.layout, "R", ("head",))
    with pytest.raises(BasisCoverageError):
        rewrite(s, {"R": partial})


def eq17_state():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A1", "A2")))
    return pl.make_state(lay, [(("head", "A1"), SQ(1 / 3)), (("tail", "A2"), SQ(2 / 3))])


def test_schmidt_perfect_correlation():
    psi = eq17_state()
    sd = schmidt(psi, (("R",), ("A",)))
    assert not sd.degenerate
    assert abs(sd.coefficients[0] - SQ(2 / 3)) < 1e-9
    assert abs(sd.coefficients[1] - SQ(1 / 3)) < 1e-9
    big, small = sd.terms
    assert abs(abs(big.left.amplitude(("tail",))) - 1.0) < 1e-9
    assert abs(abs(big.right.amplitude(("A2",))) - 1.0) < 1e-9
    assert abs(abs(small.left.amplitude(("head",))) - 1.0) < 1e-9


def test_schmidt_bell_degenerate():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    bell = pl.make_state(lay, [(("0", "0"), 1.0), (("1", "1"), 1.0)])
    sd = schmidt(bell, (("a",), ("b",)))
    assert sd.degenerate
    assert abs(sd.coefficients[0] - H) < 1e-9
    assert abs(sd.coefficients[1] - H) < 1e-9


def test_schmidt_product_state_single_term():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    s = pl.make_state(lay, [(("0", "0"), H), (("0", "1"), H)])
    sd = schmidt(s, (("a",), ("b",)))
    assert len(sd.terms) == 1
    assert abs(sd.coefficients[0] - 1.0) < 1e-9


def test_schmidt_invalid_partition():
    psi = eq17_state()
    with pytest.raises(InvalidPartitionError):
        schmidt(psi, (("R",), ("R",)))


def test_schmidt_coefficients_invariant_under_local_unitaries():
    rng = np.random.default_rng(17)
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1", "2")))
    for _ in range(15):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = pl.StateVector(lay, v / np.linalg.norm(v))
        base = schmidt(s, (("a",), ("b",))).coefficients
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        rotated = pl.apply(pl.embed(lay, {"b": q}), s)
        rot = schmidt(rotated, (("a",), ("b",))).coefficients
        assert len(base) == len(rot)
        for x, y in zip(base, rot):
            assert abs(x - y) < 1e-9


def rotated_record_basis(lay):
    sub = lay.sublayout(["A"])
    return Basis(("A1p", "A2p"), (
        pl.make_state(sub, [(("A1",), H), (("A2",), H)]),
        pl.make_state(sub, [(("A1",), H), (("A2",), -H)]),
    ))


def test_relative_states_rotated_record():
    psi = eq17_state()
    dec = relative_states(psi, "A", rotated_record_basis(psi.layout))
    assert len(dec.terms) == 2
    for t in dec.terms:
        assert abs(t.coefficient - H) < 1e-9
    coin_plus, coin_minus = (t.factors[0] for t in dec.terms)
    assert abs(coin_plus.amplitude(("head",)) - SQ(1 / 3)) < 1e-9
    assert abs(coin_plus.amplitude(("tail",)) - SQ(2 / 3)) < 1e-9
    assert abs(coin_minus.amplitude(("head",)) - SQ(1 / 3)) < 1e-9
    assert abs(coin_minus.amplitude(("tail",)) - (-SQ(2 / 3))) < 1e-9
    assert np.linalg.norm(dec.reconstruct() - psi.amplitudes) < 1e-9


def test_relative_coin_states_not_orthogonal():
    # Oracle: overlap by hand is 1/3 - 2/3 = -1/3.
    psi = eq17_state()
    dec = relative_states(psi, "A", rotated_record_basis(psi.layout))
    a, b = (t.factors[0] for t in dec.terms)
    assert abs(pl.inner(a, b) - (-1 / 3)) < 1e-9


def test_relative_state_probabilities_form_distribution():
    rng = np.random.default_rng(23)
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    basis = Basis.computational(lay, "b")
    for _ in range(15):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = pl.StateVector(lay, v / np.linalg.norm(v))
        dec = relative_states(s, "b", basis)
        total = sum(abs(t.coefficient) ** 2 for t in dec.terms)
        assert abs(total - 1.0) < 1e-9


def test_relative_states_product_state_identical_factors():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")))
    s = pl.make_state(lay, [(("0", "0"), H), (("0", "1"), H)])
    dec = relative_states(s, "b", Basis.computational(lay, "b"))
    f0, f1 = (t.factors[0] for t in dec.terms)
    assert abs(abs(pl.inner(f0, f1)) - 1.0) < 1e-9


def tri_layout():
    return pl.SubsystemLayout.of(
        ("R", ("head", "tail")), ("A", ("A1", "A2")), ("E", ("e1", "e2"))
    )


def env_tagged_state():
    return pl.make_state(tri_layout(), [
        (("head", "A1", "e1"), SQ(1 / 3)), (("tail", "A2", "e2"), SQ(2 / 3)),
    ])


def test_triortho_environment_tagged_state_unique():
    psi = env_tagged_state()
    verdict = triortho_verdict(psi, (("R",), ("A",), ("E",)))
    assert verdict.kind == "unique"
    assert verdict.witness is None
    mags = sorted(abs(t.coefficient) for t in verdict.canonical.terms)
    assert abs(mags[0] - SQ(1 / 3)) < 1e-9
    assert abs(mags[1] - SQ(2 / 3)) < 1e-9
    assert np.linalg.norm(verdict.canonical.reconstruct() - psi.amplitudes) < 1e-9


def test_triortho_rotated_form_rejected_explicitly():
    # The two-branch tagged state admits no decomposition using the rotated
    # record frame: every rotated relative state stays entangled.  Checked
    # directly, independent of the search machinery.
    psi = env_tagged_state()
    t3 = psi.amplitudes.reshape(2, 2, 2)
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 9):
        v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        rel = np.tensordot(v.conj(), t3, axes=([0], [1]))  # anchor on the record
        s = np.linalg.svd(rel, compute_uv=False)
        assert s[1] > 1e-3  # second singular value: not a product


def test_triortho_ghz_unique_despite_degeneracy():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
    ghz = pl.make_state(lay, [(("0", "0", "0"), 1.0), (("1", "1", "1"), 1.0)])
    verdict = triortho_verdict(ghz, (("a",), ("b",), ("c",)))
    assert verdict.kind == "unique"
    # Oracle: independent grid scan over rotated anchor bases; only the
    # computational frame yields product relative states.
    t3 = ghz.amplitudes.reshape(2, 2, 2)
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 9):
        v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        rel = np.tensordot(v.conj(), t3, axes=([0], [0]))
        s = np.linalg.svd(rel, compute_uv=False)
        assert s[1] > 1e-3


def test_triortho_bell_with_fixed_third_is_ambiguous():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
    state = pl.make_state(lay, [(("0", "0", "0"), 1.0), (("1", "1", "0"), 1.0)])
    verdict = triortho_verdict(state, (("a",), ("b",), ("c",)))
    assert verdict.kind == "ambiguous"
    assert verdict.witness is not None
    assert np.linalg.norm(verdict.witness.reconstruct() - state.amplitudes) < 1e-9
    # Witness is genuinely different: some factor pair has overlap far from 1.
    worst = 1.0
    for perm in ([0, 1], [1, 0]):
        m = 0.0
        for i, j in enumerate(perm):
            for fa, fb in zip(verdict.canonical.terms[i].factors,
                              verdict.witness.terms[j].factors):
                m = max(m, 1.0 - abs(np.vdot(fa.amplitudes, fb.amplitudes)))
        worst = min(worst, m)
    assert worst > 1e-3
    # Oracle: the rotated expansion reconstructs the state too.
    plus = np.array([1, 1]) / SQ(2)
    minus = np.array([1, -1]) / SQ(2)
    e0 = np.array([1, 0])
    alt = (np.einsum("a,b,c->abc", plus, plus, e0)
           + np.einsum("a,b,c->abc", minus, minus, e0)) / SQ(2)
    assert np.linalg.norm(alt.reshape(-1) - state.amplitudes) < 1e-9


def test_triortho_w_state_has_no_decomposition():
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
    w = pl.make_state(lay, [
        (("0", "0", "1"), 1.0), (("0", "1", "0"), 1.0), (("1", "0", "0"), 1.0),
    ])
    verdict = triortho_verdict(w, (("a",), ("b",), ("c",)))
    assert verdict.kind == "no_decomposition"
    assert verdict.canonical is None and verdict.witness is None


def test_triortho_stable_under_global_phase_and_relabeling():
    psi = env_tagged_state()
    phased = pl.StateVector(psi.layout, np.exp(0.7j) * psi.amplitudes)
    assert triortho_verdict(phased, (("R",), ("A",), ("E",))).kind == "unique"
    relabeled_layout = pl.SubsystemLayout.of(
        ("R", ("X", "Y")), ("A", ("P", "Q")), ("E", ("m", "n"))
    )
    relabeled = pl.StateVector(relabeled_layout, psi.amplitudes)
    assert triortho_verdict(relabeled, (("R",), ("A",), ("E",))).kind == "unique"


def test_triortho_multi_subsystem_part():
    # Parts may span several registers; the first part here holds entangled
    # pair states as its factors.
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")),
                                ("c", ("0", "1")), ("d", ("0", "1")))
    psi = pl.make_state(lay, [
        (("0", "0", "0", "0"), SQ(1 / 3)),
        (("0", "1", "1", "1"), SQ(2 / 3) * H),
        (("1", "0", "1", "1"), SQ(2 / 3) * H),
    ])
    verdict = triortho_verdict(psi, (("a", "b"), ("c",), ("d",)))
    assert verdict.kind == "unique"
    mags = sorted(abs(t.coefficient) for t in verdict.canonical.terms)
    assert abs(mags[0] - SQ(1 / 3)) < 1e-9
    assert abs(mags[1] - SQ(2 / 3)) < 1e-9
    assert np.linalg.norm(verdict.canonical.reconstruct() - psi.amplitudes) < 1e-9


def test_triortho_perturbed_state_has_no_decomposition():
    rng = np.random.default_rng(2)
    lay = pl.SubsystemLayout.of(("x", ("0", "1")), ("y", ("0", "1")), ("z", ("0", "1")))
    base = np.zeros(8, complex)
    base[0] = SQ(1 / 3)
    base[7] = SQ(2 / 3)
    noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps = base + 0.01 * noise
    pert = pl.StateVector(lay, amps / np.linalg.norm(amps))
    assert triortho_verdict(pert, (("x",), ("y",), ("z",))).kind == "no_decomposition"


def test_triortho_witness_is_deterministic():
    lay = pl.SubsystemLayout.of(("x", ("0", "1")), ("y", ("0", "1")), ("z", ("0", "1")))
    state = pl.make_state(lay, [(("0", "0", "0"), 1.0), (("1", "1", "0"), 1.0)])
    v1 = triortho_verdict(state, (("x",), ("y",), ("z",)))
    v2 = triortho_verdict(state, (("x",), ("y",), ("z",)))
    for t1, t2 in zip(v1.witness.terms, v2.witness.terms):
        assert t1.coefficient == t2.coefficient
        for f1, f2 in zip(t1.factors, t2.factors):
            assert np.array_equal(f1.amplitudes, f2.amplitudes)


def test_triortho_search_completes_quickly():
    start = time.time()
    triortho_verdict(env_tagged_state(), (("R",), ("A",), ("E",)))
    lay = pl.SubsystemLayout.of(("a", ("0", "1", "2")), ("b", ("0", "1", "2")),
                                ("c", ("0", "1", "2")))
    three = pl.make_state(lay, [
        (("0", "0", "0"), 1.0), (("1", "1", "1"), 1.0), (("2", "2", "2"), 1.0),
    ])
    assert triortho_verdict(three, (("a",), ("b",), ("c",))).kind == "unique"
    assert time.time() - start < 10.0


# Complex amplitudes: each returned factor is the ket itself, not its
# conjugate, so every decomposition rebuilds its input.


def test_schmidt_rebuilds_random_complex_state():
    rng = np.random.default_rng(7)
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1", "2")))
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi = pl.StateVector(lay, v / np.linalg.norm(v))
    dec = schmidt(psi, (["a"], ["b"]))
    rebuilt = sum(t.coefficient * np.kron(t.left.amplitudes, t.right.amplitudes)
                  for t in dec.terms)
    assert np.linalg.norm(rebuilt - psi.amplitudes) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))
def test_schmidt_rebuilds_any_complex_state(seed, d_left, d_mid, d_right):
    rng = np.random.default_rng(seed)
    dims = (d_left, d_mid, d_right)
    lay = pl.SubsystemLayout.of(*((n, tuple(map(str, range(d)))) for n, d in zip("abc", dims)))
    v = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    psi = pl.StateVector(lay, v / np.linalg.norm(v))
    dec = schmidt(psi, (["a", "c"], ["b"]))
    rebuilt = sum(np.multiply.outer(t.coefficient * t.left.tensor_view(), t.right.tensor_view())
                  for t in dec.terms)
    assert np.linalg.norm(rebuilt.transpose(0, 2, 1).reshape(-1) - psi.amplitudes) < 1e-9


def test_triortho_complex_degenerate_state_rebuilds():
    # Equal weights over complex biorthogonal factors on a and b, with one
    # complex factor on c: ambiguous, and both decompositions rebuild it.
    lay = pl.SubsystemLayout.of(("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
    ua = np.array([[1, 1j], [1j, 1]]) / SQ(2)
    ub = np.array([[H, -H * np.exp(0.4j)], [H * np.exp(-0.4j), H]])
    c = np.array([1, 1j]) / SQ(2)
    t = sum(np.einsum("a,b,c->abc", ua[:, k], ub[:, k], c) for k in range(2)) / SQ(2)
    state = pl.StateVector(lay, t.reshape(-1))
    verdict = triortho_verdict(state, (("a",), ("b",), ("c",)))
    assert verdict.kind == "ambiguous"
    for dec in (verdict.canonical, verdict.witness):
        assert np.linalg.norm(dec.reconstruct() - state.amplitudes) < 1e-9


def test_triortho_unique_after_complex_unitary_on_environment():
    # A local unitary on E keeps the state triorthogonal, so by Elby-Bub
    # its decomposition stays unique.
    psi = env_tagged_state()
    u = np.array([[1, 1j], [1j, 1]]) / SQ(2)
    state = pl.StateVector(psi.layout,
                           np.einsum("rae,fe->raf", psi.tensor_view(), u).reshape(-1))
    verdict = triortho_verdict(state, (("R",), ("A",), ("E",)))
    assert verdict.kind == "unique"
    assert np.linalg.norm(verdict.canonical.reconstruct() - state.amplitudes) < 1e-9
