"""Basis rewrites, relative states, tripartite uniqueness."""

import math
import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointerlab as pl
from pointerlab.decomposition import relative_states, rewrite, triortho_verdict
from pointerlab.errors import BasisCoverageError, InvalidPartitionError, PointerLabError
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


def tiny_tail_state(amplitude):
    return pl.make_state(coin_spin(), [(("head", "up"), 1.0), (("tail", "down"), amplitude)])


def test_rewrite_keeps_a_tiny_component_the_rebuild_needs():
    # |c|^2 = 1e-14 is below the pruning probability, but dropping it would
    # miss the state by 1e-7.
    s = tiny_tail_state(1e-7)
    dec = rewrite(s, {})
    assert [t.labels for t in dec.terms] == [("head", "up"), ("tail", "down")]
    assert abs(dec.coefficient(("tail", "down")) - s.amplitude(("tail", "down"))) < 1e-15
    assert rewrite(tiny_tail_state(1e-10), {}).coefficient(("tail", "down")) == 0


def test_relative_states_keep_a_tiny_component_the_rebuild_needs():
    s = tiny_tail_state(1e-7)
    dec = relative_states(s, "R", Basis.computational(s.layout, "R"))
    assert [t.labels[1] for t in dec.terms] == ["head", "tail"]
    assert abs(dec.terms[1].coefficient - 1e-7) < 1e-15
    dec = relative_states(tiny_tail_state(1e-10), "R", Basis.computational(s.layout, "R"))
    assert [t.labels[1] for t in dec.terms] == ["head"]


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(2, 3), min_size=2, max_size=4))
def test_rewrite_matches_plain_tensor_contraction(seed, dims):
    rng = np.random.default_rng(seed)
    lay = pl.SubsystemLayout.of(*((f"r{i}", tuple(map(str, range(d))))
                                  for i, d in enumerate(dims)))
    v = rng.standard_normal(lay.dimension) + 1j * rng.standard_normal(lay.dimension)
    v[rng.random(lay.dimension) < 0.3] = 0.0  # some exact zeros to prune
    v[0] += 1.0
    psi = pl.StateVector(lay, v / np.linalg.norm(v))
    rotated = [i for i in range(len(dims)) if rng.random() < 0.5]
    matrices = [random_unitary(rng, d) if i in rotated else np.eye(d)
                for i, d in enumerate(dims)]
    bases = {
        f"r{i}": Basis(tuple(f"u{k}" for k in range(dims[i])),
                       tuple(pl.StateVector(lay.sublayout([f"r{i}"]), row)
                             for row in matrices[i]))
        for i in rotated
    }
    dec = rewrite(psi, bases)
    expected = reduce(np.kron, [np.conj(m) for m in matrices]) @ psi.amplitudes
    expected = expected.reshape(dims)
    indices = [tuple(int(lab[-1]) for lab in t.labels) for t in dec.terms]
    assert indices == sorted(indices)
    for idx, term in zip(indices, dec.terms):
        assert abs(term.coefficient - expected[idx]) < 1e-9
    omitted = np.ones(dims, dtype=bool)
    omitted[tuple(np.array(indices).T)] = False
    assert np.sum(np.abs(expected[omitted]) ** 2) <= 1e-18
    assert np.linalg.norm(dec.reconstruct() - psi.amplitudes) < 1e-9


def eq17_state():
    lay = pl.SubsystemLayout.of(("R", ("head", "tail")), ("A", ("A1", "A2")))
    return pl.make_state(lay, [(("head", "A1"), SQ(1 / 3)), (("tail", "A2"), SQ(2 / 3))])


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
    # directly, independent of the verdict machinery.
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


@pytest.mark.parametrize("parts", [
    (("a",), ("a",), ("b", "c", "d")),
    (("a",), ("b",), ("c",)),
    (("a", "b"), ("c", "d"), ()),
], ids=["repeats-a-register", "misses-a-register", "empty-part"])
def test_triortho_invalid_partition(parts):
    lay = pl.SubsystemLayout.of(*((n, ("0", "1")) for n in "abcd"))
    ghz = pl.make_state(lay, [(("0",) * 4, H), (("1",) * 4, H)])
    with pytest.raises(InvalidPartitionError):
        triortho_verdict(ghz, parts)


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


def test_triortho_verdicts_complete_quickly():
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


# Verdicts by construction.  A state sum_i w_i a_i (x) b_i (x) c_i over three
# registers of dimension d each, its factors given as matrix columns.


def tri_state(a, b, c, weights):
    t = np.einsum("i,ai,bi,ci->abc", np.asarray(weights, dtype=complex), a, b, c)
    d = t.shape
    lay = pl.SubsystemLayout.of(*((n, tuple(map(str, range(k)))) for n, k in zip("abc", d)))
    return pl.StateVector(lay, t.reshape(-1) / np.linalg.norm(t))


def rebuilds(verdict, state):
    decs = [d for d in (verdict.canonical, verdict.witness) if d is not None]
    return all(np.linalg.norm(d.reconstruct() - state.amplitudes) < 1e-9 for d in decs)


ABC = (("a",), ("b",), ("c",))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_triortho_finds_orthonormal_anchor_with_generic_partners(kind):
    # Orthonormal a_i with generic b_i, c_i on 3x3x3: unique by Kruskal's
    # condition (k-ranks 3 + 3 + 3 >= 2 * 3 + 2).  The anchor basis is
    # generic, so no grid of pair rotations or random restarts hits it.
    rng = np.random.default_rng(3711)
    a = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    bc = [rng.standard_normal((3, 3)) for _ in range(2)]
    if kind == "complex":
        a = random_unitary(rng, 3)
        bc = [m + 1j * rng.standard_normal((3, 3)) for m in bc]
    b, c = (m / np.linalg.norm(m, axis=0) for m in bc)
    state = tri_state(a, b, c, [0.5, 0.7, 0.9])
    verdict = triortho_verdict(state, ABC)
    assert verdict.kind == "unique"
    assert rebuilds(verdict, state)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_triorthogonal_states_are_unique_under_local_unitaries(seed, d):
    # Elby-Bub: orthonormal factors on all three parts fix the decomposition,
    # whatever the weights, degenerate or not.
    rng = np.random.default_rng(seed)
    u = [random_unitary(rng, d) for _ in range(3)]
    weights = rng.choice([1.0, rng.uniform(0.2, 1.0)], size=d)
    state = tri_state(*u, weights)
    verdict = triortho_verdict(state, ABC)
    assert verdict.kind == "unique"
    assert verdict.witness is None
    assert rebuilds(verdict, state)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_shared_third_factor_is_ambiguous(seed, d):
    # Two terms with one third factor: any orthonormal basis of their anchor
    # span gives product relative states.
    rng = np.random.default_rng(seed)
    a, b, c = (random_unitary(rng, d) for _ in range(3))
    c[:, 1] = c[:, 0]
    state = tri_state(a, b, c, rng.uniform(0.3, 1.0, size=d))
    verdict = triortho_verdict(state, ABC)
    assert verdict.kind == "ambiguous"
    assert rebuilds(verdict, state)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_generic_states_have_no_decomposition(seed, d):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    lay = pl.SubsystemLayout.of(*((n, tuple(map(str, range(d)))) for n in "abc"))
    state = pl.StateVector(lay, t.reshape(-1) / np.linalg.norm(t))
    assert triortho_verdict(state, ABC).kind == "no_decomposition"


def test_triortho_singular_pencil_has_no_decomposition():
    # Ranks (3, 3, 2), but every contraction of the third part is singular
    # (row 1 and row 2 share one column), which no decomposition allows.
    t = np.zeros((3, 3, 2))
    t[0, 0, 0] = t[0, 1, 1] = t[1, 2, 0] = t[2, 2, 1] = 0.5
    lay = pl.SubsystemLayout.of(*((n, tuple(map(str, range(k)))) for n, k in zip("abc", t.shape)))
    verdict = triortho_verdict(pl.StateVector(lay, t.reshape(-1)), ABC)
    assert verdict.kind == "no_decomposition"


def test_triortho_single_top_rank_part_raises():
    # 3x2x2 with reduced ranks (3, 2, 2): no second part to diagonalise
    # against, so the verdict is refused rather than guessed.
    e2, e3 = np.eye(2), np.eye(3)
    plus = np.array([1.0, 1.0]) / SQ(2)
    b = np.column_stack([e2[0], e2[1], plus])
    state = tri_state(e3, b, b.copy(), [1.0, 1.0, 1.0])
    with pytest.raises(PointerLabError, match=r"part 1 \(a\) .*ranks 3, 2, 2"):
        triortho_verdict(state, ABC)
