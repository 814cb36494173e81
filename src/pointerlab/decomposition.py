"""Product-form decompositions of entangled states.

Covers four related tools: rewriting a state in alternative per-subsystem
bases, Schmidt analysis of a bipartition, relative-state decompositions
(which exhibit basis ambiguity: the relative factors need not be
orthogonal), and a searched verdict on whether a tripartite product-form
decomposition is essentially unique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .errors import BasisCoverageError, InvalidPartitionError
from .hilbert import ATOL, PRUNE_PROB, StateVector, SubsystemLayout
from .measurement import Basis

# Reconstruction residual below which a candidate decomposition "exists".
SEARCH_TOL = 1e-6
# A candidate whose factor-set distance from every trivial relabeling of the
# canonical decomposition exceeds this counts as a genuine alternative.
DISTINCT_TOL = 1e-3
_SEED = 902140


@dataclass(frozen=True, eq=False)
class Term:
    """One product component: coefficient times a factor per partition part."""

    coefficient: complex
    factors: tuple[StateVector, ...]
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Sum of product terms over a declared partition of the layout."""

    layout: SubsystemLayout
    parts: tuple[tuple[str, ...], ...]
    terms: tuple[Term, ...]

    def reconstruct(self) -> np.ndarray:
        """Amplitude vector (over the source layout) of the term sum."""
        names = [n for part in self.parts for n in part]
        axes = [self.layout.axis(n) for n in names]
        dims = [self.layout.subsystem(n).dimension for n in names]
        total = np.zeros(self.layout.dims, dtype=np.complex128)
        for term in self.terms:
            flat = term.coefficient * reduce(
                np.kron, [f.amplitudes for f in term.factors]
            )
            total += flat.reshape(dims).transpose(np.argsort(axes))
        return total.reshape(-1)

    def residual(self, state: StateVector) -> float:
        return float(np.linalg.norm(self.reconstruct() - state.amplitudes))

    def coefficient(self, labels: Sequence[str]) -> complex:
        """Coefficient of the term with the given factor labels; exact 0 if
        the component was pruned."""
        labels = tuple(labels)
        for term in self.terms:
            if term.labels == labels:
                return term.coefficient
        return 0.0 + 0.0j


def rewrite(state: StateVector, per_subsystem_bases: Mapping[str, Basis]) -> Decomposition:
    """Expand the state in the given complete per-subsystem bases.

    Subsystems without an entry keep their computational basis.  Components
    with probability below 1e-12 are omitted.
    """
    layout = state.layout
    bases: list[Basis] = []
    for sub in layout.subsystems:
        basis = per_subsystem_bases.get(sub.name)
        if basis is None:
            basis = Basis.computational(layout, sub.name)
        elif basis.size != sub.dimension:
            raise BasisCoverageError(
                f"rewrite basis for {sub.name!r} has {basis.size} vectors, "
                f"needs {sub.dimension}"
            )
        bases.append(basis)
    t = state.tensor_view()
    for axis, basis in enumerate(bases):
        t = np.moveaxis(np.tensordot(t, np.conj(basis.matrix), axes=([axis], [1])), -1, axis)
    terms = []
    for idx in np.ndindex(*t.shape):
        c = complex(t[idx])
        if abs(c) ** 2 < PRUNE_PROB:
            continue
        factors = tuple(basis.vectors[k] for basis, k in zip(bases, idx))
        labels = tuple(basis.labels[k] for basis, k in zip(bases, idx))
        terms.append(Term(c, factors, labels))
    parts = tuple((sub.name,) for sub in layout.subsystems)
    dec = Decomposition(layout, parts, tuple(terms))
    if dec.residual(state) > ATOL:
        raise BasisCoverageError("rewrite failed to reconstruct the state")
    return dec


@dataclass(frozen=True, eq=False)
class SchmidtTerm:
    coefficient: float
    left: StateVector
    right: StateVector


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal expansion across a bipartition, coefficients descending.

    ``degenerate`` flags repeated coefficients, in which case the
    biorthogonal factor pairs are not unique.
    """

    terms: tuple[SchmidtTerm, ...]
    degenerate: bool

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(t.coefficient for t in self.terms)


def _check_partition(layout: SubsystemLayout, parts: Sequence[Sequence[str]]) -> None:
    seen: list[str] = []
    for part in parts:
        if not part:
            raise InvalidPartitionError("empty partition part")
        seen.extend(part)
    if sorted(seen) != sorted(layout.names):
        raise InvalidPartitionError(
            f"partition {tuple(tuple(p) for p in parts)} does not cover layout {layout.names}"
        )


def _matricize(state: StateVector, left: Sequence[str], right: Sequence[str]) -> np.ndarray:
    layout = state.layout
    axes = [layout.axis(n) for n in list(left) + list(right)]
    t = state.tensor_view().transpose(axes)
    d_left = int(np.prod([layout.subsystem(n).dimension for n in left]))
    return t.reshape(d_left, -1)


def schmidt(
    state: StateVector, bipartition: tuple[Sequence[str], Sequence[str]]
) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition (via SVD)."""
    left, right = bipartition
    _check_partition(state.layout, [left, right])
    mat = _matricize(state, left, right)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    left_layout = state.layout.sublayout(left)
    right_layout = state.layout.sublayout(right)
    terms = []
    for k, sigma in enumerate(s):
        if sigma**2 < PRUNE_PROB:
            continue
        terms.append(
            SchmidtTerm(
                float(sigma),
                StateVector(left_layout, u[:, k]),
                StateVector(right_layout, vh[k, :]),
            )
        )
    coeffs = [t.coefficient for t in terms]
    degenerate = any(abs(a - b) <= ATOL for a, b in zip(coeffs, coeffs[1:]))
    return SchmidtDecomposition(tuple(terms), degenerate)


def relative_states(state: StateVector, subsystem: str, basis: Basis) -> Decomposition:
    """Decompose against an orthonormal basis of one subsystem.

    For each basis vector the coefficient is the norm of the partial inner
    product and the relative factor is that component normalized.  The
    relative factors need NOT be orthogonal; that failure is exactly what
    makes a bare record state ambiguous about the rest of the system.
    """
    layout = state.layout
    axis = layout.axis(subsystem)
    rest = [n for n in layout.names if n != subsystem]
    if not rest:
        raise InvalidPartitionError("relative states need at least two subsystems")
    rest_layout = layout.sublayout(rest)
    terms = []
    t = state.tensor_view()
    for label, vec in zip(basis.labels, basis.vectors):
        component = np.tensordot(np.conj(vec.amplitudes), t, axes=([0], [axis]))
        d = float(np.linalg.norm(component))
        if d**2 < PRUNE_PROB:
            continue
        factor = StateVector(rest_layout, component.reshape(-1) / d)
        terms.append(Term(complex(d), (factor, vec), (None, label)))
    parts = (tuple(rest), (subsystem,))
    dec = Decomposition(layout, parts, tuple(terms))
    if dec.residual(state) > ATOL:
        raise BasisCoverageError("relative-state expansion failed to reconstruct")
    return dec


# --------------------------------------------------------------------------
# Triorthogonal uniqueness
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniquenessVerdict:
    """Outcome of the tripartite-decomposition search.

    kind is one of "unique", "ambiguous", "no_decomposition".  ``canonical``
    is the decomposition found first (absent only for no_decomposition);
    ``witness`` is a genuinely different decomposition, present iff
    ambiguous.
    """

    kind: str
    canonical: Decomposition | None = None
    witness: Decomposition | None = None


def _phase_fix(v: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rotate the largest-magnitude entry to the positive real axis; returns
    (fixed vector, the phase removed)."""
    k = int(np.argmax(np.abs(v)))
    a = v[k]
    if abs(a) == 0.0:
        return v, 1.0 + 0.0j
    phase = a / abs(a)
    return v / phase, phase


def _part_tensor(state: StateVector, parts: Sequence[Sequence[str]]) -> tuple[np.ndarray, list[int]]:
    layout = state.layout
    axes = [layout.axis(n) for part in parts for n in part]
    dims = []
    for part in parts:
        dims.append(int(np.prod([layout.subsystem(n).dimension for n in part])))
    t = state.tensor_view().transpose(axes).reshape(dims)
    return t, dims


def _try_anchor_basis(
    state: StateVector,
    parts: tuple[tuple[str, ...], ...],
    anchor: int,
    rows: np.ndarray,
    t3: np.ndarray,
) -> Decomposition | None:
    """Build the decomposition induced by an orthonormal anchor basis, or
    None when some relative state is not a product.

    The squared reconstruction residual is exactly the sum of squared
    truncation errors of the rank-1 fits, so the acceptance check is an
    honest residual bound.
    """
    other = [i for i in range(3) if i != anchor]
    layout = state.layout
    sub_layouts = [layout.sublayout(p) for p in parts]
    residual_sq = 0.0
    raw_terms = []
    for v in rows:
        rel = np.tensordot(np.conj(v), t3, axes=([0], [anchor]))
        d_sq = float(np.linalg.norm(rel) ** 2)
        if d_sq < PRUNE_PROB:
            residual_sq += d_sq
            continue
        u, s, vh = np.linalg.svd(rel)
        tail = float(np.sum(s[1:] ** 2))
        residual_sq += tail
        if residual_sq > SEARCH_TOL**2:
            return None
        raw_terms.append((v, s[0], u[:, 0], vh[0, :]))
    if residual_sq > SEARCH_TOL**2 or not raw_terms:
        return None
    terms = []
    for v, sigma, b, c in raw_terms:
        va, pa = _phase_fix(v)
        vb, pb = _phase_fix(b)
        vc, pc = _phase_fix(c)
        coeff = complex(sigma * pa * pb * pc)
        factors: list[StateVector] = [None, None, None]  # type: ignore[list-item]
        factors[anchor] = StateVector(sub_layouts[anchor], va)
        factors[other[0]] = StateVector(sub_layouts[other[0]], vb)
        factors[other[1]] = StateVector(sub_layouts[other[1]], vc)
        terms.append(Term(coeff, tuple(factors)))
    terms.sort(key=lambda tm: -abs(tm.coefficient))
    return Decomposition(layout, parts, tuple(terms))


def _factor_distance(a: Decomposition, b: Decomposition) -> float:
    """Distance of b from the nearest trivial relabeling of a.

    0 means "same up to per-term phases and a permutation"; the returned
    value is min over permutations of the worst factor mismatch, with
    coefficient-magnitude mismatches folded in.
    """
    if len(a.terms) != len(b.terms):
        return 1.0
    n = len(a.terms)
    best = 1.0
    for perm in itertools.permutations(range(n)):
        worst = 0.0
        for i, j in enumerate(perm):
            ta, tb = a.terms[i], b.terms[j]
            worst = max(worst, abs(abs(ta.coefficient) - abs(tb.coefficient)))
            for fa, fb in zip(ta.factors, tb.factors):
                ov = abs(np.vdot(fa.amplitudes, fb.amplitudes))
                worst = max(worst, 1.0 - ov)
            if worst >= best:
                break
        best = min(best, worst)
        if best == 0.0:
            break
    return best


def _support_frame(t3: np.ndarray, anchor: int) -> np.ndarray:
    """Orthonormal rows spanning the anchor's reduced support, with
    deterministic phases, descending weight."""
    mat = np.moveaxis(t3, anchor, 0).reshape(t3.shape[anchor], -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    cols = [k for k in range(len(s)) if s[k] ** 2 >= PRUNE_PROB]
    rows = []
    for k in cols:
        fixed, _ = _phase_fix(u[:, k])
        rows.append(fixed)
    return np.stack(rows)


def _eigen_candidate(t3: np.ndarray, anchor: int) -> np.ndarray:
    """Reduced-density eigenbasis of the anchor part, with degeneracies
    resolved by probe operators weighted on the other parts (so e.g. equal
    branch weights still pick out the branch basis)."""
    mat = np.moveaxis(t3, anchor, 0).reshape(t3.shape[anchor], -1)
    rho = mat @ mat.conj().T
    vals, vecs = np.linalg.eigh(rho)
    order = np.argsort(-vals)
    vals, vecs = vals[order], vecs[:, order]
    keep = vals >= PRUNE_PROB
    vals, vecs = vals[keep], vecs[:, keep]

    other = [i for i in range(3) if i != anchor]

    def probe(part: int) -> np.ndarray:
        w = np.arange(1, t3.shape[part] + 1, dtype=np.float64)
        m = np.moveaxis(t3, (anchor, part), (0, 1))
        m = m.reshape(m.shape[0], m.shape[1], -1)
        return np.einsum("abr,b,cbr->ac", m, w, np.conj(m))

    def refine(groups: list[list[int]], k_op: np.ndarray) -> list[list[int]]:
        out: list[list[int]] = []
        for g in groups:
            if len(g) == 1:
                out.append(g)
                continue
            block = vecs[:, g]
            sub = block.conj().T @ k_op @ block
            sub = (sub + sub.conj().T) / 2
            bvals, bvecs = np.linalg.eigh(sub)
            order = np.argsort(-bvals)
            bvals, bvecs = bvals[order], bvecs[:, order]
            vecs[:, g] = block @ bvecs
            start = 0
            for t in range(1, len(g) + 1):
                if t == len(g) or abs(bvals[t] - bvals[start]) > 1e-8:
                    out.append(g[start:t])
                    start = t
        return out

    groups: list[list[int]] = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) < 1e-8:
            j += 1
        groups.append(list(range(i, j + 1)))
        i = j + 1
    # Probe the outermost other part first, then the middle one, splitting
    # resolved ties so later probes never undo earlier refinements.
    groups = refine(groups, probe(other[1]))
    refine(groups, probe(other[0]))
    rows = []
    for k in range(vecs.shape[1]):
        fixed, _ = _phase_fix(vecs[:, k])
        rows.append(fixed)
    return np.stack(rows)


def _rotate_pair(frame: np.ndarray, i: int, j: int, theta: float, phi: float) -> np.ndarray:
    out = frame.copy()
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    out[i] = c * frame[i] + s * e * frame[j]
    out[j] = -s * np.conj(e) * frame[i] + c * frame[j]
    return out


def _candidate_bases(t3: np.ndarray, anchor: int, rng: np.random.Generator,
                     restarts: int):
    """Deterministic stream of orthonormal anchor bases: the refined
    eigenbasis, a rotation grid over support-frame pairs, then seeded Haar
    restarts."""
    yield _eigen_candidate(t3, anchor)
    frame = _support_frame(t3, anchor)
    k = frame.shape[0]
    if k >= 2:
        thetas = np.linspace(0.0, np.pi / 2, 13)
        phis = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        for i, j in itertools.combinations(range(k), 2):
            for theta in thetas:
                for phi in phis:
                    yield _rotate_pair(frame, i, j, float(theta), float(phi))
        for _ in range(restarts):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            yield q.conj().T @ frame


def triortho_verdict(
    state: StateVector,
    tripartition: tuple[Sequence[str], Sequence[str], Sequence[str]],
    restarts: int = 1000,
) -> UniquenessVerdict:
    """Search verdict on tripartite product decompositions.

    A candidate decomposition is induced by an orthonormal basis of one
    part's reduced support whose relative states on the other two parts are
    all products; the search sweeps such bases for each of the three parts
    in turn (a deterministic grid plus seeded random restarts).  Collinear
    factor sets in the *other* parts arise naturally this way, which is how
    the classic ambiguous case (a biorthogonal pair times a fixed third
    factor) gets its witness.

    Verdicts: no basis works for any part -> "no_decomposition"; some basis
    works and every other working basis differs only trivially (per-term
    phases and a permutation) -> "unique"; otherwise "ambiguous" with the
    first genuinely different decomposition as witness.
    """
    parts = tuple(tuple(p) for p in tripartition)
    if len(parts) != 3:
        raise InvalidPartitionError("tripartition must have exactly three parts")
    _check_partition(state.layout, parts)
    t3, _ = _part_tensor(state, parts)

    canonical: Decomposition | None = None
    for anchor in range(3):
        rng = np.random.default_rng(_SEED + anchor)
        for rows in _candidate_bases(t3, anchor, rng, restarts):
            dec = _try_anchor_basis(state, parts, anchor, rows, t3)
            if dec is not None:
                canonical = dec
                break
        if canonical is not None:
            break
    if canonical is None:
        return UniquenessVerdict("no_decomposition")

    for anchor in range(3):
        rng = np.random.default_rng(_SEED + anchor)
        for rows in _candidate_bases(t3, anchor, rng, restarts):
            dec = _try_anchor_basis(state, parts, anchor, rows, t3)
            if dec is None:
                continue
            if _factor_distance(canonical, dec) > DISTINCT_TOL:
                return UniquenessVerdict("ambiguous", canonical, dec)
    return UniquenessVerdict("unique", canonical)
