"""Pre-measurement unitaries, environment couplings, Born statistics,
outcome conditioning and pointer-state reduction.

A measurement here is a unitary that correlates a target register with an
apparatus register: ready |a0> goes to the record |a_i> on the branch where
the target holds basis vector |s_i>, and the target is left untouched.  The
same construction, with a multi-register target, implements the one-shot
environment couplings used for decoherence arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ApparatusNotReadyError,
    BasisCoverageError,
    ImpossibleOutcomeError,
    IncompleteBranchingError,
    LayoutConflictError,
    LayoutMismatchError,
    NonOrthonormalBasisError,
    UnknownLabelError,
)
from .hilbert import (
    ATOL,
    PRUNE_PROB,
    LinearOperator,
    StateVector,
    Subsystem,
    SubsystemLayout,
    basis_state,
    density,
    gram_defect,
    partial_trace,
)
from .hilbert import DensityOperator


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered, labeled, pairwise-orthonormal vectors over one (sub)layout."""

    labels: tuple[str, ...]
    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if len(self.labels) != len(self.vectors) or not self.vectors:
            raise NonOrthonormalBasisError("basis needs one label per vector")
        if len(set(self.labels)) != len(self.labels):
            raise NonOrthonormalBasisError("basis labels must be distinct")
        layout = self.vectors[0].layout
        for v in self.vectors:
            if v.layout != layout:
                raise LayoutMismatchError("basis vectors live over different layouts")
        defect = gram_defect(self.matrix)
        if defect is not None:
            i, j, g = defect
            raise NonOrthonormalBasisError(f"basis not orthonormal: Gram[{i},{j}] = {g:.6g}")

    @property
    def layout(self) -> SubsystemLayout:
        return self.vectors[0].layout

    @property
    def matrix(self) -> np.ndarray:
        """Rows are the basis vectors' amplitudes, shape (k, d)."""
        return np.stack([v.amplitudes for v in self.vectors])

    @property
    def size(self) -> int:
        return len(self.vectors)

    @classmethod
    def computational(cls, layout: SubsystemLayout, name: str,
                      labels: Sequence[str] | None = None) -> "Basis":
        """Computational basis of one subsystem, optionally restricted to a
        subset of its labels."""
        sub = layout.subsystem(name)
        chosen = tuple(labels) if labels is not None else sub.labels
        sub_layout = layout.sublayout([name])
        vectors = tuple(basis_state(sub_layout, (lab,)) for lab in chosen)
        return cls(chosen, vectors)


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """Target register, measurement basis, and apparatus record bookkeeping.

    Basis vectors are required orthonormal (a merely linearly independent
    record set would not define Born weights); the apparatus must have room
    for the ready state plus one record per basis vector.
    """

    target: str
    basis: Basis
    apparatus: str
    ready_label: str
    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcome_labels", tuple(self.outcome_labels))
        if len(self.outcome_labels) != self.basis.size:
            raise NonOrthonormalBasisError(
                "need exactly one outcome label per basis vector"
            )
        if len(set(self.outcome_labels)) != len(self.outcome_labels):
            raise NonOrthonormalBasisError("outcome labels must be distinct")

    def record_to_outcome(self) -> dict[str, str]:
        return dict(zip(self.outcome_labels, self.basis.labels))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born weights over joint outcome label tuples.

    Probabilities must sum to 1 within 1e-9; values in [-1e-12, 0) are
    clamped to exactly 0.
    """

    entries: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for labels, p in self.entries:
            if p < -PRUNE_PROB:
                raise BasisCoverageError(f"negative probability {p} for {labels}")
            p = max(p, 0.0)
            total += p
            cleaned.append((tuple(labels), float(p)))
        if abs(total - 1.0) > ATOL:
            raise BasisCoverageError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", tuple(cleaned))

    def probability(self, labels: Sequence[str] | str) -> float:
        if isinstance(labels, str):
            labels = (labels,)
        labels = tuple(labels)
        for key, p in self.entries:
            if key == labels:
                return p
        raise UnknownLabelError(f"no outcome {labels!r} in distribution")

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return {k: p for k, p in self.entries}


def _axes_of(layout: SubsystemLayout, names: Sequence[str]) -> list[int]:
    return [layout.axis(n) for n in names]


def _flat_permutation(layout: SubsystemLayout, order: Sequence[int]) -> np.ndarray:
    """flat-index permutation realizing an axis transpose."""
    idx = np.arange(layout.dimension).reshape(layout.dims)
    return idx.transpose(order).reshape(-1)


def _correlating_small(
    layout: SubsystemLayout,
    targets: Sequence[str],
    vectors: Sequence[StateVector],
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> tuple[np.ndarray, list[int], int]:
    """The correlating unitary on (targets x apparatus) only; returns the
    matrix together with the target axes (sorted) and the apparatus axis.

    Sends |s_i>|ready> to |s_i>|record_i|, keeps unmeasured target directions
    in the ready sector, and completes the leftover (non-ready) sector
    deterministically: free input columns are assigned, in ascending
    flat-index order, to the orthonormal complement of the used image
    directions, itself built by Gram-Schmidt over canonical vectors in
    ascending index order.  The completion never touches physical branches;
    it only makes the matrix a genuine unitary, reproducibly.
    """
    target_axes = sorted(_axes_of(layout, targets))
    target_names = [layout.subsystems[i].name for i in target_axes]
    sub_layout = layout.sublayout(target_names)
    app = layout.subsystem(apparatus)
    if apparatus in target_names:
        raise LayoutConflictError("apparatus cannot be part of the measured target")
    ready_idx = app.index_of(ready_label)
    record_idx = [app.index_of(r) for r in record_labels]
    if len(record_idx) != len(vectors):
        raise NonOrthonormalBasisError("one record label per branch vector required")
    extra = 0 if ready_label in record_labels else 1
    if app.dimension < len(vectors) + extra:
        raise LayoutConflictError(
            f"apparatus {apparatus!r} needs at least {len(vectors) + extra} levels"
        )

    d_t = sub_layout.dimension
    d_a = app.dimension
    for v in vectors:
        if v.layout != sub_layout:
            raise LayoutMismatchError(
                f"branch vector layout {v.layout.names} != target layout {sub_layout.names}"
            )
    vmat = np.stack([v.amplitudes for v in vectors])  # (k, d_t)
    if gram_defect(vmat) is not None:
        raise NonOrthonormalBasisError("measurement basis vectors are not orthonormal")

    dim = d_t * d_a
    small = np.zeros((dim, dim), dtype=np.complex128)
    proj_span = vmat.T @ vmat.conj()  # sum_i |s_i><s_i| on the target
    e_ready = np.zeros(d_a, dtype=np.complex128)
    e_ready[ready_idx] = 1.0
    for v, rec in zip(vmat, record_idx):
        e_rec = np.zeros(d_a, dtype=np.complex128)
        e_rec[rec] = 1.0
        small += np.kron(np.outer(v, v.conj()), np.outer(e_rec, e_ready.conj()))
    # Unmeasured target directions keep the apparatus ready.
    small += np.kron(np.eye(d_t) - proj_span, np.outer(e_ready, e_ready.conj()))

    # Deterministic completion of the non-ready sector.
    assigned = np.abs(small).sum(axis=0) > 1e-12  # columns already defined
    used_images: list[np.ndarray] = [small[:, j] for j in range(dim) if assigned[j]]
    complement: list[np.ndarray] = []
    needed = int(dim - np.count_nonzero(assigned))
    for j in range(dim):
        if len(complement) == needed:
            break
        cand = np.zeros(dim, dtype=np.complex128)
        cand[j] = 1.0
        for u in used_images:
            cand -= u * np.vdot(u, cand)
        for u in complement:
            cand -= u * np.vdot(u, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            complement.append(cand / nrm)
    k = 0
    for j in range(dim):
        if not assigned[j]:
            small[:, j] = complement[k]
            k += 1
    if np.max(np.abs(small.conj().T @ small - np.eye(dim))) > ATOL:
        raise LayoutConflictError("constructed correlating operator is not unitary")
    return small, target_axes, layout.axis(apparatus)


def correlating_unitary(
    layout: SubsystemLayout,
    targets: Sequence[str],
    vectors: Sequence[StateVector],
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> LinearOperator:
    """Full-layout correlating unitary (identity on uninvolved registers).

    See `_correlating_small` for the construction; this embeds it into the
    whole layout, which is handy for inspection but quadratically larger
    than applying the small block directly.
    """
    small, target_axes, app_axis = _correlating_small(
        layout, targets, vectors, apparatus, ready_label, record_labels
    )
    n = len(layout.subsystems)
    front = target_axes + [app_axis]
    order = front + [i for i in range(n) if i not in front]
    perm = _flat_permutation(layout, order)
    rest_dim = layout.dimension // small.shape[0]
    big = np.kron(small, np.eye(rest_dim, dtype=np.complex128))
    full = np.zeros_like(big)
    full[perm[:, None], perm[None, :]] = big
    return LinearOperator(layout, layout, full, kind="unitary")


def _apply_correlating(
    state: StateVector,
    small: np.ndarray,
    target_axes: Sequence[int],
    app_axis: int,
) -> StateVector:
    """Apply the (targets x apparatus) block in place of the embedded full
    matrix; exact, just cheaper."""
    layout = state.layout
    n = len(layout.subsystems)
    front = list(target_axes) + [app_axis]
    order = front + [i for i in range(n) if i not in front]
    t = state.tensor_view().transpose(order)
    shape = t.shape
    mat = t.reshape(small.shape[0], -1)
    out = (small @ mat).reshape(shape)
    inverse = np.argsort(order)
    return StateVector(layout, out.transpose(inverse).reshape(-1),
                       input_norm=state.input_norm)


def _apparatus_ready_weight(state: StateVector, apparatus: str, ready_label: str) -> float:
    layout = state.layout
    axis = layout.axis(apparatus)
    ridx = layout.subsystem(apparatus).index_of(ready_label)
    t = state.tensor_view()
    probs = np.abs(np.moveaxis(t, axis, 0).reshape(layout.subsystem(apparatus).dimension, -1)) ** 2
    return float(probs[ridx].sum())


def premeasure(state: StateVector, spec: MeasurementSpec) -> StateVector:
    """Correlate the target with the apparatus: c1|s1> + c2|s2> with a ready
    apparatus becomes c1|s1>|a1> + c2|s2>|a2>."""
    if _apparatus_ready_weight(state, spec.apparatus, spec.ready_label) < 1.0 - ATOL:
        raise ApparatusNotReadyError(
            f"apparatus {spec.apparatus!r} is not in its ready state {spec.ready_label!r}"
        )
    small, target_axes, app_axis = _correlating_small(
        state.layout, [spec.target], spec.basis.vectors,
        spec.apparatus, spec.ready_label, spec.outcome_labels,
    )
    return _apply_correlating(state, small, target_axes, app_axis)


def environment_couple(
    state: StateVector,
    branches: Sequence[StateVector],
    environment: str,
    env_labels: Sequence[str],
    ready_label: str | None = None,
) -> StateVector:
    """One-shot coupling: branch k of the named subset gets tagged with the
    environment record env_labels[k].

    Branches must be orthonormal and must span the state's support on their
    subsystems; anything left over raises IncompleteBranchingError.
    """
    layout = state.layout
    env = layout.subsystem(environment)
    if ready_label is None:
        leftovers = [l for l in env.labels if l not in set(env_labels)]
        if len(leftovers) != 1:
            raise UnknownLabelError(
                f"cannot infer ready label of {environment!r}; pass ready_label"
            )
        ready_label = leftovers[0]
    if not branches:
        raise IncompleteBranchingError("at least one branch is required")
    target_names = [n for n in branches[0].layout.names]
    if _apparatus_ready_weight(state, environment, ready_label) < 1.0 - ATOL:
        raise ApparatusNotReadyError(
            f"environment {environment!r} is not in its ready state {ready_label!r}"
        )

    # Span check: the state must lie inside span{branches} on the subset.
    sub_layout = layout.sublayout(sorted(target_names, key=layout.axis))
    vmat = np.stack([b.amplitudes for b in branches])
    if gram_defect(vmat) is not None:
        raise NonOrthonormalBasisError("branch vectors are not orthonormal")
    axes = sorted(_axes_of(layout, target_names))
    n = len(layout.subsystems)
    order = axes + [i for i in range(n) if i not in axes]
    t = state.tensor_view().transpose(order).reshape(sub_layout.dimension, -1)
    residual = t - vmat.T @ (vmat.conj() @ t)
    leak = float(np.linalg.norm(residual))
    if leak > ATOL:
        raise IncompleteBranchingError(
            f"branches miss state support (residual norm {leak:.3g})"
        )

    small, target_axes, app_axis = _correlating_small(
        layout, target_names, branches, environment, ready_label, env_labels
    )
    return _apply_correlating(state, small, target_axes, app_axis)


def attach_environment(
    state: StateVector, name: str, n_branches: int, label_prefix: str = "eps"
) -> tuple[StateVector, tuple[str, ...]]:
    """Tensor on a minimal ready environment register (one ready level plus
    one record level per branch); returns the new state and record labels."""
    labels = tuple(f"{label_prefix}{i}" for i in range(n_branches + 1))
    env_layout = SubsystemLayout((Subsystem(name, labels),))
    env_state = basis_state(env_layout, (labels[0],))
    from .hilbert import tensor

    return tensor(state, env_state), labels[1:]


def born(
    state: StateVector,
    targets: Sequence[tuple[str, Basis | None]],
) -> OutcomeDistribution:
    """Joint Born distribution over the given subsystems and bases.

    ``None`` means the subsystem's computational basis.  Entries come out
    sorted lexicographically by outcome labels, with tuples ordered the way
    the targets were given.  If the measured bases miss part of the state's
    support the probabilities cannot sum to one and a BasisCoverageError is
    raised.

    Examples
    --------
    >>> from pointerlab import SubsystemLayout, born, make_state
    >>> lay = SubsystemLayout.of(("R", ("head", "tail")))
    >>> s = make_state(lay, [(("head",), 0.6), (("tail",), 0.8)])
    >>> born(s, [("R", None)]).entries
    ((('head',), 0.36), (('tail',), 0.6400000000000001))
    """
    layout = state.layout
    resolved: list[tuple[int, Basis]] = []
    for name, basis in targets:
        if basis is None:
            basis = Basis.computational(layout, name)
        if basis.layout != layout.sublayout([name]):
            raise LayoutMismatchError(f"basis for {name!r} has the wrong layout")
        resolved.append((layout.axis(name), basis))
    if len({a for a, _ in resolved}) != len(resolved):
        raise LayoutConflictError("born targets must name distinct subsystems")
    t = state.tensor_view()
    for axis, basis in resolved:
        mat = np.conj(basis.matrix)  # (k, d)
        t = np.moveaxis(np.tensordot(t, mat, axes=([axis], [1])), -1, axis)
    probs = np.abs(t) ** 2
    other = tuple(i for i in range(probs.ndim) if i not in {a for a, _ in resolved})
    joint = probs.sum(axis=other) if other else probs
    # Summation leaves measured axes in ascending layout order; put them back
    # in the caller's target order so outcome tuples read as requested.
    measured_axes = sorted(a for a, _ in resolved)
    joint = joint.transpose([measured_axes.index(a) for a, _ in resolved])
    bases = [b for _, b in resolved]
    entries = []
    for flat_idx in np.ndindex(*joint.shape):
        labels = tuple(b.labels[k] for b, k in zip(bases, flat_idx))
        entries.append((labels, float(joint[flat_idx])))
    entries.sort(key=lambda e: e[0])
    total = sum(p for _, p in entries)
    if total < 1.0 - ATOL:
        raise BasisCoverageError(
            f"measured bases cover only probability {total:.6g} of the state"
        )
    return OutcomeDistribution(tuple(entries))


def condition(
    state: StateVector, subsystem: str, basis: Basis, outcome_index: int
) -> StateVector:
    """Project onto the outcome and renormalize (the state-update rule used
    for every conditional claim in this package)."""
    layout = state.layout
    axis = layout.axis(subsystem)
    vec = basis.vectors[outcome_index].amplitudes
    t = state.tensor_view()
    component = np.tensordot(np.conj(vec), t, axes=([0], [axis]))
    prob = float(np.linalg.norm(component) ** 2)
    if prob <= PRUNE_PROB:
        raise ImpossibleOutcomeError(
            f"outcome {basis.labels[outcome_index]!r} on {subsystem!r} has "
            f"probability {prob:.3g}"
        )
    full = np.multiply.outer(vec, component) / np.sqrt(prob)
    full = np.moveaxis(full, 0, axis)
    return StateVector(layout, full.reshape(-1))


def outcome_probability(state: StateVector, subsystem: str, basis: Basis,
                        outcome_index: int) -> float:
    layout = state.layout
    axis = layout.axis(subsystem)
    vec = basis.vectors[outcome_index].amplitudes
    component = np.tensordot(np.conj(vec), state.tensor_view(), axes=([0], [axis]))
    return float(np.linalg.norm(component) ** 2)


def pointer_reduce(state: StateVector, environment: str) -> DensityOperator:
    """Density operator of everything but the environment.

    With orthonormal environment records this is the classical mixture of
    branch projectors selected by the coupling.
    """
    keep = [n for n in state.layout.names if n != environment]
    if len(keep) == len(state.layout.names):
        raise LayoutMismatchError(f"layout has no subsystem {environment!r}")
    return partial_trace(density(state), keep)
