"""Premeasurements, environment couplings, Born statistics, outcome
conditioning and pointer-state reduction.

A measurement here is von Neumann's premeasurement, the isometry that
correlates a target register with a ready apparatus register: ready |a0>
goes to the record |a_i> on the branch where the target holds basis vector
|s_i>, and the target is left untouched.  The same map, with a
multi-register target, implements the one-shot environment couplings used
for decoherence arguments.  States only ever pass through the ready sector,
where the map is applied straight from the k x d_t matrix of branch rows;
their orthonormality is checked once, where the rows are made (`Basis`,
`environment_couple`).  ``correlating_unitary`` completes the map to a full
unitary for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
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
    apply_to_axis,
    basis_state,
    density,
    gram_defect,
    partial_trace,
    tensor,
)
from .hilbert import DensityOperator


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered, labeled, pairwise-orthonormal vectors over one (sub)layout.
    ``matrix`` holds the vectors' amplitudes as rows, shape (k, d); it is
    stacked once, when the basis is made, and is read-only."""

    labels: tuple[str, ...]
    vectors: tuple[StateVector, ...]
    matrix: np.ndarray = field(init=False, repr=False)

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
        matrix = np.stack([v.amplitudes for v in self.vectors])
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        defect = gram_defect(matrix)
        if defect is not None:
            i, j, g = defect
            raise NonOrthonormalBasisError(f"basis not orthonormal: Gram[{i},{j}] = {g:.6g}")

    @property
    def layout(self) -> SubsystemLayout:
        return self.vectors[0].layout

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
        rows = np.eye(sub.dimension, dtype=np.complex128)
        return cls(chosen, tuple(StateVector(sub_layout, rows[sub.index_of(lab)])
                                 for lab in chosen))


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


def _branch_rows(
    layout: SubsystemLayout,
    targets: Sequence[str],
    vectors: Sequence[StateVector],
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> tuple[np.ndarray, list[int], int, list[int]]:
    """The correlating map on the apparatus ready sector,
    V = sum_i |s_i><s_i| (x) |record_i><ready| + (1 - P) (x) |ready><ready|,
    as its branch rows s_i (shape (k, d_t)), the front axes (target axes in
    layout order, then the apparatus axis), the ready index and the record
    indices.  Orthonormal rows make V an isometry; `Basis` and
    `environment_couple` check them, once each."""
    target_axes = sorted(_axes_of(layout, targets))
    sub_layout = layout.sublayout([layout.subsystems[i].name for i in target_axes])
    app = layout.subsystem(apparatus)
    if apparatus in sub_layout.names:
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
    for v in vectors:
        if v.layout != sub_layout:
            raise LayoutMismatchError(
                f"branch vector layout {v.layout.names} != target layout {sub_layout.names}"
            )
    rows = np.stack([v.amplitudes for v in vectors])
    return rows, target_axes + [layout.axis(apparatus)], ready_idx, record_idx


def _correlate(
    state: StateVector,
    targets: Sequence[str],
    vectors: Sequence[StateVector],
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
    role: str,
) -> StateVector:
    """Apply the correlating isometry from its branch rows to the ready slice
    of the (targets, apparatus) axes.  The weight outside the ready sector,
    at most 1e-9 once the ready check passes, is projected out and the
    result renormalized."""
    rows, front, ready_idx, record_idx = _branch_rows(
        state.layout, targets, vectors, apparatus, ready_label, record_labels
    )
    moved = range(len(front))
    t = np.moveaxis(state.tensor_view(), front, moved)
    d_t, d_a = rows.shape[1], state.layout.dims[front[-1]]
    ready = t.reshape(d_t, d_a, -1)[:, ready_idx]
    weight = float(np.vdot(ready, ready).real)
    if weight < 1.0 - ATOL:
        raise ApparatusNotReadyError(
            f"{role} {apparatus!r} is not in its ready state {ready_label!r}"
        )
    c = rows.conj() @ ready
    out = np.zeros((d_t, d_a, ready.shape[1]), dtype=np.complex128)
    out[:, ready_idx] = ready - rows.T @ c
    for row, ci, rec in zip(rows, c, record_idx):
        out[:, rec] += np.outer(row, ci)  # += keeps a ready level reused as a record
    out = np.moveaxis((out / np.sqrt(weight)).reshape(t.shape), moved, front)
    return StateVector(state.layout, out.reshape(-1), input_norm=state.input_norm)


def correlating_unitary(
    layout: SubsystemLayout,
    targets: Sequence[str],
    vectors: Sequence[StateVector],
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> LinearOperator:
    """Full-layout correlating unitary (identity on uninvolved registers),
    for inspection and as the reference for `premeasure` and
    `environment_couple`.

    Its ready-sector columns are the isometry those two apply; the other
    columns, which no ready state reaches, complete it to a unitary with
    the orthonormal complement from one complete QR, in ascending column
    order.
    """
    rows, front, ready_idx, record_idx = _branch_rows(
        layout, targets, vectors, apparatus, ready_label, record_labels
    )
    if gram_defect(rows) is not None:
        raise NonOrthonormalBasisError("measurement basis vectors are not orthonormal")
    d_t, d_a = rows.shape[1], layout.dims[front[-1]]
    iso = np.zeros((d_t, d_a, d_t), dtype=np.complex128)
    for row, rec in zip(rows, record_idx):
        iso[:, rec, :] += np.outer(row, row.conj())
    iso[:, ready_idx, :] += np.eye(d_t) - rows.T @ rows.conj()
    dim = d_t * d_a
    block = iso.reshape(dim, d_t)
    ready_cols = np.arange(d_t) * d_a + ready_idx
    small = np.empty((dim, dim), dtype=np.complex128)
    small[:, ready_cols] = block
    small[:, np.setdiff1d(np.arange(dim), ready_cols)] = (
        np.linalg.qr(block, mode="complete")[0][:, d_t:]
    )
    n = len(layout.subsystems)
    order = front + [i for i in range(n) if i not in front]
    perm = np.arange(layout.dimension).reshape(layout.dims).transpose(order).reshape(-1)
    big = np.kron(small, np.eye(layout.dimension // dim, dtype=np.complex128))
    full = np.zeros_like(big)
    full[perm[:, None], perm[None, :]] = big
    return LinearOperator(layout, layout, full, kind="unitary")


def premeasure(state: StateVector, spec: MeasurementSpec) -> StateVector:
    """Correlate the target with the apparatus: c1|s1> + c2|s2> with a ready
    apparatus becomes c1|s1>|a1> + c2|s2>|a2>."""
    return _correlate(state, [spec.target], spec.basis.vectors, spec.apparatus,
                      spec.ready_label, spec.outcome_labels, "apparatus")


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
    return _correlate(state, target_names, branches, environment, ready_label,
                      env_labels, "environment")


def attach_environment(
    state: StateVector, name: str, n_branches: int, label_prefix: str = "eps"
) -> tuple[StateVector, tuple[str, ...]]:
    """Tensor on a minimal ready environment register (one ready level plus
    one record level per branch); returns the new state and record labels."""
    labels = tuple(f"{label_prefix}{i}" for i in range(n_branches + 1))
    env_layout = SubsystemLayout((Subsystem(name, labels),))
    env_state = basis_state(env_layout, (labels[0],))
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
        t = apply_to_axis(t, np.conj(basis.matrix), axis)
    probs = np.abs(t) ** 2
    measured_axes = sorted(a for a, _ in resolved)
    other = tuple(i for i in range(probs.ndim) if i not in measured_axes)
    joint = probs.sum(axis=other) if other else probs
    # Summation leaves measured axes in ascending layout order; put them back
    # in the caller's target order so outcome tuples read as requested.
    joint = joint.transpose([measured_axes.index(a) for a, _ in resolved])
    entries = sorted(zip(product(*(b.labels for _, b in resolved)), joint.reshape(-1).tolist()),
                     key=itemgetter(0))
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
