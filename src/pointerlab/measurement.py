"""Premeasurements, environment couplings, Born statistics, outcome
conditioning and pointer-state reduction.

A measurement here is von Neumann's premeasurement, the isometry that
correlates a target register with a ready apparatus register: ready |a0>
goes to the record |a_i> on the branch where the target holds basis vector
|s_i>, and the target is left untouched.  The same map, with a
multi-register target, implements the one-shot environment couplings used
for decoherence arguments.  States only ever pass through the ready sector,
where the map is applied straight from the k x d_t matrix of branch rows;
their orthonormality is checked once, where the rows are made
(`Basis.from_rows`).  ``correlating_unitary`` builds the same map densely
from a checked `Basis` and completes it to a full unitary for inspection.  Conditioning on an
outcome has one path, ``conditioned_branches``, whose one-branch case is
premeasurement semantics (``condition``).  It and the pointer mixture of
``experiment.decoherence_compare`` start from ``branch_components``, the
state split along an environment's branches, and attach no environment.

The kernels and ``born`` take a StateVector or a StateBatch, and a batch's
states go through them together, each checked on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    StateBatch,
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


@dataclass(frozen=True, eq=False, init=False)
class Basis:
    """Ordered, labeled, pairwise-orthonormal vectors over one (sub)layout,
    held as the rows of ``matrix``, shape (k, d), which is read-only.

    ``from_rows`` is the one constructor that checks raw rows (with
    ``hilbert.gram_defect``) and normalises them; ``Basis(labels, vectors)``
    stacks StateVectors and goes through it.  ``vectors`` are the rows as
    StateVectors, made when first read."""

    labels: tuple[str, ...]
    layout: SubsystemLayout
    matrix: np.ndarray = field(repr=False)

    def __init__(self, labels: Sequence[str], vectors: Sequence[StateVector]):
        vectors = tuple(vectors)
        if not vectors:
            raise NonOrthonormalBasisError("basis needs one label per vector")
        layout = vectors[0].layout
        if any(v.layout != layout for v in vectors):
            raise LayoutMismatchError("basis vectors live over different layouts")
        basis = Basis.from_rows(labels, layout, np.stack([v.amplitudes for v in vectors]))
        self._hold(basis.labels, layout, basis.matrix)

    @classmethod
    def from_rows(cls, labels: Sequence[str], layout: SubsystemLayout,
                  rows: np.ndarray) -> "Basis":
        """The basis along the raw rows ``rows`` over ``layout``.  The rows
        are checked as given, so one of the wrong norm fails on the Gram
        diagonal; then each is divided by its own norm, as
        ``hilbert.normalized`` does."""
        rows = np.asarray(rows, dtype=np.complex128)
        defect = gram_defect(rows)
        if defect is not None:
            i, j, g = defect
            raise NonOrthonormalBasisError(f"basis not orthonormal: Gram[{i},{j}] = {g:.6g}",
                                           defect)
        norms = np.array([np.linalg.norm(row) for row in rows])
        basis = cls.__new__(cls)
        basis._hold(labels, layout, rows / norms[:, None])
        return basis

    @classmethod
    def computational(cls, layout: SubsystemLayout, name: str,
                      labels: Sequence[str] | None = None) -> "Basis":
        """Computational basis of one subsystem, optionally restricted to a
        subset of its labels, in the order given: rows of the identity,
        orthonormal by construction."""
        sub = layout.subsystem(name)
        rows = np.eye(sub.dimension, dtype=np.complex128)
        if labels is None:
            labels = sub.labels
        else:
            labels = tuple(labels)
            rows = rows[[sub.index_of(lab) for lab in labels]]
        if layout.names != (name,):
            layout = SubsystemLayout((sub,))
        basis = cls.__new__(cls)
        basis._hold(labels, layout, rows)
        return basis

    def _hold(self, labels: Sequence[str], layout: SubsystemLayout, matrix: np.ndarray
              ) -> None:
        labels = tuple(labels)
        if matrix.ndim != 2 or matrix.shape[1] != layout.dimension:
            raise LayoutMismatchError(f"basis rows of shape {matrix.shape} do not match "
                                      f"layout dimension {layout.dimension}")
        if len(labels) != len(matrix) or not labels:
            raise NonOrthonormalBasisError("basis needs one label per vector")
        if len(set(labels)) != len(labels):
            raise NonOrthonormalBasisError("basis labels must be distinct")
        matrix.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def vectors(self) -> tuple[StateVector, ...]:
        return tuple(StateVector(self.layout, row) for row in self.matrix)

    @property
    def size(self) -> int:
        return len(self.labels)


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
        if not abs(total - 1.0) <= ATOL:  # a NaN weight fails here
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


def _target_axes(layout: SubsystemLayout, branches: Basis) -> list[int]:
    """The layout-order axes of the registers ``branches`` lives on; raises
    LayoutMismatchError unless it lives on them as ``layout`` holds them."""
    axes = sorted(layout.axis(n) for n in branches.layout.names)
    if branches.layout.subsystems != tuple(layout.subsystems[a] for a in axes):
        raise LayoutMismatchError(
            f"branch vector layout {branches.layout.names} != target layout "
            f"{tuple(layout.names[a] for a in axes)}"
        )
    return axes


def _branch_axes(
    layout: SubsystemLayout,
    branches: Basis,
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> tuple[list[int], int, list[int]]:
    """Where the correlating map
    V = sum_i |s_i><s_i| (x) |record_i><ready| + (1 - P) (x) |ready><ready|
    acts, for the rows s_i of ``branches`` on the registers they live on:
    the front axes (target axes in layout order, then the apparatus axis),
    the ready index and the record indices.  Orthonormal rows make V an
    isometry; `Basis` checks them once, when it is made."""
    n_rows = branches.size
    target_axes = _target_axes(layout, branches)
    app_axis = layout.axis(apparatus)
    app = layout.subsystems[app_axis]
    if app_axis in target_axes:
        raise LayoutConflictError("apparatus cannot be part of the measured target")
    ready_idx = app.index_of(ready_label)
    record_idx = [app.index_of(r) for r in record_labels]
    if len(record_idx) != n_rows:
        raise NonOrthonormalBasisError("one record label per branch vector required")
    extra = 0 if ready_label in record_labels else 1
    if app.dimension < n_rows + extra:
        raise LayoutConflictError(
            f"apparatus {apparatus!r} needs at least {n_rows + extra} levels"
        )
    return target_axes + [app_axis], ready_idx, record_idx


def _correlate(
    state: StateVector | StateBatch,
    branches: Basis,
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
    role: str,
) -> StateVector | StateBatch:
    """Apply the correlating isometry from the branch rows to the ready slice
    of the (targets, apparatus) axes of every state.  Each state's weight
    outside the ready sector, at most 1e-9 once its ready check passes, is
    projected out and the state renormalized."""
    layout = state.layout
    rows = branches.matrix
    front, ready_idx, record_idx = _branch_axes(layout, branches, apparatus, ready_label,
                                                record_labels)
    # The front axes go first, then the batch axis: ``ready`` holds the
    # states side by side, each one as a (d_t, rest) block.
    amps = state.rows()
    m = len(amps)
    order = [f + 1 for f in front] + [0] + [i + 1 for i in range(len(layout.dims))
                                            if i not in front]
    t = amps.reshape((m,) + layout.dims).transpose(order)
    d_t, d_a = rows.shape[1], layout.dims[front[-1]]
    ready = t[(slice(None),) * (len(front) - 1) + (ready_idx,)].reshape(d_t, -1)
    blocks = ready.reshape(d_t, m, -1)
    weights = [np.vdot(blocks[:, j], blocks[:, j]).real for j in range(m)]
    if min(weights) < 1.0 - ATOL:
        raise ApparatusNotReadyError(
            f"{role} {apparatus!r} is not in its ready state {ready_label!r}"
        )
    c = rows.conj() @ ready
    out = np.zeros((d_t, d_a, ready.shape[1]), dtype=np.complex128)
    out[:, ready_idx] = ready - rows.T @ c
    del ready, blocks
    for row, ci, rec in zip(rows, c, record_idx):
        out[:, rec] += np.outer(row, ci)  # += keeps a ready level reused as a record
    out.reshape(d_t, d_a, m, -1)[...] /= np.sqrt(weights)[:, None]
    # Back in layout order; ``out`` goes before the state copies the result,
    # so no more than three copies of the batch are held at once.
    laid = out.reshape(t.shape).transpose(sorted(range(len(order)), key=order.__getitem__))
    laid = laid.reshape(m, -1)
    del out
    return state.with_rows(layout, laid)


def correlating_unitary(
    layout: SubsystemLayout,
    basis: Basis,
    apparatus: str,
    ready_label: str,
    record_labels: Sequence[str],
) -> LinearOperator:
    """Full-layout correlating unitary (identity on uninvolved registers)
    for the rows of ``basis`` on the registers it lives on, for inspection
    and as the reference for `premeasure` and `environment_couple`.

    Its ready-sector columns are the isometry those two apply; the other
    columns, which no ready state reaches, complete it to a unitary with
    the orthonormal complement from one complete QR, in ascending column
    order.  The result is checked unitary (``LinearOperator``).
    """
    rows = basis.matrix
    front, ready_idx, record_idx = _branch_axes(layout, basis, apparatus, ready_label,
                                                record_labels)
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


def premeasure(state: StateVector | StateBatch, spec: MeasurementSpec
               ) -> StateVector | StateBatch:
    """Correlate the target with the apparatus: c1|s1> + c2|s2> with a ready
    apparatus becomes c1|s1>|a1> + c2|s2>|a2>."""
    return _correlate(state, spec.basis, spec.apparatus, spec.ready_label,
                      spec.outcome_labels, "apparatus")


def branch_labels(n: int) -> tuple[str, ...]:
    """eps1 ... eps<n>: the labels of n environment branches, which are the
    records ``attach_environment`` names."""
    return tuple(f"eps{i}" for i in range(1, n + 1))


def environment_labels(n: int) -> tuple[str, ...]:
    """The levels of an environment register that records n branches: the
    ready level eps0, then ``branch_labels(n)``."""
    return ("eps0",) + branch_labels(n)


def branch_basis(branches: Sequence[StateVector]) -> Basis:
    """Environment branches given as plain vectors, as a Basis labelled by
    ``branch_labels`` and checked orthonormal once, here.  The parser makes
    its branch sets from rows (``Basis.from_rows``) instead."""
    if not branches:
        raise IncompleteBranchingError("at least one branch is required")
    return Basis(branch_labels(len(branches)), tuple(branches))


def _along_branches(state: StateVector | StateBatch, branches: Basis
                    ) -> tuple[list[int], np.ndarray]:
    """The axis order that puts the branch registers first, then the batch
    axis, then the rest; and each state's coefficients along the branches,
    c[k, j] = <b_k|state_j>, shape (K, m, rest).  Raises
    IncompleteBranchingError when the branches miss a state's support."""
    layout = state.layout
    axes = _target_axes(layout, branches)
    amps = state.rows()
    m = len(amps)
    order = [a + 1 for a in axes] + [0] + [i + 1 for i in range(len(layout.dims))
                                           if i not in axes]
    t = amps.reshape((m,) + layout.dims).transpose(order).reshape(branches.layout.dimension, -1)
    if np.may_share_memory(t, amps):
        t = t.copy()  # the residual is formed in place below
    vmat = branches.matrix
    c = vmat.conj() @ t
    t -= vmat.T @ c
    parts = t.view(np.float64).reshape(len(t), m, -1)
    leak = float(np.sqrt(np.max(np.einsum("imk,imk->m", parts, parts))))
    if leak > ATOL:
        raise IncompleteBranchingError(
            f"branches miss state support (residual norm {leak:.3g})"
        )
    return order, c.reshape(len(vmat), m, -1)


def environment_couple(
    state: StateVector | StateBatch,
    branches: Sequence[StateVector] | Basis,
    environment: str,
    env_labels: Sequence[str],
    ready_label: str | None = None,
) -> StateVector | StateBatch:
    """One-shot coupling: branch k of the named subset gets tagged with the
    environment record env_labels[k].

    Branches must be orthonormal (plain vectors are checked by
    ``branch_basis``, a Basis was checked when it was made) and must span
    each state's support on their subsystems; anything left over raises
    IncompleteBranchingError.
    """
    env = state.layout.subsystem(environment)
    if ready_label is None:
        leftovers = [l for l in env.labels if l not in set(env_labels)]
        if len(leftovers) != 1:
            raise UnknownLabelError(
                f"cannot infer ready label of {environment!r}; pass ready_label"
            )
        ready_label = leftovers[0]
    basis = branches if isinstance(branches, Basis) else branch_basis(branches)
    _along_branches(state, basis)
    return _correlate(state, basis, environment, ready_label, env_labels, "environment")


def branch_components(state: StateVector, branches: Basis) -> np.ndarray:
    """The rows P_k·state, shape (K, D), P_k the projector onto branch k on
    its registers; an environment that records the branches, traced out,
    leaves sum_k P_k|state><state|P_k.  Raises IncompleteBranchingError if
    the branches miss the state's support."""
    dims = state.layout.dims
    order, c = _along_branches(state, branches)
    vmat = branches.matrix
    # P_k·state in the moved axis order, then back in layout order.
    moved = (len(vmat),) + tuple(((1,) + dims)[o] for o in order)
    comps = (vmat[:, :, None, None] * c[:, None]).reshape(moved)
    return comps.transpose([0] + [1 + o for o in np.argsort(order)]).reshape(len(vmat), -1)


def conditioned_branches(
    state: StateVector,
    branches: Basis | None,
    subsystem: str,
    basis: Basis,
    outcome_index: int,
) -> tuple[StateBatch, tuple[float, ...]]:
    """The branches of ``state`` conditioned on an outcome: the states
    Q·P_k·state, each normalised, and their weights
    ‖Q·P_k·state‖² / sum_j ‖Q·P_j·state‖².

    P_k projects onto branch k on its registers and Q onto the outcome's
    vector of ``basis`` on ``subsystem``; ``branches=None`` is the single
    branch P = 1, whose state is Q·state normalised, with weight 1
    (``condition``).  Coupling an environment that records the branches
    (``environment_couple``) and conditioning on the outcome leaves
    sum_k Q·P_k·state (x) |eps_k>, normalised; a step that leaves the
    environment alone acts on each branch on its own, and Born statistics
    that sum over the environment are this mixture of the branches'
    statistics.  Branches whose weight is at most PRUNE_PROB are left out.
    Raises IncompleteBranchingError if the branches miss the state's
    support, ImpossibleOutcomeError if the outcome has no weight.
    """
    comps = state.rows() if branches is None else branch_components(state, branches)
    rows, weights = _conditioned(comps, state.layout, subsystem, basis, outcome_index)
    return StateBatch(state.layout, rows), tuple(weights.tolist())


def _projected(rows: np.ndarray, layout: SubsystemLayout, subsystem: str, basis: Basis,
               outcome_index: int) -> np.ndarray:
    """Q·row for each row of ``rows`` (m states or branches over ``layout``,
    shape (m, D)), Q the projector onto the outcome's vector on ``subsystem``."""
    axis = layout.axis(subsystem)
    vec = basis.matrix[outcome_index]
    t = rows.reshape(-1, len(vec), math.prod(layout.dims[axis + 1:]))
    return (vec[:, None] * (vec.conj() @ t)[:, None]).reshape(rows.shape)


def _conditioned(rows: np.ndarray, layout: SubsystemLayout, subsystem: str, basis: Basis,
                 outcome_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows Q·row normalised, and their weights, as ``conditioned_branches``
    gives them."""
    q = _projected(rows, layout, subsystem, basis, outcome_index)
    parts = q.view(np.float64)
    weights = np.einsum("ij,ij->i", parts, parts)
    total = float(weights.sum())
    if total <= PRUNE_PROB:
        raise ImpossibleOutcomeError(
            f"outcome {basis.labels[outcome_index]!r} on {subsystem!r} has "
            f"probability {total:.3g}"
        )
    keep = weights > PRUNE_PROB * total
    weights = weights[keep]
    return q[keep] / np.sqrt(weights)[:, None], weights / total


def attach_environment(
    state: StateVector | StateBatch, name: str, n_branches: int
) -> tuple[StateVector | StateBatch, tuple[str, ...]]:
    """Tensor on a minimal ready environment register (its levels are
    ``environment_labels``); returns the new state and record labels."""
    labels = environment_labels(n_branches)
    env_layout = SubsystemLayout((Subsystem(name, labels),))
    env_state = basis_state(env_layout, (labels[0],))
    return tensor(state, env_state), labels[1:]


def born(
    state: StateVector | StateBatch,
    targets: Sequence[tuple[str, Basis | None]],
) -> OutcomeDistribution | tuple[OutcomeDistribution, ...]:
    """Joint Born distribution over the given subsystems and bases; for a
    StateBatch, one distribution per state.

    ``None`` means the subsystem's computational basis.  Entries come out
    sorted lexicographically by outcome labels, with tuples ordered the way
    the targets were given.  If the measured bases miss part of a state's
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
        if basis.layout.subsystems != (layout.subsystem(name),):
            raise LayoutMismatchError(f"basis for {name!r} has the wrong layout")
        resolved.append((layout.axis(name), basis))
    if len({a for a, _ in resolved}) != len(resolved):
        raise LayoutConflictError("born targets must name distinct subsystems")
    amps = state.rows()
    m = len(amps)
    t = amps.reshape((m,) + layout.dims)
    for axis, basis in resolved:
        t = apply_to_axis(t, np.conj(basis.matrix), axis + 1)
    probs = np.abs(t) ** 2
    measured_axes = sorted(a for a, _ in resolved)
    other = tuple(i + 1 for i in range(len(layout.dims)) if i not in measured_axes)
    joint = probs.sum(axis=other) if other else probs
    # Summation leaves measured axes in ascending layout order; put them back
    # in the caller's target order so outcome tuples read as requested.
    joint = joint.transpose([0] + [measured_axes.index(a) + 1 for a, _ in resolved])
    labels = list(product(*(b.labels for _, b in resolved)))
    dists = []
    for row in joint.reshape(m, -1).tolist():
        entries = sorted(zip(labels, row), key=itemgetter(0))
        total = sum(p for _, p in entries)
        if total < 1.0 - ATOL:
            raise BasisCoverageError(
                f"measured bases cover only probability {total:.6g} of the state"
            )
        dists.append(OutcomeDistribution(tuple(entries)))
    return tuple(dists) if isinstance(state, StateBatch) else dists[0]


def condition(
    state: StateVector, subsystem: str, basis: Basis, outcome_index: int
) -> StateVector:
    """Project onto the outcome and renormalize (the state-update rule used
    for every conditional claim in this package): the one-branch case of
    ``conditioned_branches``."""
    rows, _ = _conditioned(state.rows(), state.layout, subsystem, basis, outcome_index)
    return StateVector(state.layout, rows[0])


def outcome_probability(state: StateVector, subsystem: str, basis: Basis,
                        outcome_index: int) -> float:
    """‖Q·state‖², Q the projector ``condition`` applies."""
    q = _projected(state.rows(), state.layout, subsystem, basis, outcome_index)
    return float(np.vdot(q, q).real)


def pointer_reduce(state: StateVector, environment: str) -> DensityOperator:
    """Density operator of everything but the environment.

    With orthonormal environment records this is the classical mixture of
    branch projectors selected by the coupling.
    """
    keep = [n for n in state.layout.names if n != environment]
    if len(keep) == len(state.layout.names):
        raise LayoutMismatchError(f"layout has no subsystem {environment!r}")
    return partial_trace(density(state), keep)
