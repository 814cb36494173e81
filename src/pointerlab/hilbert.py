"""Labeled tensor-product Hilbert space substrate.

States, operators and density matrices live over a :class:`SubsystemLayout`:
an ordered list of named subsystems, each with named basis labels.  The flat
index of an amplitude runs lexicographically over subsystem declaration
order, so a tuple of labels addresses exactly one amplitude and the mapping
round-trips.  Everything is dense complex double precision; dimensions in
this package stay desk-scale, so no sparse path exists.

All values are immutable after construction and every operation is a pure
function, which makes them safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    InvalidPartitionError,
    LayoutConflictError,
    LayoutMismatchError,
    NonInjectiveLabelMapError,
    UnknownLabelError,
    UnknownSubsystemError,
)

# Absolute tolerance for amplitude-level equality checks.
ATOL = 1e-9
# Per-operation norm drift budget.
NORM_DRIFT = 1e-12
# Probabilities below this are treated as exactly zero.
PRUNE_PROB = 1e-12
# Most amplitudes a layout may hold at any stage, and a claim batch in all:
# the smallest power of two above the 11-agent, three-level chain of
# bench/scaling.py (1,062,882 amplitudes), the largest generated chain that
# finished within that script's one-minute limit when the limit was set.  A
# run keeps only its final state, and that chain's claims go one state per
# walk, so its CLI run peaks near 190 MiB (about 3 s on one core of a 2-CPU
# machine); the next size up would need about three times as much.
MAX_AMPLITUDES = 2**21


@dataclass(frozen=True)
class Subsystem:
    """A named register with an ordered set of basis labels; ``positions``
    maps each label to its index."""

    name: str
    labels: tuple[str, ...]
    positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise InvalidPartitionError(f"subsystem {self.name!r} has no basis labels")
        positions = {label: i for i, label in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise LayoutConflictError(f"duplicate basis label in subsystem {self.name!r}")
        object.__setattr__(self, "positions", positions)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise UnknownLabelError(
                f"subsystem {self.name!r} has no basis label {label!r}"
            ) from None


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered collection of subsystems; the index space of a state vector.
    ``axes`` maps each subsystem name to its position."""

    subsystems: tuple[Subsystem, ...]
    axes: dict[str, int] = field(init=False, compare=False, repr=False)
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    dims: tuple[int, ...] = field(init=False, compare=False, repr=False)
    dimension: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        subsystems = tuple(self.subsystems)
        object.__setattr__(self, "subsystems", subsystems)
        names = tuple(s.name for s in subsystems)
        axes = {name: i for i, name in enumerate(names)}
        if len(axes) != len(subsystems):
            raise LayoutConflictError(f"duplicate subsystem names in layout: {list(names)}")
        if not subsystems:
            raise InvalidPartitionError("layout needs at least one subsystem")
        dims = tuple(len(s.labels) for s in subsystems)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dimension", math.prod(dims))

    @classmethod
    def of(cls, *specs: tuple[str, Sequence[str]]) -> "SubsystemLayout":
        return cls(tuple(Subsystem(name, tuple(labels)) for name, labels in specs))

    def axis(self, name: str) -> int:
        try:
            return self.axes[name]
        except KeyError:
            raise UnknownSubsystemError(f"layout has no subsystem {name!r}") from None

    def subsystem(self, name: str) -> Subsystem:
        return self.subsystems[self.axis(name)]

    def index(self, labels: Sequence[str]) -> int:
        """Flat index of a full label tuple (lexicographic over declaration order)."""
        if len(labels) != len(self.subsystems):
            raise UnknownLabelError(
                f"expected {len(self.subsystems)} labels {self.names}, got {labels!r}"
            )
        flat = 0
        for sub, label in zip(self.subsystems, labels):
            flat = flat * sub.dimension + sub.index_of(label)
        return flat

    def sublayout(self, names: Sequence[str]) -> "SubsystemLayout":
        """Layout over the given subsystems, in the given order."""
        return SubsystemLayout(tuple(self.subsystem(n) for n in names))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over a layout."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.dimension,):
            raise LayoutMismatchError(
                f"amplitude vector of length {amps.shape} does not match layout "
                f"dimension {self.layout.dimension}"
            )
        defect = _norm_defect(amps.reshape(1, -1))
        if defect is not None:
            raise DegenerateStateError(f"state norm {defect[1]} not 1 within {ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, labels: Sequence[str]) -> complex:
        return complex(self.amplitudes[self.layout.index(labels)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def rows(self) -> np.ndarray:
        """The amplitudes as the one row of a (1, D) array: the m = 1 case
        of a StateBatch, which is how the kernels read every state."""
        return self.amplitudes.reshape(1, -1)

    def with_rows(self, layout: SubsystemLayout, rows: np.ndarray) -> "StateVector":
        """The state with amplitudes ``rows`` (shape (1, D)) over ``layout``."""
        return StateVector(layout, rows.reshape(-1))

    def __repr__(self) -> str:
        return f"StateVector({'x'.join(map(str, self.layout.dims))} over {self.layout.names})"


@dataclass(frozen=True, eq=False)
class StateBatch:
    """m unit-norm states over one layout: the columns of a (D, m) matrix,
    held as its (m, D) transpose so that each state's amplitudes are
    contiguous, as in a StateVector.  The kernels (``premeasure``,
    ``environment_couple``, ``group_state``) and ``born`` apply to every
    state at once and check each one on its own; a StateVector goes through
    the same code as a batch of one."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, order="C")
        if amps.ndim != 2 or not len(amps) or amps.shape[1] != self.layout.dimension:
            raise LayoutMismatchError(
                f"batch of shape {amps.shape} does not hold states of layout "
                f"dimension {self.layout.dimension}"
            )
        defect = _norm_defect(amps)
        if defect is not None:
            raise DegenerateStateError(f"state {defect[0]} of the batch has norm {defect[1]}, "
                                       f"not 1 within {ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def rows(self) -> np.ndarray:
        return self.amplitudes

    def with_rows(self, layout: SubsystemLayout, rows: np.ndarray) -> "StateBatch":
        return StateBatch(layout, rows)

    def take(self, indices: Sequence[int]) -> "StateBatch":
        """The batch of the states at ``indices``, in that order."""
        return StateBatch(self.layout, self.amplitudes[list(indices)])


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense unitary matrix between two layouts of one dimension, verified
    entrywise at construction (1e-9)."""

    layout_in: SubsystemLayout
    layout_out: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        expected = (self.layout_out.dimension, self.layout_in.dimension)
        if mat.shape != expected:
            raise LayoutMismatchError(f"operator shape {mat.shape}, expected {expected}")
        if mat.shape[0] != mat.shape[1]:
            raise LayoutMismatchError("unitary operator must be square")
        if gram_defect(mat.T) is not None:
            raise LayoutConflictError("operator is not unitary")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout."""

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.dimension
        if mat.shape != (d, d):
            raise LayoutMismatchError(f"density shape {mat.shape}, expected {(d, d)}")
        with np.errstate(invalid="ignore"):  # an inf entry gives inf - inf
            skew = np.max(np.abs(mat - mat.conj().T))
        if not skew <= ATOL:
            raise LayoutConflictError("density operator not Hermitian within 1e-9")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= ATOL:
            raise LayoutConflictError(f"density trace {tr} not 1 within 1e-9")
        if not float(np.min(np.linalg.eigvalsh(mat))) >= -ATOL:
            raise LayoutConflictError("density operator has eigenvalue below -1e-9")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def make_state(
    layout: SubsystemLayout,
    terms: Iterable[tuple[Sequence[str], complex]],
) -> StateVector:
    """Build a state from (label tuple, amplitude) terms.

    Amplitudes of repeated tuples are summed, then the vector is normalized.
    """
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    for labels, coeff in terms:
        amps[layout.index(labels)] += coeff
    return normalized(layout, amps)


def normalized(layout: SubsystemLayout, amps: np.ndarray) -> StateVector:
    """The state along raw amplitudes ``amps``; all-zero amplitudes, or a
    norm that underflows to 0, overflows, or is inf or NaN, raise
    DegenerateStateError."""
    if not amps.any():
        raise DegenerateStateError("state terms sum to the zero vector")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(amps))
    if not 0.0 < nrm < math.inf:
        raise DegenerateStateError(f"state norm {nrm} is out of floating-point range")
    return StateVector(layout, amps / nrm)


def _norm_defect(rows: np.ndarray) -> tuple[int, float] | None:
    """The first of the C-contiguous complex ``rows`` whose norm is not 1
    within ATOL (NaN and inf never are), as (index, norm), else None."""
    parts = rows.view(np.float64)
    for i, square in enumerate(np.einsum("ij,ij->i", parts, parts).tolist()):
        if not abs(math.sqrt(square) - 1.0) <= ATOL:
            return i, math.sqrt(square)
    return None


def gram_defect(rows: np.ndarray) -> tuple[int, int, complex] | None:
    """The one orthonormality check of ``rows`` (one vector per row): the
    Gram entry (i, j, value) more than ATOL from the identity's (NaN and inf
    always are), else None.  The first failing norm comes first, as G_ii
    summed from squares, so an overflow reads inf; then the entry furthest off.
    Overflow and NaN in the arithmetic print no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.conj() @ rows.T
        dev = np.abs(gram - np.eye(len(rows)))
        if dev.max(initial=0.0) <= ATOL:
            return None
        off = np.flatnonzero(~(dev.diagonal() <= ATOL))
        if off.size:
            i = int(off[0])
            return i, i, complex((np.abs(rows[i]) ** 2).sum())
        i, j = divmod(int(np.argmax(dev)), len(rows))
        return i, j, complex(gram[i, j])


def apply_to_axis(t: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """The (k, d) matrix ``mat`` applied to axis ``axis`` (of length d) of
    ``t``, which comes back with length k on that axis.

    Bit for bit ``np.moveaxis(np.tensordot(t, mat, ([axis], [1])), -1, axis)``:
    the same transpose, 2-D ``dot`` and reshape, without the axis
    normalisation of ``tensordot`` and ``moveaxis``; ``axis`` must lie in
    ``range(t.ndim)``.
    """
    shape = t.shape
    n = len(shape)
    rest = shape[:axis] + shape[axis + 1:]
    front = [*range(axis), *range(axis + 1, n), axis]
    flat = t.transpose(front).reshape(math.prod(rest), shape[axis]).dot(mat.T)
    return flat.reshape(rest + (mat.shape[0],)).transpose(
        [*range(axis), n - 1, *range(axis, n - 1)])


def basis_state(layout: SubsystemLayout, labels: Sequence[str]) -> StateVector:
    return make_state(layout, [(tuple(labels), 1.0)])


def tensor(a: StateVector | StateBatch, b: StateVector) -> StateVector | StateBatch:
    """Tensor product (of each state of a batch ``a``); subsystem names must
    be disjoint."""
    overlap = set(a.layout.names) & set(b.layout.names)
    if overlap:
        raise LayoutConflictError(f"tensor operands share subsystem names {sorted(overlap)}")
    layout = SubsystemLayout(a.layout.subsystems + b.layout.subsystems)
    rows = (a.rows()[:, :, None] * b.amplitudes).reshape(-1, layout.dimension)
    if isinstance(a, StateBatch):
        return StateBatch(layout, rows)
    return StateVector(layout, rows.reshape(-1))


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if a.layout != b.layout:
        raise LayoutMismatchError("inner product requires identical layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply(op: LinearOperator, s: StateVector) -> StateVector:
    if op.layout_in != s.layout:
        raise LayoutMismatchError("operator input layout does not match state layout")
    return StateVector(op.layout_out, op.matrix @ s.amplitudes)


def density(s: StateVector) -> DensityOperator:
    """Pure-state projector |s><s|."""
    return DensityOperator(s.layout, np.outer(s.amplitudes, s.amplitudes.conj()))


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out everything except ``keep``; result preserves layout order."""
    keep = set(keep)
    if not keep:
        raise InvalidPartitionError("partial trace must keep at least one subsystem")
    kept_axes = sorted(rho.layout.axis(name) for name in keep)
    names = rho.layout.names
    dims = rho.layout.dims
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [i if i not in kept_axes else n + i for i in range(n)]
    out_idx = kept_axes + [n + i for i in kept_axes]
    reduced = np.einsum(t, row_idx + col_idx, out_idx)
    kept_names = [names[i] for i in kept_axes]
    sub = rho.layout.sublayout(kept_names)
    d = sub.dimension
    return DensityOperator(sub, reduced.reshape(d, d))


def merged_register(
    layout: SubsystemLayout,
    parts: Sequence[str],
    new_name: str,
    label_map: Mapping[tuple[str, ...], str],
) -> Subsystem:
    """The register ``new_name`` that groups ``parts`` of ``layout``.

    Its labels are the lexicographic product of the part labels, renamed
    through ``label_map``; unnamed product labels keep tuple form.
    """
    subs = [layout.subsystem(p) for p in parts]
    for key in label_map:
        if len(key) != len(subs):
            raise UnknownLabelError(f"label_map key {key!r} does not match parts")
        for sub, label in zip(subs, key):
            sub.index_of(label)
    values = list(label_map.values())
    if len(set(values)) != len(values):
        raise NonInjectiveLabelMapError("label_map assigns one name to several label tuples")
    merged = tuple(label_map.get(combo, "(" + ",".join(combo) + ")")
                   for combo in itertools.product(*(s.labels for s in subs)))
    if len(set(merged)) != len(merged):
        raise NonInjectiveLabelMapError("grouped labels collide with auto-generated names")
    return Subsystem(new_name, merged)


def group_layout(
    layout: SubsystemLayout,
    parts: Sequence[str],
    register: Subsystem,
) -> SubsystemLayout:
    """Replace ``parts`` by ``register``, placed at the first part's position.

    The register's dimension must be the product of the parts' dimensions.
    """
    if len(parts) < 2 or len(set(parts)) != len(parts):
        raise InvalidPartitionError("grouping needs at least two distinct parts")
    spanned = math.prod(layout.subsystem(p).dimension for p in parts)
    if register.dimension != spanned:
        raise LayoutMismatchError(
            f"register {register.name!r} has dimension {register.dimension}, "
            f"parts {tuple(parts)} span {spanned}"
        )
    part_set = set(parts)
    out: list[Subsystem] = []
    for sub in layout.subsystems:
        if sub.name == parts[0]:
            out.append(register)
        elif sub.name not in part_set:
            out.append(sub)
    return SubsystemLayout(tuple(out))


def group_state(
    state: StateVector | StateBatch,
    parts: Sequence[str],
    register: Subsystem,
) -> StateVector | StateBatch:
    """Re-express a state (each state of a batch) over the layout with
    ``parts`` grouped into ``register`` (see ``group_layout``).

    Pure index re-association: amplitudes are permuted, never recomputed.
    """
    layout = state.layout
    new_layout = group_layout(layout, parts, register)
    part_axes = [layout.axis(p) for p in parts]
    part_set = set(part_axes)
    order = [0]
    for i in range(len(layout.subsystems)):
        if i == part_axes[0]:
            order.extend(a + 1 for a in part_axes)
        elif i not in part_set:
            order.append(i + 1)
    rows = state.rows()
    t = rows.reshape((len(rows),) + layout.dims).transpose(order)
    return state.with_rows(new_layout, t.reshape(len(rows), new_layout.dimension))
