"""The library's own input checks: each bad argument raises one error type
with one message, whoever calls it."""

import math

import numpy as np
import pytest

import pointerlab as pl
from pointerlab.errors import (
    BasisCoverageError,
    DegenerateStateError,
    IncompleteBranchingError,
    InvalidPartitionError,
    LayoutConflictError,
    LayoutMismatchError,
    NonInjectiveLabelMapError,
    NonOrthonormalBasisError,
    ScenarioParseError,
    UnknownLabelError,
)
from pointerlab.experiment import run_transcript

H = 1 / math.sqrt(2)
NAN = math.nan
R = pl.SubsystemLayout.of(("R", ("head", "tail")))
S = pl.SubsystemLayout.of(("S", ("up", "down")))
RS = pl.SubsystemLayout.of(("R", ("head", "tail")), ("S", ("up", "down")))
HEAD, TAIL = pl.StateVector(R, [1, 0]), pl.StateVector(R, [0, 1])
R_BASIS = pl.Basis(("head", "tail"), (HEAD, TAIL))
BELL = pl.StateVector(RS, [H, 0, 0, H])


def _density(matrix):
    return pl.DensityOperator(R, np.array(matrix, dtype=complex))


CHECKS = [
    # Constructors.
    pytest.param(lambda: pl.Subsystem("R", ()), InvalidPartitionError,
                 "subsystem 'R' has no basis labels", id="subsystem-no-labels"),
    pytest.param(lambda: pl.Subsystem("R", ("head", "head")), LayoutConflictError,
                 "duplicate basis label in subsystem 'R'", id="subsystem-repeated-label"),
    pytest.param(lambda: pl.SubsystemLayout(R.subsystems * 2), LayoutConflictError,
                 "duplicate subsystem names in layout: ['R', 'R']", id="layout-repeated-name"),
    pytest.param(lambda: pl.StateVector(R, [1, 0, 0]), LayoutMismatchError,
                 "amplitude vector of length (3,) does not match layout dimension 2",
                 id="state-shape"),
    pytest.param(lambda: pl.StateVector(R, [1, 1]), DegenerateStateError,
                 f"state norm {math.sqrt(2)} not 1 within 1e-09", id="state-norm"),
    # A NaN norm is never 1, nor is a NaN entry Hermitian or a weight.
    pytest.param(lambda: pl.StateVector(R, [NAN, 0]), DegenerateStateError,
                 "state norm nan not 1 within 1e-09", id="state-nan"),
    # Raw amplitudes whose norm overflows, or is inf or NaN, are named as such.
    pytest.param(lambda: pl.make_state(R, [(("head",), 1e200), (("tail",), 1e200)]),
                 DegenerateStateError, "state norm inf is out of floating-point range",
                 id="make-state-overflow"),
    pytest.param(lambda: pl.make_state(R, [(("head",), math.inf), (("tail",), 1)]),
                 DegenerateStateError, "state norm inf is out of floating-point range",
                 id="make-state-inf"),
    pytest.param(lambda: pl.make_state(R, [(("head",), NAN), (("tail",), 1)]),
                 DegenerateStateError, "state norm nan is out of floating-point range",
                 id="make-state-nan"),
    # Amplitudes whose norm underflows are not the zero vector.
    pytest.param(lambda: pl.make_state(R, [(("head",), 1e-200), (("tail",), 1e-200)]),
                 DegenerateStateError, "state norm 0.0 is out of floating-point range",
                 id="make-state-underflow"),
    pytest.param(lambda: pl.make_state(R, [(("head",), 1), (("head",), -1)]),
                 DegenerateStateError, "state terms sum to the zero vector",
                 id="make-state-zero"),
    pytest.param(lambda: pl.StateBatch(R, [[1, 0], [NAN, 0]]), DegenerateStateError,
                 "state 1 of the batch has norm nan, not 1 within 1e-09", id="batch-nan"),
    # A batch names its first state that is not unit, not its worst.
    pytest.param(lambda: pl.StateBatch(R, [[0, 1], [1, 1], [3, 0]]), DegenerateStateError,
                 f"state 1 of the batch has norm {math.sqrt(2)}, not 1 within 1e-09",
                 id="batch-first-off-state"),
    pytest.param(lambda: pl.LinearOperator(R, R, np.eye(3)), LayoutMismatchError,
                 "operator shape (3, 3), expected (2, 2)", id="operator-shape"),
    pytest.param(lambda: pl.LinearOperator(R, RS, np.eye(4)[:, :2]),
                 LayoutMismatchError, "unitary operator must be square",
                 id="operator-unitary-not-square"),
    pytest.param(lambda: pl.LinearOperator(R, R, np.array([[NAN, 0], [0, 1]])),
                 LayoutConflictError, "operator is not unitary",
                 id="operator-unitary-nan"),
    pytest.param(lambda: pl.LinearOperator(R, R, [[1e200, 0], [0, 1]]),
                 LayoutConflictError, "operator is not unitary",
                 id="operator-unitary-overflow"),
    pytest.param(lambda: _density(np.eye(3) / 3), LayoutMismatchError,
                 "density shape (3, 3), expected (2, 2)", id="density-shape"),
    pytest.param(lambda: _density([[0.5, 0.5], [0, 0.5]]), LayoutConflictError,
                 "density operator not Hermitian within 1e-9", id="density-hermitian"),
    pytest.param(lambda: _density([[1, 0], [0, 1]]), LayoutConflictError,
                 "density trace (2+0j) not 1 within 1e-9", id="density-trace"),
    pytest.param(lambda: _density([[1.5, 0], [0, -0.5]]), LayoutConflictError,
                 "density operator has eigenvalue below -1e-9", id="density-negative"),
    pytest.param(lambda: _density([[NAN, 0], [0, 1]]), LayoutConflictError,
                 "density operator not Hermitian within 1e-9", id="density-nan"),
    pytest.param(lambda: _density([[math.inf, 0], [0, 1]]), LayoutConflictError,
                 "density operator not Hermitian within 1e-9", id="density-inf"),
    pytest.param(lambda: pl.Basis(("head",), (HEAD, TAIL)), NonOrthonormalBasisError,
                 "basis needs one label per vector", id="basis-label-count"),
    pytest.param(lambda: pl.Basis(("head", "up"), (HEAD, pl.StateVector(S, [1, 0]))),
                 LayoutMismatchError, "basis vectors live over different layouts",
                 id="basis-mixed-layouts"),
    # Raw rows: NaN fails the Gram check, and an overflowing norm reads inf.
    pytest.param(lambda: pl.Basis.from_rows(("head", "tail"), R, [[NAN, 0], [0, 1]]),
                 NonOrthonormalBasisError, "basis not orthonormal: Gram[0,0] = nan+0j",
                 id="basis-rows-nan"),
    pytest.param(lambda: pl.Basis.from_rows(("head", "tail"), R, [[1e200 + 1e200j, 0], [0, 1]]),
                 NonOrthonormalBasisError, "basis not orthonormal: Gram[0,0] = inf+0j",
                 id="basis-rows-overflow"),
    pytest.param(lambda: pl.MeasurementSpec("R", R_BASIS, "A", "a0", ("a1",)),
                 NonOrthonormalBasisError, "need exactly one outcome label per basis vector",
                 id="spec-outcome-count"),
    pytest.param(lambda: pl.MeasurementSpec("R", R_BASIS, "A", "a0", ("a1", "a1")),
                 NonOrthonormalBasisError, "outcome labels must be distinct",
                 id="spec-repeated-outcome"),
    pytest.param(lambda: pl.OutcomeDistribution(((("head",), 1.1), (("tail",), -0.1))),
                 BasisCoverageError, "negative probability -0.1 for ('tail',)",
                 id="distribution-negative"),
    pytest.param(lambda: pl.OutcomeDistribution(((("head",), 0.25), (("tail",), 0.25))),
                 BasisCoverageError, "probabilities sum to 0.5, not 1", id="distribution-sum"),
    pytest.param(lambda: pl.OutcomeDistribution(((("a",), NAN),)), BasisCoverageError,
                 "probabilities sum to nan, not 1", id="distribution-nan"),
    pytest.param(lambda: pl.OutcomeDistribution(((("head",), 1.0),)).probability("tail"),
                 UnknownLabelError, "no outcome ('tail',) in distribution",
                 id="distribution-unknown-outcome"),
    pytest.param(lambda: pl.Proposition("R", R_BASIS, "head", "may_obtain"), UnknownLabelError,
                 "unknown quantifier 'may_obtain'", id="proposition-quantifier"),
    pytest.param(lambda: pl.Proposition("R", R_BASIS, "edge", "will_obtain"),
                 UnknownLabelError, "predicate 'edge' not among basis labels ('head', 'tail')",
                 id="proposition-predicate"),
    # Functions.
    pytest.param(lambda: pl.born(BELL, [("S", R_BASIS)]), LayoutMismatchError,
                 "basis for 'S' has the wrong layout", id="born-wrong-layout"),
    pytest.param(lambda: pl.born(BELL, [("R", None), ("R", R_BASIS)]), LayoutConflictError,
                 "born targets must name distinct subsystems", id="born-repeated-target"),
    pytest.param(lambda: pl.branch_basis([]), IncompleteBranchingError,
                 "at least one branch is required", id="branch-basis-empty"),
    pytest.param(lambda: pl.branch_basis([HEAD, HEAD]), NonOrthonormalBasisError,
                 "basis not orthonormal: Gram[0,1] = 1+0j", id="branch-basis-repeated"),
    pytest.param(lambda: pl.merged_register(RS, ("R", "S"), "G", {("head",): "h"}),
                 UnknownLabelError, "label_map key ('head',) does not match parts",
                 id="merged-key-arity"),
    pytest.param(lambda: pl.merged_register(RS, ("R", "S"), "G",
                                            {("head", "up"): "(tail,down)"}),
                 NonInjectiveLabelMapError, "grouped labels collide with auto-generated names",
                 id="merged-name-collision"),
    pytest.param(lambda: pl.relative_states(HEAD, "R", R_BASIS), InvalidPartitionError,
                 "relative states need at least two subsystems", id="relative-one-register"),
    pytest.param(lambda: pl.triortho_verdict(BELL, (("R",), ("S",))), InvalidPartitionError,
                 "tripartition must have exactly three parts", id="triortho-two-parts"),
    pytest.param(lambda: pl.pointer_reduce(BELL, "E"), LayoutMismatchError,
                 "layout has no subsystem 'E'", id="pointer-reduce-unknown-environment"),
    pytest.param(lambda: run_transcript(BELL, ()).stage("after"), UnknownLabelError,
                 "no stage named 'after'", id="transcript-unknown-stage"),
    # An old-order (message, line, column) call gives the column as the hint.
    pytest.param(lambda: ScenarioParseError("msg", 4, 9), TypeError,
                 "ScenarioParseError hint must be a str, not int", id="parse-error-hint"),
]


@pytest.mark.parametrize("call, error, message", CHECKS)
def test_each_input_check_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("call, gram", [
    (lambda: pl.branch_basis([HEAD, HEAD]), (0, 1, 1)),
    # A state within 1e-9 of unit norm whose squared norm is not.
    (lambda: pl.branch_basis([pl.StateVector(R, [1 + 0.7e-9, 0]), TAIL]),
     (0, 0, (1 + 0.7e-9) ** 2)),
], ids=["overlap", "norm"])
def test_branch_basis_failures_carry_their_gram_entry(call, gram):
    with pytest.raises(NonOrthonormalBasisError) as exc:
        call()
    assert exc.value.gram == gram
