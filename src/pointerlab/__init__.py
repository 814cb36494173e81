"""pointerlab: labeled state-vector simulation of nested measurement chains,
with basis-decomposition analysis and decoherence-based certainty semantics.
"""

from .errors import (
    ApparatusNotReadyError,
    BasisCoverageError,
    DegenerateStateError,
    ExecutionError,
    ImpossibleOutcomeError,
    IncompleteBranchingError,
    InvalidPartitionError,
    LayoutConflictError,
    LayoutMismatchError,
    NonInjectiveLabelMapError,
    NonOrthonormalBasisError,
    PointerLabError,
    ScenarioParseError,
    UnknownLabelError,
    UnknownSubsystemError,
)
from .hilbert import (
    DensityOperator,
    LinearOperator,
    StateBatch,
    StateVector,
    Subsystem,
    SubsystemLayout,
    apply,
    basis_state,
    density,
    group_layout,
    group_state,
    inner,
    make_state,
    merged_register,
    partial_trace,
    tensor,
)
from .measurement import (
    Basis,
    MeasurementSpec,
    OutcomeDistribution,
    attach_environment,
    born,
    branch_basis,
    condition,
    conditioned_branches,
    correlating_unitary,
    environment_couple,
    outcome_probability,
    pointer_reduce,
    premeasure,
)
from .decomposition import (
    Decomposition,
    Term,
    UniquenessVerdict,
    relative_states,
    rewrite,
    triortho_verdict,
)
from .experiment import (
    CertaintyVerdict,
    Claim,
    ConsistencyAudit,
    CoupleStep,
    DecoherenceComparison,
    GroupStep,
    Proposition,
    ProtocolTranscript,
    certainties,
    certainty,
    joint_outcome,
)
from .runner import consistency_audit, decoherence_compare, run_protocol

__version__ = "0.1.0"
