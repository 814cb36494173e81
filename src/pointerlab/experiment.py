"""Transcripts of nested-measurement protocols and their certainty analysis.

A protocol (in the bundled scenario, a quantum coin entangled with a spin,
measured by two inside agents whose registers merge with the measured
systems into laboratory registers, then by two outside agents who measure
whole laboratories in superposition bases) runs as a sequence of steps,
each kept as a stage.  The module answers joint-outcome queries and
implements two rules for when an agent may call a proposition certain:

* premeasurement semantics: condition on the agent's record and propagate;
* decoherent semantics: a proposition is certain only if every consulted
  environment-coupling model leaves it true with probability one after the
  environment is traced out and the record conditioned on.

The second rule blocks the inference chain that otherwise produces a joint
prediction contradicting the final-stage statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ExecutionError,
    ImpossibleOutcomeError,
    PointerLabError,
    UnknownLabelError,
    UnknownSubsystemError,
)
from .hilbert import (
    PRUNE_PROB,
    DensityOperator,
    StateVector,
    Subsystem,
    group_state,
    partial_trace,
)
from .measurement import (
    Basis,
    MeasurementSpec,
    OutcomeDistribution,
    attach_environment,
    born,
    condition,
    environment_couple,
    outcome_probability,
    pointer_reduce,
    premeasure,
)

CERTAIN_TOL = 1e-9


@dataclass(frozen=True)
class GroupStep:
    """Merge ``parts`` into ``register``, whose labels were resolved once
    (see ``hilbert.merged_register``)."""

    parts: tuple[str, ...]
    register: Subsystem


@dataclass(frozen=True, eq=False)
class CoupleStep:
    """One-shot environment coupling; the environment register is attached
    on the fly (ready level plus one record level per branch)."""

    environment: str
    branches: tuple[StateVector, ...]


# A premeasurement step is its MeasurementSpec: the basis is built once.
Step = MeasurementSpec | GroupStep | CoupleStep


def apply_step(state: StateVector, step: Step) -> StateVector:
    if isinstance(step, MeasurementSpec):
        return premeasure(state, step)
    if isinstance(step, GroupStep):
        return group_state(state, step.parts, step.register)
    if isinstance(step, CoupleStep):
        extended, rec_labels = attach_environment(
            state, step.environment, len(step.branches)
        )
        return environment_couple(extended, step.branches, step.environment, rec_labels)
    raise TypeError(f"unknown step {step!r}")


@dataclass(frozen=True, eq=False)
class Stage:
    name: str
    state: StateVector


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """Stage-by-stage record: stages[i] is the state after steps[i]
    (steps[0] is None, the declared initial state)."""

    stages: tuple[Stage, ...]
    steps: tuple[Step | None, ...]

    @property
    def final_state(self) -> StateVector:
        return self.stages[-1].state

    def stage(self, name: str) -> Stage:
        for st in self.stages:
            if st.name == name:
                return st
        raise UnknownLabelError(f"no stage named {name!r}")

    def agent_premeasure(self, agent: str) -> tuple[int, MeasurementSpec]:
        for i, step in enumerate(self.steps):
            if isinstance(step, MeasurementSpec) and step.apparatus == agent:
                return i, step
        raise UnknownSubsystemError(f"no premeasurement with apparatus {agent!r}")

    def replay(self, state: StateVector, from_index: int) -> StateVector:
        for step in self.steps[from_index + 1:]:
            state = apply_step(state, step)  # type: ignore[arg-type]
        return state


def run_transcript(initial: StateVector, named_steps: Sequence[tuple[str, Step]],
                   initial_name: str = "initial") -> ProtocolTranscript:
    """Apply the named steps in order, keeping every stage.  A failing step
    raises ExecutionError naming its 1-based action index and stage name."""
    stages = [Stage(initial_name, initial)]
    steps: list[Step | None] = [None]
    state = initial
    for i, (name, step) in enumerate(named_steps, start=1):
        try:
            state = apply_step(state, step)
        except PointerLabError as exc:
            raise ExecutionError(f"action {i} ({name}): {exc}") from exc
        stages.append(Stage(name, state))
        steps.append(step)
    return ProtocolTranscript(tuple(stages), tuple(steps))


# --------------------------------------------------------------------------
# Joint outcomes and certainty inference
# --------------------------------------------------------------------------


def joint_outcome(transcript: ProtocolTranscript, registers: Sequence[str]) -> OutcomeDistribution:
    """Born distribution over apparatus records at the final stage, labeled
    by the measured-basis outcome names rather than by raw record levels."""
    final = transcript.final_state
    targets = []
    renames: list[Mapping[str, str]] = []
    for reg in registers:
        _, step = transcript.agent_premeasure(reg)
        basis = Basis.computational(final.layout, reg, labels=step.outcome_labels)
        targets.append((reg, basis))
        renames.append(step.record_to_outcome())
    dist = born(final, targets)
    entries = []
    for labels, p in dist.entries:
        entries.append((tuple(m[l] for m, l in zip(renames, labels)), p))
    entries.sort(key=lambda e: e[0])
    return OutcomeDistribution(tuple(entries))


@dataclass(frozen=True, eq=False)
class Proposition:
    """A claim an agent may assert: either a register currently holds a
    basis outcome (is_in_state) or a later measurement will produce one
    (will_obtain)."""

    subject: str
    basis: Basis
    predicate: str
    quantifier: str  # "will_obtain" | "is_in_state"

    def __post_init__(self):
        if self.quantifier not in ("will_obtain", "is_in_state"):
            raise UnknownLabelError(f"unknown quantifier {self.quantifier!r}")
        if self.predicate not in self.basis.labels:
            raise UnknownLabelError(
                f"predicate {self.predicate!r} not among basis labels {self.basis.labels}"
            )


@dataclass(frozen=True, eq=False)
class Statement:
    """A named inference: ``observer``, having seen ``outcome`` on their own
    apparatus, asserts ``prop``."""

    name: str
    observer: str
    outcome: str
    prop: Proposition


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Hypothetical one-shot coupling: the orthonormal branches, over some
    registers in layout order, that the environment records."""

    name: str
    branches: tuple[StateVector, ...]


@dataclass(frozen=True, eq=False)
class CertaintyVerdict:
    """certain / refuted / undetermined, with the conditional distribution
    as evidence (per consulted model under decoherent semantics)."""

    kind: str
    conditional: OutcomeDistribution
    evidence: tuple[tuple[str, OutcomeDistribution], ...] = ()


def _kind_from_probs(probs: Sequence[float]) -> str:
    if all(p >= 1.0 - CERTAIN_TOL for p in probs):
        return "certain"
    if all(p <= CERTAIN_TOL for p in probs):
        return "refuted"
    return "undetermined"


def _evaluate_prop(transcript: ProtocolTranscript, state: StateVector,
                   stage_index: int, prop: Proposition) -> OutcomeDistribution:
    if prop.quantifier == "will_obtain":
        state = transcript.replay(state, stage_index)
        return born(state, [(prop.subject, prop.basis)])
    # is_in_state: evaluate as soon as the subject register exists (later
    # steps may consume it by grouping).
    i = stage_index
    while prop.subject not in state.layout.names:
        i += 1
        if i >= len(transcript.steps):
            raise UnknownSubsystemError(
                f"proposition subject {prop.subject!r} never exists after stage {stage_index}"
            )
        state = apply_step(state, transcript.steps[i])  # type: ignore[arg-type]
    return born(state, [(prop.subject, prop.basis)])


def certainty(
    transcript: ProtocolTranscript,
    observer: str,
    observed: str,
    prop: Proposition,
    semantics: str = "premeasurement",
    models: Sequence[EnvironmentModel] | None = None,
) -> CertaintyVerdict:
    """Decide whether ``observer``, having seen ``observed`` on their own
    apparatus, may assert ``prop``.

    Premeasurement semantics conditions the observer's stage state on the
    record and propagates.  Decoherent semantics instead couples each
    environment model at the observer's stage, conditions on the record,
    and requires the proposition to hold with probability one under every
    model; the Born rule then sums over the environment, which weighs the
    pointer mixture's branches.  The engine never tries to discriminate
    between the consulted models: doing so would take a further measurement
    on the measured system itself, which is incompatible with the rest of
    the protocol, so the model family stays whole and caps what the
    observer may call certain.
    """
    idx, step = transcript.agent_premeasure(observer)
    stage_state = transcript.stages[idx].state
    app_basis = Basis.computational(stage_state.layout, step.apparatus)
    if observed in app_basis.labels:
        out_i = app_basis.labels.index(observed)
    elif observed in step.basis.labels:
        out_i = app_basis.labels.index(step.outcome_labels[step.basis.labels.index(observed)])
    else:
        raise UnknownLabelError(
            f"{observed!r} is neither a record nor a basis label of {observer!r}"
        )
    p_obs = outcome_probability(stage_state, step.apparatus, app_basis, out_i)
    if p_obs <= PRUNE_PROB:
        raise ImpossibleOutcomeError(
            f"record {observed!r} has probability {p_obs:.3g} at {observer!r}'s stage"
        )

    if semantics == "premeasurement":
        conditioned = condition(stage_state, step.apparatus, app_basis, out_i)
        dist = _evaluate_prop(transcript, conditioned, idx, prop)
        kind = _kind_from_probs([dist.probability((prop.predicate,))])
        return CertaintyVerdict(kind, dist)

    if semantics != "decoherent":
        raise PointerLabError(f"unknown semantics {semantics!r}")
    if not models:
        raise PointerLabError("decoherent semantics needs a non-empty model list")

    # The environment stays on as a spectator register: no later step
    # touches it and born sums over it, so one replay covers every branch.
    evidence = []
    for model in models:
        coupled = apply_step(stage_state, CoupleStep(model.name, model.branches))
        conditioned = condition(coupled, step.apparatus, app_basis, out_i)
        evidence.append((model.name, _evaluate_prop(transcript, conditioned, idx, prop)))

    probs = [dist.probability((prop.predicate,)) for _, dist in evidence]
    return CertaintyVerdict(_kind_from_probs(probs), evidence[0][1], tuple(evidence))


# --------------------------------------------------------------------------
# Canonical reports
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecoherenceComparison:
    """Two environment couplings of the same premeasured state: different
    pointer mixtures, identical once the register the agent cannot see is
    traced out."""

    rho_coarse: DensityOperator
    rho_fine: DensityOperator
    full_max_difference: float
    reduced_coarse: DensityOperator
    reduced_fine: DensityOperator
    reduced_max_difference: float
    reduced_equal: bool
    branch_weights_coarse: tuple[float, ...]
    branch_weights_fine: tuple[float, ...]
    apparatus_marginal_coarse: OutcomeDistribution
    apparatus_marginal_fine: OutcomeDistribution


def decoherence_compare(state: StateVector, models: Sequence[EnvironmentModel],
                        hidden: Sequence[str], apparatus: str) -> DecoherenceComparison:
    """Couple ``state`` to each of two environment models (coarse first) and
    compare the pointer mixtures, in full and with the ``hidden`` registers
    traced out, along with the record marginal of ``apparatus``."""
    if len(models) != 2:
        raise PointerLabError(f"decoherence_compare needs two models, got {len(models)}")

    def couple_and_reduce(model: EnvironmentModel) -> tuple[DensityOperator, tuple[float, ...]]:
        coupled = apply_step(state, CoupleStep(model.name, model.branches))
        rho = pointer_reduce(coupled, model.name)
        on_targets = partial_trace(rho, model.branches[0].layout.names).matrix
        weights = tuple(
            float(np.real(np.vdot(b.amplitudes, on_targets @ b.amplitudes)))
            for b in model.branches
        )
        return rho, weights

    (rho_coarse, w_coarse), (rho_fine, w_fine) = map(couple_and_reduce, models)
    full_diff = float(np.max(np.abs(rho_coarse.matrix - rho_fine.matrix)))

    visible = [n for n in state.layout.names if n not in hidden]
    red_coarse = partial_trace(rho_coarse, visible)
    red_fine = partial_trace(rho_fine, visible)
    red_diff = float(np.max(np.abs(red_coarse.matrix - red_fine.matrix)))

    def apparatus_marginal(rho: DensityOperator) -> OutcomeDistribution:
        marg = partial_trace(rho, {apparatus})
        entries = []
        for i, label in enumerate(marg.layout.subsystem(apparatus).labels):
            p = float(marg.matrix[i, i].real)
            if p > PRUNE_PROB:
                entries.append(((label,), p))
        return OutcomeDistribution(tuple(entries))

    return DecoherenceComparison(
        rho_coarse=rho_coarse,
        rho_fine=rho_fine,
        full_max_difference=full_diff,
        reduced_coarse=red_coarse,
        reduced_fine=red_fine,
        reduced_max_difference=red_diff,
        reduced_equal=red_diff <= 1e-9,
        branch_weights_coarse=w_coarse,
        branch_weights_fine=w_fine,
        apparatus_marginal_coarse=apparatus_marginal(rho_coarse),
        apparatus_marginal_fine=apparatus_marginal(rho_fine),
    )


@dataclass(frozen=True, eq=False)
class ConsistencyAudit:
    """Chained certainty claims versus the directly computed joint outcome,
    under both semantics.  ``statement_1_decoherent`` is the verdict on the
    statement checked again under decoherent semantics (in the FR chain,
    statement 1)."""

    statements_premeasurement: tuple[tuple[str, CertaintyVerdict], ...]
    chain_derivable: bool
    chained_claim_probability: float
    computed_probability: float
    contradiction_premeasurement: bool
    statement_1_decoherent: CertaintyVerdict
    contradiction_decoherent: bool
    decoherent_models: tuple[str, ...]


def consistency_audit(transcript: ProtocolTranscript, chain: Sequence[Statement],
                      joint: Sequence[tuple[str, str]], decoherent: str,
                      models: Sequence[EnvironmentModel]) -> ConsistencyAudit:
    """Run a statement chain both ways against one joint outcome.

    ``joint`` pairs each outer apparatus with a measured-basis label; the
    chain, when every statement is certain under premeasurement semantics,
    composes into the claim that this joint outcome is impossible.  The
    final state assigning it positive probability is a contradiction.
    Under decoherent semantics the statement named ``decoherent`` is checked
    again against ``models``; once it is no longer certain, no chained claim
    exists and the flag clears.
    """
    by_name = {s.name: s for s in chain}
    if decoherent not in by_name:
        raise UnknownLabelError(f"no statement named {decoherent!r} in the chain")
    statements = tuple(
        (s.name, certainty(transcript, s.observer, s.outcome, s.prop)) for s in chain
    )
    chain_derivable = all(v.kind == "certain" for _, v in statements)
    registers, labels = zip(*joint)
    computed = joint_outcome(transcript, registers).probability(labels)
    contradiction = chain_derivable and computed > PRUNE_PROB

    rechecked = by_name[decoherent]
    dec = certainty(transcript, rechecked.observer, rechecked.outcome, rechecked.prop,
                    semantics="decoherent", models=models)

    return ConsistencyAudit(
        statements_premeasurement=statements,
        chain_derivable=chain_derivable,
        chained_claim_probability=0.0 if chain_derivable else float("nan"),
        computed_probability=computed,
        contradiction_premeasurement=contradiction,
        statement_1_decoherent=dec,
        contradiction_decoherent=contradiction and dec.kind == "certain",
        decoherent_models=tuple(m.name for m in models),
    )
