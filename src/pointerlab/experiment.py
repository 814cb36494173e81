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

Certainty claims are answered from one replay of the later steps: the
states they condition on go through each step together, as one StateBatch
(see ``certainties``), and the consistency audit judges those answers.
A model is a ``CoupleStep`` the run does not apply: neither certainty nor
``decoherence_compare`` attaches its environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ExecutionError,
    PointerLabError,
    UnknownLabelError,
    UnknownSubsystemError,
)
from .hilbert import (
    ATOL,
    MAX_AMPLITUDES,
    PRUNE_PROB,
    DensityOperator,
    StateBatch,
    StateVector,
    Subsystem,
    SubsystemLayout,
    group_state,
    partial_trace,
)
from .measurement import (
    Basis,
    MeasurementSpec,
    OutcomeDistribution,
    attach_environment,
    born,
    branch_components,
    conditioned_branches,
    environment_couple,
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
    on the fly (ready level plus one record level per branch).  ``branches``
    was checked orthonormal when it was made: by the parser, or by
    ``branch_basis`` from plain vectors.  A declared model is a CoupleStep
    that no transcript applies, named by its ``environment``."""

    environment: str
    branches: Basis


# A premeasurement step is its MeasurementSpec: the basis is built once.
Step = MeasurementSpec | GroupStep | CoupleStep


def apply_step(state: StateVector | StateBatch, step: Step) -> StateVector | StateBatch:
    """The state (each state of a batch) after ``step``."""
    if isinstance(step, MeasurementSpec):
        return premeasure(state, step)
    if isinstance(step, GroupStep):
        return group_state(state, step.parts, step.register)
    if isinstance(step, CoupleStep):
        extended, rec_labels = attach_environment(state, step.environment, step.branches.size)
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
        return _premeasurement(self.steps, agent)


def _premeasurement(steps: Sequence[Step | None], agent: str) -> tuple[int, MeasurementSpec]:
    for i, step in enumerate(steps):
        if isinstance(step, MeasurementSpec) and step.apparatus == agent:
            return i, step
    raise UnknownSubsystemError(f"no premeasurement with apparatus {agent!r}")


def run_transcript(initial: StateVector, named_steps: Sequence[tuple[str, Step]]
                   ) -> ProtocolTranscript:
    """Apply the named steps in order, keeping every stage.  A failing step
    raises ExecutionError naming its 1-based action index and stage name."""
    stages = [Stage("initial", initial)]
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


@dataclass(frozen=True, eq=False)
class Claim:
    """One certainty question: may ``observer``, having seen ``observed`` on
    their own apparatus, assert ``prop`` under ``semantics`` (decoherent
    semantics consults ``models``)?"""

    observer: str
    observed: str
    prop: Proposition
    semantics: str = "premeasurement"
    models: tuple[CoupleStep, ...] = ()


def certainty(
    transcript: ProtocolTranscript,
    observer: str,
    observed: str,
    prop: Proposition,
    semantics: str = "premeasurement",
    models: Sequence[CoupleStep] | None = None,
) -> CertaintyVerdict:
    """Decide whether ``observer``, having seen ``observed`` on their own
    apparatus, may assert ``prop``: the one-claim case of ``certainties``.

    Premeasurement semantics conditions the observer's stage state ψ on the
    record and propagates.  Decoherent semantics requires the proposition
    to hold with probability one under every environment model, whose
    evidence is what an environment coupled at the observer's stage would
    give once summed over, no later step touching it: the mixture of the
    statistics of its branches Q·P_k·ψ (Q projects onto the record, P_k
    onto branch k), each conditioned and propagated on its own
    (``measurement.conditioned_branches``).  Under both semantics (P = 1 is
    premeasurement's one branch) the record's weight in the branches,
    sum_k ‖Q·P_k·ψ‖², and in ψ itself, ‖Q·ψ‖², must each exceed 1e-12, else
    ImpossibleOutcomeError.  The engine never discriminates between the
    consulted models, which would take a further measurement on the
    measured system itself, so the model family caps what may be certain.
    """
    (result,) = certainties(transcript,
                            [Claim(observer, observed, prop, semantics, tuple(models or ()))])
    if isinstance(result, PointerLabError):
        raise result
    return result


@dataclass(frozen=True)
class _Part:
    """One distribution a claim needs: the states at stage ``start``
    conditioned on level ``outcome`` of ``apparatus`` along a model's
    ``branches`` (None: premeasurement's single branch), read through
    ``read`` = (stage index, subject, basis)."""

    start: int
    apparatus: str
    outcome: int
    branches: Basis | None
    read: tuple[int, str, Basis]


def certainties(
    transcript: ProtocolTranscript,
    claims: Sequence[Claim],
) -> tuple[CertaintyVerdict | PointerLabError, ...]:
    """Answer ``claims``, in order, with one replay of the transcript's
    later steps.

    Each premeasurement claim adds its record-conditioned stage state to the
    replay, and each decoherent claim adds, per model, the model's
    record-conditioned branches.  The states join the replay at their
    observer's stage and go through each later step together, as one
    StateBatch of at most MAX_AMPLITUDES amplitudes (more go in consecutive
    chunks), so each stage is replayed once, whatever the number of claims
    and observers.  Each entry of the result is the claim's verdict, or the
    error ``certainty`` raises for that claim alone.
    """
    plans: list[tuple[_Part, ...] | PointerLabError] = []
    made: dict[tuple[int, int, Basis | None], tuple[StateBatch, tuple[float, ...]]] = {}
    for claim in claims:
        try:
            plan = _parts(transcript, claim)
            # Condition before the replay, so that a record of zero weight
            # fails its claim alone and leaves the others one replay.
            for p in plan:
                if (p.start, p.outcome, p.branches) not in made:
                    state = transcript.stages[p.start].state
                    made[p.start, p.outcome, p.branches] = conditioned_branches(
                        state, p.branches, p.apparatus,
                        Basis.computational(state.layout, p.apparatus), p.outcome)
            plans.append(plan)
        except PointerLabError as exc:
            plans.append(exc)
    try:
        dists = iter(_evidence(transcript, [p for plan in plans if isinstance(plan, tuple)
                                            for p in plan], made))
        return tuple(plan if isinstance(plan, PointerLabError)
                     else _verdict(claim, [next(dists) for _ in plan])
                     for claim, plan in zip(claims, plans))
    except PointerLabError:
        pass
    # Some state failed a check in the replay: ask each part on its own, in
    # order, so that each claim reports the error it raises alone.
    results: list[CertaintyVerdict | PointerLabError] = []
    for claim, plan in zip(claims, plans):
        if isinstance(plan, tuple):
            try:
                plan = _verdict(claim, [_evidence(transcript, [part], made)[0] for part in plan])
            except PointerLabError as exc:
                plan = exc
        results.append(plan)
    return tuple(results)


def claim_plan(layouts: Sequence[SubsystemLayout], steps: Sequence[Step | None], observer: str,
               observed: str, subject: str, quantifier: str) -> tuple[int, int, int]:
    """The plan of a claim the parser and ``certainties`` share, from stage
    layouts and steps alone: (the observer's stage, the observed record's
    level, the read stage).  ``observed`` must be an ``outcomes=`` record or
    a measured-basis label naming one outcome (UnknownLabelError).
    is_in_state reads the first stage, from the observer's on, holding
    ``subject`` (a register: an apparatus subject's target); will_obtain
    reads the final stage, which must hold it (UnknownSubsystemError)."""
    start, step = _premeasurement(steps, observer)
    record = dict(zip(step.basis.labels, step.outcome_labels)).get(observed, observed)
    if record != observed and observed in step.outcome_labels:
        raise UnknownLabelError(f"outcome {observed!r} is both a record of {observer!r} and the "
                                f"basis label recorded as {record!r}")
    if record not in step.outcome_labels:
        raise UnknownLabelError(
            f"outcome {observed!r} is not a record or basis label of {observer!r}")
    if quantifier == "is_in_state":
        reads, where = range(start, len(layouts)), f"where {observer!r} measures"
    else:
        reads, where = [len(layouts) - 1], "at the final stage, where will_obtain reads it"
    read = next((j for j in reads if subject in layouts[j].axes), None)
    if read is None:
        raise UnknownSubsystemError(f"prop subject {subject!r} no longer exists {where}")
    return start, layouts[start].subsystem(observer).positions[record], read


def _parts(transcript: ProtocolTranscript, claim: Claim) -> tuple[_Part, ...]:
    """What ``claim`` needs from the replay: its plan and branch sets, from
    the transcript's steps and layouts, never its states.  A record of zero
    weight is judged where it is conditioned (``conditioned_branches``)."""
    prop = claim.prop
    start, record, read = claim_plan([st.state.layout for st in transcript.stages],
                                     transcript.steps, claim.observer, claim.observed,
                                     prop.subject, prop.quantifier)
    if claim.semantics not in ("premeasurement", "decoherent"):
        raise PointerLabError(f"unknown semantics {claim.semantics!r}")
    branch_sets = ((None,) if claim.semantics == "premeasurement"
                   else tuple(m.branches for m in claim.models))
    if not branch_sets:
        raise PointerLabError("decoherent semantics needs a non-empty model list")
    return tuple(_Part(start, claim.observer, record, b, (read, prop.subject, prop.basis))
                 for b in branch_sets)


def _verdict(claim: Claim, dists: Sequence[OutcomeDistribution]) -> CertaintyVerdict:
    kind = _kind_from_probs([d.probability((claim.prop.predicate,)) for d in dists])
    if claim.semantics == "premeasurement":
        return CertaintyVerdict(kind, dists[0])
    return CertaintyVerdict(kind, dists[0],
                            tuple((m.environment, d) for m, d in zip(claim.models, dists)))


def _evidence(transcript: ProtocolTranscript, parts: Sequence[_Part],
              made: Mapping[tuple[int, int, Basis | None], tuple[StateBatch, tuple[float, ...]]]
              ) -> list[OutcomeDistribution]:
    """One distribution per part, from one replay of the states the parts
    condition on (``made``); raises the first error any state meets."""
    rows: list[np.ndarray] = []
    starts: list[int] = []
    at: dict[tuple[int, int, Basis | None], list[tuple[int, float]]] = {}
    reads: dict[tuple[int, str, Basis], list[int]] = {}
    for part in parts:
        key = (part.start, part.outcome, part.branches)
        if key not in at:
            batch, weights = made[key]
            at[key] = [(len(rows) + i, w) for i, w in enumerate(weights)]
            rows.extend(batch.amplitudes)
            starts.extend(part.start for _ in weights)
        read = reads.setdefault(part.read, [])
        read.extend(r for r, _ in at[key] if r not in read)
    tables = _replay(transcript, rows, starts, reads)
    # A model's environment would stay a spectator of every later step, so
    # summing over it, as the Born rule does, mixes its branches' tables
    # with the branch weights; premeasurement semantics is the one branch.
    out = []
    for part in parts:
        mixed = at[part.start, part.outcome, part.branches]
        dists = [tables[r, part.read] for r, _ in mixed]
        out.append(OutcomeDistribution(tuple(
            (labels, sum(w * d.entries[i][1] for (_, w), d in zip(mixed, dists)))
            for i, (labels, _) in enumerate(dists[0].entries))))
    return out


def _replay(transcript: ProtocolTranscript, rows: Sequence[np.ndarray], starts: Sequence[int],
            reads: Mapping[tuple[int, str, Basis], Sequence[int]]
            ) -> dict[tuple[int, tuple[int, str, Basis]], OutcomeDistribution]:
    """Replay each of ``rows`` from its stage ``starts[r]`` through the later
    steps and read each of ``reads`` (stage index, subject, basis) from the
    rows it names: {(row, read): distribution}.  A batch holds at most
    max(1, MAX_AMPLITUDES // D_final) states, and more go in consecutive
    chunks; a state joins its chunk's batch at its own stage."""
    size = max(1, MAX_AMPLITUDES // transcript.final_state.layout.dimension)
    tables = {}
    for lo in range(0, len(rows), size):
        chunk = range(lo, min(lo + size, len(rows)))
        due: dict[int, list[tuple[tuple[int, str, Basis], set[int]]]] = {}
        for read, wanted in reads.items():
            here = {r for r in wanted if r in chunk}
            if here:
                due.setdefault(read[0], []).append((read, here))
        held: list[int] = []
        batch = None
        for j in range(min(starts[r] for r in chunk), max(due) + 1):
            if batch is not None:
                batch = apply_step(batch, transcript.steps[j])  # type: ignore[arg-type]
            joining = [r for r in chunk if starts[r] == j]
            if joining:
                batch = _joined(batch, transcript.stages[j].state.layout,
                                [rows[r] for r in joining])
                held += joining
            for read, here in due.get(j, ()):
                at = [i for i, r in enumerate(held) if r in here]
                chosen = batch if len(at) == len(held) else batch.take(at)
                for i, dist in zip(at, born(chosen, [read[1:]])):
                    tables[held[i], read] = dist
    return tables


def _joined(batch: StateBatch | None, layout: SubsystemLayout, rows: Sequence[np.ndarray]
            ) -> StateBatch:
    """``batch`` (if any) with ``rows`` appended.  A function of its own, so
    that no name in the replay loop keeps the old batch's memory alive."""
    new = np.stack(rows)
    return StateBatch(layout, new if batch is None else np.concatenate([batch.amplitudes, new]))


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


def decoherence_compare(state: StateVector, models: Sequence[CoupleStep],
                        hidden: Sequence[str], apparatus: str) -> DecoherenceComparison:
    """Trace each of two environment models (coarse first) out of ``state``
    and compare the pointer mixtures sum_k P_k|state><state|P_k, made from
    the branch components (``measurement.branch_components``), in full and
    with the ``hidden`` registers traced out, along with the record marginal
    of ``apparatus``.  Branch k's weight is ‖P_k·state‖²."""
    if len(models) != 2:
        raise PointerLabError(f"decoherence_compare needs two models, got {len(models)}")

    def traced_out(model: CoupleStep) -> tuple[DensityOperator, tuple[float, ...]]:
        comps = branch_components(state, model.branches)
        weights = tuple(float(np.vdot(c, c).real) for c in comps)
        return DensityOperator(state.layout, comps.T @ comps.conj()), weights

    (rho_coarse, w_coarse), (rho_fine, w_fine) = map(traced_out, models)
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
        reduced_equal=red_diff <= ATOL,
        branch_weights_coarse=w_coarse,
        branch_weights_fine=w_fine,
        apparatus_marginal_coarse=apparatus_marginal(rho_coarse),
        apparatus_marginal_fine=apparatus_marginal(rho_fine),
    )


@dataclass(frozen=True, eq=False)
class ConsistencyAudit:
    """Chained certainty claims versus the computed probability of the
    declared ``joint`` outcome, which a derivable chain claims is 0
    (``claimed_probability``; None if underivable).  ``recheck`` pairs the
    statement checked under decoherent semantics with its verdict."""

    statements_premeasurement: tuple[tuple[str, CertaintyVerdict], ...]
    chain_derivable: bool
    joint: tuple[tuple[str, str], ...]
    claimed_probability: float | None
    computed_probability: float
    contradiction_premeasurement: bool
    recheck: tuple[str, CertaintyVerdict]
    contradiction_decoherent: bool


def consistency_audit(transcript: ProtocolTranscript,
                      statements: Sequence[tuple[str, CertaintyVerdict | PointerLabError]],
                      recheck: tuple[str, CertaintyVerdict | PointerLabError],
                      joint: Sequence[tuple[str, str]]) -> ConsistencyAudit:
    """Judge the answers to a chain of named premeasurement-semantics claims
    against one joint outcome, under both semantics.

    ``statements`` pairs each statement's name with its answer from
    ``certainties`` (a verdict, or the error of its claim), and ``recheck``
    one statement's name with its answer under decoherent semantics.
    ``joint`` pairs each outer apparatus with a measured-basis label; the
    chain, when every statement is certain, composes into the claim that
    this joint outcome is impossible.  The final state assigning it
    positive probability is a contradiction.  Once the recheck is no longer
    certain, no chained claim exists and the flag clears.  Nothing is
    replayed here.
    """
    for name, answer in statements:
        if isinstance(answer, PointerLabError):
            raise answer
        if answer.evidence:
            raise PointerLabError(f"chain statement {name!r} has decoherent semantics; "
                                  "a chain is derived under premeasurement semantics")
    chain_derivable = all(v.kind == "certain" for _, v in statements)
    registers, labels = zip(*joint)
    computed = joint_outcome(transcript, registers).probability(labels)
    contradiction = chain_derivable and computed > PRUNE_PROB
    verdict = recheck[1]
    if isinstance(verdict, PointerLabError):
        raise verdict
    if not verdict.evidence:
        raise PointerLabError("the recheck needs decoherent semantics, not premeasurement")

    return ConsistencyAudit(
        statements_premeasurement=tuple(statements),
        chain_derivable=chain_derivable,
        joint=tuple(joint),
        claimed_probability=0.0 if chain_derivable else None,
        computed_probability=computed,
        contradiction_premeasurement=contradiction,
        recheck=(recheck[0], verdict),
        contradiction_decoherent=contradiction and verdict.kind == "certain",
    )
