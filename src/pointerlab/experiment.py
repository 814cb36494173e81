"""Transcripts of nested-measurement protocols and their certainty analysis.

A protocol (in the bundled scenario, a quantum coin entangled with a spin,
measured by two inside agents whose registers merge with the measured
systems into laboratory registers, then by two outside agents who measure
whole laboratories in superposition bases) runs as a sequence of steps,
each ending a stage.  The module answers joint-outcome queries and
implements two rules for when an agent may call a proposition certain:

* premeasurement semantics: condition on the agent's record and propagate;
* decoherent semantics: a proposition is certain only if every consulted
  environment-coupling model leaves it true with probability one after the
  environment is traced out and the record conditioned on.

The second rule blocks the inference chain that otherwise produces a joint
prediction contradicting the final-stage statistics.

Certainty claims are answered in one forward walk of the stages: each
step is applied once to the state, and the states the claims condition on
go through each later step together, as one StateBatch (see
``certainties``).  A transcript keeps only the stage states it is asked to
keep; the consistency audit judges the claims' answers.
A model is a ``CoupleStep`` the run does not apply: neither certainty nor
``decoherence_compare`` attaches its environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


@dataclass(eq=False)
class Stage:
    """A stage's name and layout, and its state while the transcript keeps
    it; reading a state it does not keep raises PointerLabError."""

    name: str
    layout: SubsystemLayout
    kept: StateVector | None = None

    @property
    def state(self) -> StateVector:
        if self.kept is None:
            raise PointerLabError(f"stage {self.name!r} keeps no state")
        return self.kept


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """Stage-by-stage record: stages[i] is the stage after steps[i]
    (steps[0] is None, the declared initial state).  ``run_transcript``
    keeps every stage's state; a transcript that keeps fewer makes the
    others as a walk passes them (``_states``)."""

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

    def _states(self) -> Iterator[StateVector]:
        """Each stage's state, in order: kept, or made from the one before
        (ExecutionError names a failing action); the final state is kept
        once made."""
        for i, (st, step) in enumerate(zip(self.stages, self.steps)):
            if st.kept is not None:
                state = st.kept
            else:
                try:
                    state = apply_step(state, step)  # type: ignore[arg-type]
                except PointerLabError as exc:
                    raise ExecutionError(f"action {i} ({st.name}): {exc}") from exc
                if st is self.stages[-1]:
                    st.kept = state
            yield state


def _premeasurement(steps: Sequence[Step | None], agent: str) -> tuple[int, MeasurementSpec]:
    for i, step in enumerate(steps):
        if isinstance(step, MeasurementSpec) and step.apparatus == agent:
            return i, step
    raise UnknownSubsystemError(f"no premeasurement with apparatus {agent!r}")


def run_transcript(initial: StateVector, named_steps: Sequence[tuple[str, Step]]
                   ) -> ProtocolTranscript:
    """Apply the named steps in order, keeping every stage.  A failing step
    raises ExecutionError naming its 1-based action index and stage name."""
    stages = (Stage("initial", initial.layout, initial),
              *(Stage(name, initial.layout) for name, _ in named_steps))
    transcript = ProtocolTranscript(stages, (None, *(step for _, step in named_steps)))
    for st, state in zip(stages, transcript._states()):  # each takes its state's layout
        st.kept, st.layout = state, state.layout
    return transcript


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


def certainties(
    transcript: ProtocolTranscript,
    claims: Sequence[Claim],
) -> tuple[CertaintyVerdict | PointerLabError, ...]:
    """Answer ``claims``, in order, in one forward walk of the transcript.

    A premeasurement claim conditions its observer's stage state on the
    record; a decoherent claim conditions, per model, the model's branches
    of it.  The walk (``_evidence``) does so at that stage and carries the
    states through each later step together, as one StateBatch of at most
    MAX_AMPLITUDES amplitudes, reading each claim at its read stage.  More
    states, and the parts a failed walk left unanswered, go in later walks
    of one work list.  A walk makes each stage state the transcript does not
    keep as it passes, the final one included, so a failing action raises
    its ExecutionError here.  Each entry of the result is the claim's
    verdict, or the error ``certainty`` raises for that claim alone.
    """
    plans: list[tuple[tuple, ...] | PointerLabError] = []
    for claim in claims:
        try:
            plans.append(_parts(transcript, claim))
        except PointerLabError as exc:
            plans.append(exc)
    made: dict[tuple[int, int, Basis | None], tuple[float, ...] | PointerLabError] = {}
    tables = _evidence(transcript, [p for plan in plans if isinstance(plan, tuple)
                                    for p in plan], made)
    answers = []
    for claim, plan in zip(claims, plans):
        try:
            answers.append(plan if isinstance(plan, PointerLabError)
                           else _verdict(claim, plan, made, tables))
        except PointerLabError as exc:
            answers.append(exc)
    return tuple(answers)


def claim_plan(layouts: Sequence[SubsystemLayout], steps: Sequence[Step | None], observer: str,
               observed: str, subject: str | Subsystem, quantifier: str) -> tuple[int, int, int]:
    """The plan of a claim the parser and ``certainties`` share, from stage
    layouts and steps alone: (the observer's stage, the observed record's
    level, the read stage).  ``observed`` must be an ``outcomes=`` record or
    a measured-basis label naming one outcome (UnknownLabelError).
    ``subject`` is a register's name, or the register itself (its name and
    labels), which a register regrouped under its name does not match.
    is_in_state reads the first stage, from the observer's on, holding
    it; will_obtain reads the final stage, which must hold it
    (UnknownSubsystemError)."""
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
    name = subject if isinstance(subject, str) else subject.name
    read = next((j for j in reads if name in layouts[j].axes and (
        isinstance(subject, str) or layouts[j].subsystem(name) == subject)), None)
    if read is None:
        raise UnknownSubsystemError(f"prop subject {name!r} no longer exists {where}")
    return start, layouts[start].subsystem(observer).positions[record], read


def _parts(transcript: ProtocolTranscript, claim: Claim) -> tuple[tuple, ...]:
    """What ``claim`` needs from the walk, one (key, read) part per branch
    set, from the transcript's steps and layouts, never its states: the
    state at stage key[0] conditioned on level key[1] of that stage's
    apparatus along a model's branches key[2] (None: premeasurement's
    single branch), read through ``read`` = (stage index, subject, basis).
    Parts with one key share their states.  A record of zero weight is
    judged where it is conditioned (``conditioned_branches``)."""
    prop = claim.prop
    start, record, read = claim_plan([st.layout for st in transcript.stages], transcript.steps,
                                     claim.observer, claim.observed,
                                     prop.basis.layout.subsystems[0], prop.quantifier)
    if claim.semantics not in ("premeasurement", "decoherent"):
        raise PointerLabError(f"unknown semantics {claim.semantics!r}")
    branch_sets = ((None,) if claim.semantics == "premeasurement"
                   else tuple(m.branches for m in claim.models))
    if not branch_sets:
        raise PointerLabError("decoherent semantics needs a non-empty model list")
    return tuple(((start, record, b), (read, prop.subject, prop.basis)) for b in branch_sets)


def _verdict(claim: Claim, plan: tuple[tuple, ...], made: dict, tables: dict) -> CertaintyVerdict:
    """The verdict on ``claim`` from the tables the work list of ``_evidence``
    read its parts' states into.  It raises its parts' first conditioning
    error in ``made``, then the first error of a part's lone walk, as the
    claim does alone.  A model's environment would stay a spectator of every
    later step, so summing over it, as the Born rule does, mixes its
    branches' tables with the branch weights; premeasurement semantics is
    the one branch."""
    for error in [made[key] for key, _ in plan] + [tables.get(part) for part in plan]:
        if isinstance(error, PointerLabError):
            raise error
    dists = []
    for key, at in plan:
        read = [tables[key, k, at] for k in range(len(made[key]))]
        dists.append(OutcomeDistribution(tuple(
            (labels, sum(w * d.entries[i][1] for w, d in zip(made[key], read)))
            for i, (labels, _) in enumerate(read[0].entries))))
    kind = _kind_from_probs([d.probability((claim.prop.predicate,)) for d in dists])
    if claim.semantics == "premeasurement":
        return CertaintyVerdict(kind, dists[0])
    return CertaintyVerdict(kind, dists[0],
                            tuple((m.environment, d) for m, d in zip(claim.models, dists)))


def _evidence(transcript: ProtocolTranscript, parts: Sequence[tuple], made: dict) -> dict:
    """{(key, branch, read): distribution} for ``parts``, and {part: error}
    for a part whose lone walk failed, from one work list of (parts, chunk)
    jobs, all parts in chunk 0 first.  A chunk is max(1, MAX_AMPLITUDES //
    D_final) of the states a job's parts condition on, in the order its walk
    conditions them.  At each stage the walk conditions each key there
    (level key[1] of the stage's apparatus along the branches key[2]) with
    states in the chunk or none counted yet, recording the weights, or the
    error, in ``made``, and joins the chunk's states to the batch, which
    goes through each later step up to the last read; it makes the stage
    states the keys need, and the final one.  A passed walk goes on to its
    next chunk while states remain; a failed walk of several parts sends
    each part it left unanswered (no conditioning error, no table of its
    key's last state) to walk alone; a lone part's failure is its error."""
    size = max(1, MAX_AMPLITUDES // transcript.stages[-1].layout.dimension)
    tables: dict = {}
    jobs = [(list(dict.fromkeys(parts)), range(0, size))]
    for job, chunk in jobs:  # a walk appends the jobs it leaves
        reads: dict[tuple[int, str, Basis], set] = {}
        for key, read in job:
            reads.setdefault(read, set()).add(key)
        last = max((read[0] for read in reads), default=-1)
        states = enumerate(transcript._states())
        at, state = -1, None  # the latest stage state made, and its stage
        batch, held, failed, n = None, [], None, 0  # held: each batch state's (key, branch)
        for j, step in enumerate(transcript.steps[:last + 1]):
            joining: list = []
            for key in dict.fromkeys(key for key, _ in job if key[0] == j):
                if isinstance(made.get(key), PointerLabError):
                    continue
                if key in made and not (chunk.start < n + len(made[key]) and n < chunk.stop):
                    n += len(made[key])  # none of the key's states is in the chunk
                    continue
                while at < j:
                    at, state = next(states)
                try:
                    rows, made[key] = conditioned_branches(
                        state, key[2], step.apparatus,
                        Basis.computational(state.layout, step.apparatus), key[1])
                except PointerLabError as exc:
                    made[key] = exc
                    continue
                joining += [((key, k), row) for k, row in enumerate(rows.amplitudes)
                            if n + k in chunk]
                n += len(made[key])
                del rows  # its rows join the batch; it must not outlive later steps
            if failed is None and (batch is not None or joining):
                try:
                    if batch is not None:
                        batch = apply_step(batch, step)  # type: ignore[arg-type]
                    if joining:
                        held += [kb for kb, _ in joining]
                        batch = StateBatch(state.layout, np.vstack(
                            [*([] if batch is None else [batch.amplitudes]),
                             *(r for _, r in joining)]))
                    for read, wanted in reads.items():
                        chosen = [i for i, (key, _) in enumerate(held)
                                  if read[0] == j and key in wanted]
                        if chosen:
                            for i, dist in zip(chosen, born(batch if len(chosen) == len(held)
                                                            else batch.take(chosen), [read[1:]])):
                                tables[(*held[i], read)] = dist
                except PointerLabError as exc:
                    failed, batch = exc, None
        del batch, state  # before the final state is made
        if transcript.stages[-1].kept is None:
            for _ in states:
                pass
        if failed is None:
            if n > chunk.stop:
                jobs.append((job, range(chunk.stop, chunk.stop + size)))
        elif len(job) > 1:
            jobs += [([(key, read)], range(0, size)) for key, read in job
                     if not isinstance(made[key], PointerLabError)
                     and (key, len(made[key]) - 1, read) not in tables]
        else:
            tables[job[0]] = failed
    return tables


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
    if not statements:
        raise PointerLabError("the audit's chain names no statement")
    if not joint:
        raise PointerLabError("the audit's joint names no apparatus")
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
