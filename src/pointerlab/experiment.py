"""The four-agent nested-measurement protocol and its certainty analysis.

A quantum coin entangled with a spin is measured in sequence by two inside
agents (whose registers merge with the measured systems into laboratory
registers) and two outside agents who measure whole laboratories in
superposition bases.  The module scripts that protocol as explicit unitaries
and groupings, answers joint-outcome queries, and implements two rules for
when an agent may call a proposition certain:

* premeasurement semantics: condition on the agent's record and propagate;
* decoherent semantics: a proposition is certain only if every consulted
  environment-coupling model leaves it true with probability one after the
  environment is traced out and the record conditioned on.

The second rule blocks the inference chain that otherwise produces a joint
prediction contradicting the final-stage statistics.
"""

from __future__ import annotations

import math
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
    SubsystemLayout,
    basis_state,
    group_layout,
    group_state,
    make_state,
    partial_trace,
    tensor,
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

SQ = math.sqrt

CERTAIN_TOL = 1e-9


@dataclass(frozen=True)
class GroupStep:
    parts: tuple[str, ...]
    new_name: str
    label_map: tuple[tuple[tuple[str, ...], str], ...]

    def mapping(self) -> dict[tuple[str, ...], str]:
        return dict(self.label_map)


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
        return group_state(state, step.parts, step.new_name, step.mapping())
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
# The concrete protocol
# --------------------------------------------------------------------------

COIN = "R"
SPIN = "S"
AGENT_FBAR = "Fbar"
AGENT_F = "F"
AGENT_WBAR = "Wbar"
AGENT_W = "W"
LAB_BAR = "Lbar"
LAB = "L"

_HALF = 1 / SQ(2)

INIT_LAYOUT = SubsystemLayout.of((COIN, ("head", "tail")), (SPIN, ("up", "down")))

FULL_LAYOUT = SubsystemLayout.of(
    (COIN, ("head", "tail")),
    (SPIN, ("up", "down")),
    (AGENT_FBAR, ("F0", "F1", "F2")),
    (AGENT_F, ("F0", "F1", "F2")),
    (AGENT_WBAR, ("W0", "W1", "W2")),
    (AGENT_W, ("W0", "W1", "W2")),
)


def build_init() -> StateVector:
    """Entangled coin-spin start: sqrt(1/3)|head,down> + sqrt(2/3)|tail,right>."""
    return make_state(
        INIT_LAYOUT,
        [
            (("head", "down"), SQ(1 / 3)),
            (("tail", "up"), SQ(2 / 3) * _HALF),
            (("tail", "down"), SQ(2 / 3) * _HALF),
        ],
    )


def _sum_difference_basis(layout: SubsystemLayout, name: str, labels: tuple[str, str],
                          x: str, y: str) -> Basis:
    """{(x+y)/sqrt2, (x-y)/sqrt2} over one register."""
    sub = layout.sublayout([name])
    return Basis(labels, (make_state(sub, [((x,), _HALF), ((y,), _HALF)]),
                          make_state(sub, [((x,), _HALF), ((y,), -_HALF)])))


def spin_direction_basis(layout: SubsystemLayout) -> Basis:
    """{right, left} over the spin: right = (up+down)/sqrt2, left = (up-down)/sqrt2."""
    return _sum_difference_basis(layout, SPIN, ("right", "left"), "up", "down")


def coin_diagonal_basis(layout: SubsystemLayout) -> Basis:
    """{h+t, h-t} over the coin."""
    return _sum_difference_basis(layout, COIN, ("h+t", "h-t"), "head", "tail")


def failbar_okbar_basis(layout: SubsystemLayout) -> Basis:
    """{failbar, okbar} over the outer laboratory: (h +/- t)/sqrt2.

    The minus sign on okbar is load-bearing for the final-stage statistics.
    """
    return _sum_difference_basis(layout, LAB_BAR, ("failbar", "okbar"), "h", "t")


def fail_ok_basis(layout: SubsystemLayout) -> Basis:
    """{fail, ok} over the inner laboratory: fail = (-1/2 + +1/2)/sqrt2,
    ok = (-1/2 - +1/2)/sqrt2 (sign convention again load-bearing)."""
    return _sum_difference_basis(layout, LAB, ("fail", "ok"), "-1/2", "+1/2")


def protocol_steps() -> tuple[tuple[str, Step], ...]:
    group_lbar = GroupStep((COIN, AGENT_FBAR), LAB_BAR,
                           ((("head", "F1"), "h"), (("tail", "F2"), "t")))
    group_l = GroupStep((SPIN, AGENT_F), LAB,
                        ((("down", "F1"), "-1/2"), (("up", "F2"), "+1/2")))
    grouped = FULL_LAYOUT
    for g in (group_lbar, group_l):
        grouped = group_layout(grouped, g.parts, g.new_name, g.mapping())
    return (
        ("after-Fbar", MeasurementSpec(COIN, Basis.computational(FULL_LAYOUT, COIN),
                                       AGENT_FBAR, "F0", ("F1", "F2"))),
        ("group-Lbar", group_lbar),
        ("after-F", MeasurementSpec(SPIN, Basis.computational(FULL_LAYOUT, SPIN, ("down", "up")),
                                    AGENT_F, "F0", ("F1", "F2"))),
        ("group-L", group_l),
        ("after-Wbar", MeasurementSpec(LAB_BAR, failbar_okbar_basis(grouped),
                                       AGENT_WBAR, "W0", ("W1", "W2"))),
        ("after-W", MeasurementSpec(LAB, fail_ok_basis(grouped), AGENT_W, "W0", ("W1", "W2"))),
    )


def run_protocol() -> ProtocolTranscript:
    """Execute the full measurement chain; deterministic, bit-identical
    across runs."""
    ready = basis_state(
        FULL_LAYOUT.sublayout([AGENT_FBAR, AGENT_F, AGENT_WBAR, AGENT_W]),
        ("F0", "F0", "W0", "W0"),
    )
    initial = tensor(build_init(), ready)
    return run_transcript(initial, protocol_steps())


def joint_outcome(transcript: ProtocolTranscript, registers: Sequence[str]) -> OutcomeDistribution:
    """Born distribution over apparatus records at the final stage, labeled
    by the measured-basis outcome names ("okbar"/"fail"/... rather than raw
    record levels)."""
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


# --------------------------------------------------------------------------
# Certainty inference
# --------------------------------------------------------------------------


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
class EnvironmentModel:
    """Hypothetical one-shot coupling: the orthonormal branches, over some
    registers in layout order, that the environment records."""

    name: str
    branches: tuple[StateVector, ...]


def default_environment_models() -> tuple[EnvironmentModel, EnvironmentModel]:
    """The two couplings the certainty engine consults by default: one
    records the coin-spin branches as wholes, the other resolves the spin."""
    sub = FULL_LAYOUT.sublayout((COIN, SPIN, AGENT_FBAR))
    head = make_state(sub, [(("head", "down", "F1"), 1.0)])
    coarse = EnvironmentModel("two-branch", (
        head,
        make_state(sub, [(("tail", "up", "F2"), _HALF), (("tail", "down", "F2"), _HALF)]),
    ))
    fine = EnvironmentModel("three-branch", (
        head,
        make_state(sub, [(("tail", "down", "F2"), 1.0)]),
        make_state(sub, [(("tail", "up", "F2"), 1.0)]),
    ))
    return coarse, fine


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


def _weighted_distribution(
    parts: Sequence[tuple[float, OutcomeDistribution]]
) -> OutcomeDistribution:
    acc: dict[tuple[str, ...], float] = {}
    for w, dist in parts:
        for labels, p in dist.entries:
            acc[labels] = acc.get(labels, 0.0) + w * p
    entries = tuple(sorted(acc.items()))
    return OutcomeDistribution(entries)


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
    environment model at the observer's stage, reduces to the pointer
    mixture, conditions that mixture on the record, and requires the
    proposition to hold with probability one under every model.  The engine
    never tries to discriminate between the consulted models: doing so would
    take a further measurement on the measured system itself, which is
    incompatible with the rest of the protocol, so the model family stays
    whole and caps what the observer may call certain.
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

    evidence = []
    for model in models:
        extended, rec_labels = attach_environment(
            stage_state, model.name, len(model.branches)
        )
        coupled = environment_couple(extended, model.branches, model.name, rec_labels)
        env_basis = Basis.computational(coupled.layout, model.name)
        mixture: list[tuple[float, StateVector]] = []
        for k in range(env_basis.size):
            w = outcome_probability(coupled, model.name, env_basis, k)
            if w <= PRUNE_PROB:
                continue
            mixture.append((w, condition(coupled, model.name, env_basis, k)))
        conditioned: list[tuple[float, StateVector]] = []
        total = 0.0
        for w, branch in mixture:
            pw = outcome_probability(branch, step.apparatus, app_basis, out_i)
            if w * pw <= PRUNE_PROB:
                continue
            conditioned.append((w * pw, condition(branch, step.apparatus, app_basis, out_i)))
            total += w * pw
        if not conditioned:
            raise ImpossibleOutcomeError(
                f"record {observed!r} survives no branch of model {model.name!r}"
            )
        weighted = [
            (w / total, _evaluate_prop(transcript, branch, idx, prop))
            for w, branch in conditioned
        ]
        evidence.append((model.name, _weighted_distribution(weighted)))

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


def decoherence_compare() -> DecoherenceComparison:
    """Couple the premeasured coin-spin-apparatus state to two different
    minimal environments and compare the pointer mixtures."""
    layout = SubsystemLayout.of(
        (COIN, ("head", "tail")),
        (SPIN, ("up", "down")),
        ("A", ("A0", "A1", "A2")),
    )
    start = make_state(
        layout,
        [
            (("head", "down", "A0"), SQ(1 / 3)),
            (("tail", "up", "A0"), SQ(2 / 3) * _HALF),
            (("tail", "down", "A0"), SQ(2 / 3) * _HALF),
        ],
    )
    pm = MeasurementSpec(COIN, Basis.computational(layout, COIN), "A", "A0", ("A1", "A2"))
    psi = apply_step(start, pm)

    head = (("head", "down", "A1"), 1.0)
    coarse_terms = ([head], [(("tail", "up", "A2"), _HALF), (("tail", "down", "A2"), _HALF)])
    fine_terms = ([head], [(("tail", "down", "A2"), 1.0)], [(("tail", "up", "A2"), 1.0)])

    def couple_and_reduce(terms):
        extended, rec = attach_environment(psi, "E", len(terms))
        branches = tuple(make_state(layout, t) for t in terms)
        coupled = environment_couple(extended, branches, "E", rec)
        rho = pointer_reduce(coupled, "E")
        weights = tuple(
            float(np.real(np.vdot(b.amplitudes, rho.matrix @ b.amplitudes)))
            for b in branches
        )
        return rho, weights

    rho_coarse, w_coarse = couple_and_reduce(coarse_terms)
    rho_fine, w_fine = couple_and_reduce(fine_terms)
    full_diff = float(np.max(np.abs(rho_coarse.matrix - rho_fine.matrix)))

    red_coarse = partial_trace(rho_coarse, {COIN, "A"})
    red_fine = partial_trace(rho_fine, {COIN, "A"})
    red_diff = float(np.max(np.abs(red_coarse.matrix - red_fine.matrix)))

    def apparatus_marginal(rho: DensityOperator) -> OutcomeDistribution:
        marg = partial_trace(rho, {"A"})
        entries = []
        for i, label in enumerate(marg.layout.subsystem("A").labels):
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
    under both semantics."""

    statements_premeasurement: tuple[tuple[str, CertaintyVerdict], ...]
    chain_derivable: bool
    chained_claim_probability: float
    computed_probability: float
    contradiction_premeasurement: bool
    statement_1_decoherent: CertaintyVerdict
    contradiction_decoherent: bool
    decoherent_models: tuple[str, ...]


def consistency_audit(models: Sequence[EnvironmentModel] | None = None) -> ConsistencyAudit:
    """Run the statement chain both ways.

    Under premeasurement semantics the three statements compose into the
    claim that the (okbar, ok) joint outcome is impossible, while the final
    state assigns it 1/12: contradiction.  Under decoherent semantics the
    first statement is already undetermined, so no chained claim exists and
    the flag clears.
    """
    if models is None:
        models = default_environment_models()
    transcript = run_protocol()
    final_layout = transcript.final_state.layout

    prop_spin_right = Proposition(
        SPIN, spin_direction_basis(transcript.stage("after-Fbar").state.layout),
        "right", "is_in_state",
    )
    prop_w_fail = Proposition(LAB, fail_ok_basis(final_layout), "fail", "will_obtain")
    prop_lbar_t = Proposition(
        LAB_BAR, Basis.computational(final_layout, LAB_BAR), "t", "is_in_state"
    )
    prop_l_plus = Proposition(
        LAB, Basis.computational(final_layout, LAB), "+1/2", "is_in_state"
    )

    statements = (
        ("statement-1-spin", certainty(transcript, AGENT_FBAR, "F2", prop_spin_right)),
        ("statement-1", certainty(transcript, AGENT_FBAR, "F2", prop_w_fail)),
        ("statement-2", certainty(transcript, AGENT_F, "F2", prop_lbar_t)),
        ("statement-3", certainty(transcript, AGENT_WBAR, "W2", prop_l_plus)),
    )
    chain = all(v.kind == "certain" for _, v in statements)
    computed = joint_outcome(transcript, (AGENT_WBAR, AGENT_W)).probability(("okbar", "ok"))
    contradiction = chain and computed > PRUNE_PROB

    s1_dec = certainty(transcript, AGENT_FBAR, "F2", prop_w_fail,
                       semantics="decoherent", models=models)
    contradiction_dec = s1_dec.kind == "certain" and computed > PRUNE_PROB

    return ConsistencyAudit(
        statements_premeasurement=statements,
        chain_derivable=chain,
        chained_claim_probability=0.0 if chain else float("nan"),
        computed_probability=computed,
        contradiction_premeasurement=contradiction,
        statement_1_decoherent=s1_dec,
        contradiction_decoherent=contradiction_dec,
        decoherent_models=tuple(m.name for m in models),
    )
