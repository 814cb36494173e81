"""Seeded workload generators.

Each generator writes plain ``.scn`` text and, beside it, the expectations
the benchmark checks the program's report against.  Expectations come from
the construction itself or from the reference computations in ``check.py``,
never from an earlier run of the program.

Sizes are fixed per workload; the seed only moves angles, phases and
amplitudes, so the work per file is the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "pointerlab" / "scenarios"

# Fixed seed for the inputs that reproduce known program faults: they must
# fail identically in every run, whatever the workload seed.
FAULT_SEED = 3711


@dataclass
class Case:
    name: str
    text: str
    checks: list = field(default_factory=list)  # one callable per query
    fault: str | None = None  # named program fault this input reproduces
    # Pattern every check problem must match for the failure to be that
    # fault; any other problem on a fault input still makes the run incorrect.
    symptom: str | None = None


def cx(c) -> str:
    c = complex(c)
    sign = "-" if c.imag < 0 else "+"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


def expr(terms) -> str:
    """``{label tuple: coefficient}`` as a scenario expression."""
    out = []
    for key, c in terms.items():
        key = key if isinstance(key, tuple) else (key,)
        out.append(f"{cx(c)}|{','.join(key)}>")
    return " + ".join(out)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# --------------------------------------------------------------------------
# chain: nested-agent measurement chains
# --------------------------------------------------------------------------


def chain_case(name: str, n: int, d: int, rng: np.random.Generator) -> Case:
    """n agents with d-level apparatus.  F1 records the spin S and is tagged
    by an environment E; each outer agent W_k premeasures the previous
    laboratory L_{k-1} in a rotated basis of its two record branches and
    then groups with it.  The last agent stays separate so that its joint
    (basis, record) distribution can be read off."""
    levels = [f"a{i}" for i in range(d)]
    agents = ["F1"] + [f"W{k}" for k in range(2, n + 1)]
    p0 = rng.uniform(0.2, 0.8)
    amps = {("s0",) + ("a0",) * n: math.sqrt(p0),
            ("s1",) + ("a0",) * n: math.sqrt(1 - p0) * np.exp(1j * rng.uniform(0, 2 * np.pi))}
    registers = [("S", ["s0", "s1"])] + [(a, levels) for a in agents]
    lines = ["# nested-agent chain: spin, environment-tagged first agent,",
             f"# {n - 1} outer agent(s) measuring laboratories in rotated bases",
             "layout:", "  subsystem S {s0, s1}"]
    lines += [f"  subsystem {a} {{{', '.join(levels)}}}" for a in agents]
    lines += [f"state: {expr(amps)}", "actions:"]

    steps = [("premeasure", "S", [{"s0": 1.0}, {"s1": 1.0}], "F1", "a0", ["a1", "a2"]),
             ("couple", "E", ["F1"], [{"a1": 1.0}, {"a2": 1.0}]),
             ("group", ["S", "F1"], "L1", {("s0", "a1"): "x", ("s1", "a2"): "y"})]
    lines += ["  premeasure target=S apparatus=F1 basis={s0,s1} outcomes={a1,a2} ready=a0",
              "  couple env=E targets=(F1) branches={|a1>, |a2>}",
              "  group parts=(S,F1) as L1 map={(s0,a1):x, (s1,a2):y}"]
    P, Q = {"x": 1.0}, {"y": 1.0}
    for k in range(2, n + 1):
        lab = f"L{k - 1}"
        th, ph = rng.uniform(0.25, 1.3), rng.uniform(0, 2 * np.pi)
        c, s, e = math.cos(th), math.sin(th), np.exp(1j * ph)
        p = {**{l: c * v for l, v in P.items()}, **{l: e * s * v for l, v in Q.items()}}
        q = {**{l: -np.conj(e) * s * v for l, v in P.items()}, **{l: c * v for l, v in Q.items()}}
        pk, qk = f"p{k - 1}", f"q{k - 1}"
        lines += [f"  derived {lab} {pk} = {expr(p)}", f"  derived {lab} {qk} = {expr(q)}",
                  f"  premeasure target={lab} apparatus=W{k} basis={{{pk},{qk}}} "
                  "outcomes={a1,a2} ready=a0"]
        steps.append(("premeasure", lab, [p, q], f"W{k}", "a0", ["a1", "a2"]))
        if k < n:
            mapping = {}
            for l in p:
                mapping[(l, "a1")] = l + "a"
                mapping[(l, "a2")] = l + "b"
            entries = ", ".join(f"({a},{b}):{v}" for (a, b), v in mapping.items())
            lines.append(f"  group parts=({lab},W{k}) as L{k} map={{{entries}}}")
            steps.append(("group", [lab, f"W{k}"], f"L{k}", mapping))
            P = {l + "a": v for l, v in p.items()}
            Q = {l + "b": v for l, v in q.items()}
    last_lab, last = f"L{n - 1}", f"W{n}"
    basis = {f"p{n - 1}": p, f"q{n - 1}": q}

    eta = rng.uniform(0.3, 1.2)
    models = [("two", (["S", "F1"], [{("s0", "a1"): 1.0}, {("s1", "a2"): 1.0}])),
              ("rot", (["S", "F1"], [
                  {("s0", "a1"): math.cos(eta), ("s1", "a2"): math.sin(eta)},
                  {("s0", "a1"): -math.sin(eta), ("s1", "a2"): math.cos(eta)}]))]
    lines.append("models:")
    for mname, (targets, branches) in models:
        lines.append(f"  model {mname} targets=({','.join(targets)}) "
                     f"branches={{{', '.join(expr(b) for b in branches)}}}")

    sims = [check.initial_sim(registers, amps)]
    for step in steps:
        sims.append(sims[-1].copy())
        sims[-1].apply(step)
    final = sims[-1]
    certainties = [
        ("F1", "a2", f"q{n - 1}", "premeasurement", []),
        ("W2", "a1", f"p{n - 1}", "premeasurement", []),
        ("F1", "a1", f"p{n - 1}", "decoherent", models),
    ]
    lines += ["queries:", f"  born targets=({last_lab}:{{p{n - 1},q{n - 1}}}, {last})"]
    final_basis = {lab: final.vec([last_lab], v) for lab, v in basis.items()}
    joint = final.born([(last_lab, final_basis), (last, None)])
    # Born weights of the measured basis just before the last premeasurement.
    before = sims[-2]
    pre = {lab: before.prob(last_lab, before.vec([last_lab], v)) for lab, v in basis.items()}
    checks = [lambda r, joint=joint, pre=pre, rec=dict(zip(basis, ["a1", "a2"])):
              check.born_problems(r, joint) + _premeasure_properties(r, pre, rec)]
    for obs, out, pred, sem, mods in certainties:
        line = (f"  certainty observer={obs} outcome={out} "
                f'prop="{last} will_obtain {pred}" semantics={sem}')
        if mods:
            line += f" models=({','.join(m for m, _ in mods)})"
        lines.append(line)
        want = check.certainty(steps, sims, obs, out, (last_lab, basis, pred), sem, mods)
        checks.append(lambda r, want=want: check.certainty_problems(r, want))
    return Case(name, "\n".join(lines) + "\n", checks)


def _premeasure_properties(result, pre, record_of):
    """Properties every premeasurement must have, whatever its numbers."""
    dist = check.as_dist(result["distribution"])
    problems = []
    if any(p > check.TOL for (b, rec), p in dist.items() if record_of[b] != rec):
        problems.append("joint (basis, record) distribution is not diagonal")
    for b, weight in pre.items():
        marginal = sum(p for (_, rec), p in dist.items() if rec == record_of[b])
        if abs(marginal - weight) > check.TOL:
            problems.append("record marginal differs from pre-measurement Born weight")
    if abs(sum(dist.values()) - 1.0) > check.TOL:
        problems.append("joint distribution does not sum to 1")
    return problems


def fr_case() -> Case:
    """Bundled fr_full.scn; expectations follow from the Frauchiger-Renner
    construction: joint {3/4, 1/12, 1/12, 1/12}, statement 1 certain, a
    premeasurement contradiction and none under decoherent semantics."""
    joint = {("failbar", "fail"): 3 / 4, ("failbar", "ok"): 1 / 12,
             ("okbar", "fail"): 1 / 12, ("okbar", "ok"): 1 / 12}

    def audit(r):
        pre, dec = r["premeasurement"], r["decoherent"]
        ok = (r["kind"] == "consistency_audit" and pre["chain_derivable"]
              and pre["contradiction"] and not dec["contradiction"]
              and abs(pre["computed_probability"] - 1 / 12) <= check.TOL)
        return [] if ok else ["audit flags differ from the construction"]

    def statement_1(r):
        ok = r["verdict"] == "certain" and check.same_dist(
            r["conditional"], {("fail",): 1.0, ("ok",): 0.0})
        return [] if ok else ["statement 1 is not certain"]

    return Case("fr_full", (BUNDLED / "fr_full.scn").read_text("utf-8"),
                [lambda r: check.born_problems(r, joint), statement_1, audit])


def decoherence_case() -> Case:
    """Bundled decoherence.scn: the coarse model certifies 'right', the fine
    one leaves it at 1/2; the mixtures differ but agree with the spin traced
    out."""
    def cert(r):
        ev = {e["model"]: check.as_dist(e["distribution"]) for e in r["evidence"]}
        ok = (r["verdict"] == "undetermined"
              and abs(ev["two-branch"][("right",)] - 1.0) <= check.TOL
              and abs(ev["three-branch"][("right",)] - 0.5) <= check.TOL)
        return [] if ok else ["decoherent certainty differs from the construction"]

    def compare(r):
        marg = {("A1",): 1 / 3, ("A2",): 2 / 3}
        bw = r["branch_weights"]
        ok = (r["restriction_equal"] and r["full_max_difference"] > 1e-6
              and np.allclose(bw["coarse"], [1 / 3, 2 / 3], atol=check.TOL)
              and np.allclose(bw["fine"], [1 / 3] * 3, atol=check.TOL)
              and check.same_dist(r["apparatus_marginal"]["coarse"], marg)
              and check.same_dist(r["apparatus_marginal"]["fine"], marg))
        return [] if ok else ["decoherence comparison differs from the construction"]

    return Case("decoherence", (BUNDLED / "decoherence.scn").read_text("utf-8"),
                [cert, compare])


# Generated chains: (agents n, apparatus levels d) -> copies.  The copies
# put the median of per-file times in the middle of the n=3 class and the
# 90th percentile inside the n=4 class, not on the edge between two classes.
# With the environment register the final state holds 3 * 2 * d**n
# amplitudes.
CHAIN_SIZES = {(2, 3): 2, (3, 3): 5, (4, 3): 3}


def chain_workload(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    cases = [fr_case(), decoherence_case()]
    for (n, d), copies in CHAIN_SIZES.items():
        for i in range(copies):
            cases.append(chain_case(f"chain_n{n}_d{d}_{i}", n, d, rng))
    return cases


# --------------------------------------------------------------------------
# triortho: tripartite states with a verdict known by construction
# --------------------------------------------------------------------------


def _tri_case(name, vecs, coeffs, verdict, fault=None, symptom=None) -> Case:
    """State sum_i coeffs[i] a_i (x) b_i (x) c_i over registers A, B, C."""
    dims = [len(vecs[0][0]), len(vecs[1][0]), len(vecs[2][0])]
    state = sum(c * np.einsum("i,j,k->ijk", a, b, cc)
                for c, a, b, cc in zip(coeffs, *vecs)).reshape(-1)
    state = state / np.linalg.norm(state)
    regs = [("A", [f"a{i}" for i in range(dims[0])]),
            ("B", [f"b{i}" for i in range(dims[1])]),
            ("C", [f"c{i}" for i in range(dims[2])])]
    terms = {}
    for flat, amp in enumerate(state):
        if amp != 0:
            idx = np.unravel_index(flat, dims)
            terms[tuple(regs[r][1][i] for r, i in enumerate(idx))] = amp
    text = "\n".join(
        [f"# tripartite state, expected verdict: {verdict}", "layout:"]
        + [f"  subsystem {n} {{{', '.join(l)}}}" for n, l in regs]
        + [f"state: {expr(terms)}", "actions:", "queries:",
           "  triortho parts=((A),(B),(C))"]) + "\n"
    return Case(name, text, [lambda r: check.triortho_problems(r, state, dims, verdict)],
                fault, symptom)


def _columns(m):
    return [m[:, i] for i in range(m.shape[1])]


def triortho_workload(seed: int) -> list[Case]:
    """The bundled file, seeded 2- and 3-level states and the fault inputs.
    A 3-level triorthogonal state is left out: at 0.6 s a file it would push
    a run past its time budget, and 3x3x3 "unique" is covered by the
    fault_missed_* inputs."""
    rng = np.random.default_rng([seed, 2])
    cases = [bundled_triortho_case()]
    # Triorthogonal with distinct weights: unique (Elby-Bub).
    w = np.sort(rng.dirichlet([4.0, 4.0]))
    while w[1] - w[0] < 0.08:
        w = np.sort(rng.dirichlet([4.0, 4.0]))
    vecs = [_columns(_orthogonal(rng, 2)) for _ in range(3)]
    cases.append(_tri_case("unique_d2", vecs, np.sqrt(w), "unique"))
    for d in (2, 3):
        # A degenerate pair sharing one third factor: ambiguous.
        a, b, c = (_columns(_orthogonal(rng, d)) for _ in range(3))
        if d == 2:
            vecs, coeffs = [a, b, [c[0], c[0]]], [1.0, 1.0]
        else:
            vecs, coeffs = [a, b, [c[0], c[0], c[1]]], [1.0, 1.0, rng.uniform(0.4, 0.8)]
        cases.append(_tri_case(f"ambiguous_d{d}", vecs, coeffs, "ambiguous"))
        # A rotated W state: no orthonormal anchor yields product relative
        # states, so there is no decomposition.
        e0, e1 = np.eye(d)[0], np.eye(d)[1]
        vecs = [[o @ x for x in xs] for o, xs in zip(
            (_orthogonal(rng, d) for _ in range(3)),
            ([e0, e0, e1], [e0, e1, e0], [e1, e0, e0]))]
        cases.append(_tri_case(f"none_d{d}", vecs, [1.0, 1.0, 1.0], "no_decomposition"))
    return cases + fault_cases()


def bundled_triortho_case() -> Case:
    """Bundled triortho.scn: an environment-tagged record, unique by the
    triorthogonal uniqueness theorem."""
    state = np.zeros(8, dtype=complex)
    state[0b000], state[0b111] = math.sqrt(1 / 3), math.sqrt(2 / 3)
    return Case("triortho", (BUNDLED / "triortho.scn").read_text("utf-8"), [
        lambda r: check.triortho_problems(r, state, [2, 2, 2], "unique"),
        lambda r: check.born_problems(r, {("A1",): 1 / 3, ("A2",): 2 / 3})])


def fault_cases() -> list[Case]:
    """Inputs that reproduce two known program faults; they do not depend
    on the workload seed and count as failed operations until mended.

    conjugated-factors: the factor taken from an SVD right singular vector
    is conjugated, so complex states rebuild wrongly.  The triorthogonal
    state comes back "ambiguous"; the degenerate one gets the right verdict
    but decompositions that do not rebuild it.
    missed-decomposition: orthonormal a_i with generic b_i, c_i on 3x3x3 is
    never reached by the candidate-basis search: "no_decomposition".
    """
    rng = np.random.default_rng(FAULT_SEED)
    cases = []
    u = [_unitary(rng, 2) for _ in range(3)]
    vecs = [_columns(m) for m in u]
    cases.append(_tri_case("fault_conj_unique", vecs, [math.sqrt(1 / 3), math.sqrt(2 / 3)],
                           "unique", "conjugated-factors",
                           r"triortho verdict ambiguous != unique$"))
    a, b, c = (_columns(_unitary(rng, 2)) for _ in range(3))
    cases.append(_tri_case("fault_conj_degenerate", [a, b, [c[0], c[0]]], [1.0, 1.0],
                           "ambiguous", "conjugated-factors",
                           r"triortho (canonical|witness) rebuild residual "))
    for kind in ("real", "complex"):
        a = _columns(_orthogonal(rng, 3))
        bc = []
        for _ in range(2):
            m = rng.standard_normal((3, 3))
            if kind == "complex":
                m = m + 1j * rng.standard_normal((3, 3))
            bc.append([v / np.linalg.norm(v) for v in _columns(m)])
        # Orthonormal a_i with generic b_i, c_i: unique by Kruskal's
        # condition (k-ranks 3 + 3 + 3 >= 2 * 3 + 2).
        cases.append(_tri_case(f"fault_missed_{kind}", [a] + bc, [0.5, 0.7, 0.9],
                               "unique", "missed-decomposition",
                               r"triortho verdict no_decomposition != unique$"))
    return cases


# --------------------------------------------------------------------------
# sweep: one wide state read through many bases
# --------------------------------------------------------------------------

SWEEP_REGISTERS = ["A", "B", "C", "D"]
SWEEP_LEVELS = 3
SWEEP_BASES = 3      # rotated bases per register and file
# files -> born and rewrite queries per file.  Two cost classes put the
# median inside the light class and the 90th percentile inside the heavy
# one, so neither quantile is the noise tail of a single class.
SWEEP_FILES = {"light": (7, 15), "heavy": (2, 30)}


def sweep_case(name, amps, rng, queries) -> Case:
    d = SWEEP_LEVELS
    levels = [f"q{i}" for i in range(d)]
    t = amps.reshape([d] * len(SWEEP_REGISTERS))
    lines = ["# one wide state read through many rotated bases", "layout:"]
    lines += [f"  subsystem {r} {{{', '.join(levels)}}}" for r in SWEEP_REGISTERS]
    bases = {}
    for r in SWEEP_REGISTERS:
        for j in range(SWEEP_BASES):
            u = _unitary(rng, d)
            labels = [f"r{j}_{i}" for i in range(d)]
            bases[(r, j)] = (labels, u.T)  # rows are the basis vectors
            for lab, row in zip(labels, u.T):
                lines.append(f"  derived {r} {lab} = {expr(dict(zip(levels, row)))}")
    terms = {}
    for idx in np.ndindex(*t.shape):
        terms[tuple(levels[i] for i in idx)] = t[idx]
    lines += [f"state: {expr(terms)}", "actions:", "queries:"]
    computational = (levels, np.eye(d, dtype=complex))

    # The shape of each query (how many registers, which of them rotated)
    # follows a fixed cycle so that every file costs the same; the seed
    # picks the registers, the bases and the state.
    checks = []
    sim = check.Sim(list(SWEEP_REGISTERS), {r: levels for r in SWEEP_REGISTERS}, t)
    for q in range(queries):
        regs = rng.choice(SWEEP_REGISTERS, size=1 + q % 3, replace=False)
        items, targets = [], []
        for k, r in enumerate(regs):
            if (q + k) % 2:
                items.append(r)
                targets.append((r, None))
            else:
                labels, mat = bases[(r, int(rng.integers(SWEEP_BASES)))]
                items.append(f"{r}:{{{','.join(labels)}}}")
                targets.append((r, dict(zip(labels, mat))))
        lines.append(f"  born targets=({', '.join(items)})")
        want = sim.born(targets)
        checks.append(lambda r, want=want: check.born_problems(r, want))
    for q in range(queries):
        rotated = rng.choice(SWEEP_REGISTERS, size=1 + q % 4, replace=False)
        chosen = {r: bases[(r, int(rng.integers(SWEEP_BASES)))] for r in rotated}
        lines.append("  rewrite bases=(" + ", ".join(
            f"{r}:{{{','.join(l)}}}" for r, (l, _) in chosen.items()) + ")")
        per_axis = [chosen.get(r, computational) for r in SWEEP_REGISTERS]
        coeffs = check.rewrite_expected(t, [m for _, m in per_axis])
        labels = [l for l, _ in per_axis]
        checks.append(lambda r, c=coeffs, l=labels: check.rewrite_problems(r, c, l))
    return Case(name, "\n".join(lines) + "\n", checks)


def ambiguity_case() -> Case:
    """Bundled ambiguity.scn, rechecked from its own definitions."""
    h = math.sqrt(0.5)
    t = np.array([[math.sqrt(1 / 3), 0], [0, math.sqrt(2 / 3)]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    rot = np.array([[h, h], [h, -h]], dtype=complex)
    return Case("ambiguity", (BUNDLED / "ambiguity.scn").read_text("utf-8"), [
        lambda r: check.born_problems(r, {("A1",): 1 / 3, ("A2",): 2 / 3}),
        lambda r: check.rewrite_problems(
            r, check.rewrite_expected(t, [eye, rot]),
            [["head", "tail"], ["A1p", "A2p"]]),
        lambda r: check.rewrite_problems(
            r, check.rewrite_expected(t, [rot, rot]),
            [["h+t", "h-t"], ["A1p", "A2p"]]),
    ])


def sweep_workload(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 3])
    n = SWEEP_LEVELS ** len(SWEEP_REGISTERS)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    cases = [ambiguity_case()]
    for kind, (files, queries) in SWEEP_FILES.items():
        for i in range(files):
            cases.append(sweep_case(f"sweep_{kind}_{i}", amps, rng, queries))
    return cases


WORKLOADS = {"chain": chain_workload, "triortho": triortho_workload, "sweep": sweep_workload}
