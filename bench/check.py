"""Independent reference computations for the benchmark's output checks.

Nothing here imports pointerlab.  A premeasurement is applied as the
isometry  sum_i |b_i><b_i| (x) |rec_i><ready| + (1 - P) (x) |ready><ready|
on a ready apparatus, which is the physics the program's completed unitary
must agree with on every branch that carries weight.  Certainty verdicts are
recomputed from their definitions (condition on the record, replay the later
steps, take Born weights) and compared with what the program printed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TOL = 1e-9        # agreement between printed and recomputed numbers
PRUNE = 1e-12     # weights below this are treated as exactly zero
CERTAIN = 1e-9    # the program's certainty threshold


# --------------------------------------------------------------------------
# A labelled dense state, independent of the program's own types
# --------------------------------------------------------------------------


@dataclass
class Sim:
    names: list
    labels: dict
    t: np.ndarray

    def axis(self, name):
        return self.names.index(name)

    def vec(self, names, terms):
        """Array over the flattened registers ``names`` from {label tuple: c}."""
        dims = [len(self.labels[n]) for n in names]
        out = np.zeros(dims, dtype=complex)
        for key, c in terms.items():
            key = key if isinstance(key, tuple) else (key,)
            out[tuple(self.labels[n].index(k) for n, k in zip(names, key))] += c
        return out.reshape(-1)

    def correlate(self, targets, app, vecs, ready, recs):
        """Apply the premeasurement isometry with ``app`` as the record."""
        axes = [self.axis(n) for n in targets] + [self.axis(app)]
        t = np.moveaxis(self.t, axes, range(len(axes)))
        shape = t.shape
        d_t = int(np.prod(shape[:len(targets)]))
        t = t.reshape((d_t, shape[len(targets)]) + shape[len(targets) + 1:])
        r = self.labels[app].index(ready)
        psi = t[:, r]
        if abs(np.vdot(psi, psi).real - 1.0) > TOL:
            raise ValueError(f"{app} is not ready")
        out = np.zeros_like(t)
        left = psi.copy()
        for b, rec in zip(vecs, recs):
            comp = np.multiply.outer(b, np.tensordot(b.conj(), psi, axes=(0, 0)))
            out[:, self.labels[app].index(rec)] += comp
            left -= comp
        out[:, r] += left
        self.t = np.moveaxis(out.reshape(shape), range(len(axes)), axes)

    def premeasure(self, target, basis, app, ready, recs):
        self.correlate([target], app, [self.vec([target], b) for b in basis], ready, recs)

    def couple(self, env, targets, branches):
        labels = [f"eps{i}" for i in range(len(branches) + 1)]
        self.names.append(env)
        self.labels[env] = labels
        e0 = np.zeros(len(labels), dtype=complex)
        e0[0] = 1.0
        self.t = np.multiply.outer(self.t, e0)
        vecs = [self.vec(targets, b) for b in branches]
        self.correlate(targets, env, vecs, labels[0], labels[1:])

    def group(self, parts, new, mapping):
        axes = [self.axis(p) for p in parts]
        order = []
        for i in range(len(self.names)):
            if i == axes[0]:
                order.extend(axes)
            elif i not in axes:
                order.append(i)
        merged = [mapping.get(c, "(" + ",".join(c) + ")")
                  for c in itertools.product(*(self.labels[p] for p in parts))]
        t = self.t.transpose(order)
        pos = order.index(axes[0])
        shape = t.shape[:pos] + (len(merged),) + t.shape[pos + len(parts):]
        self.t = t.reshape(shape)
        self.names = [n for n in self.names if n not in parts[1:]]
        self.names[self.names.index(parts[0])] = new
        for p in parts:
            del self.labels[p]
        self.labels[new] = merged

    def apply(self, step):
        kind, *args = step
        getattr(self, kind)(*args)

    def copy(self):
        return Sim(list(self.names), {k: list(v) for k, v in self.labels.items()},
                   self.t.copy())

    def component(self, name, v):
        return np.tensordot(v.conj(), self.t, axes=(0, self.axis(name)))

    def prob(self, name, v):
        c = self.component(name, v)
        return float(np.vdot(c, c).real)

    def condition(self, name, v):
        c = self.component(name, v)
        c = c / np.sqrt(np.vdot(c, c).real)
        self.t = np.moveaxis(np.multiply.outer(v, c), 0, self.axis(name))

    def born(self, targets):
        """{outcome label tuple: probability} for [(name, {label: vector}|None)]."""
        t = self.t
        axes = [self.axis(n) for n, _ in targets]
        outcome_labels = []
        for (name, basis), ax in zip(targets, axes):
            if basis is None:
                basis = {lab: self.vec([name], {lab: 1.0}) for lab in self.labels[name]}
            mat = np.stack(list(basis.values()))
            t = np.moveaxis(np.tensordot(t, mat.conj(), axes=([ax], [1])), -1, ax)
            outcome_labels.append(list(basis))
        p = np.abs(t) ** 2
        p = p.sum(axis=tuple(i for i in range(p.ndim) if i not in axes))
        p = p.transpose(np.argsort(np.argsort(axes)))
        return {tuple(l[k] for l, k in zip(outcome_labels, idx)): float(p[idx])
                for idx in np.ndindex(*p.shape)}


def initial_sim(registers, terms):
    """registers: [(name, labels)]; terms: {label tuple: coefficient}."""
    names = [n for n, _ in registers]
    sim = Sim(names, {n: list(l) for n, l in registers},
              np.zeros([len(l) for _, l in registers], dtype=complex))
    sim.t = sim.vec(names, terms).reshape(sim.t.shape)
    sim.t /= np.linalg.norm(sim.t)
    return sim


# --------------------------------------------------------------------------
# Certainty, recomputed from its definition
# --------------------------------------------------------------------------


def _verdict(probs):
    if all(p >= 1.0 - CERTAIN for p in probs):
        return "certain"
    if all(p <= CERTAIN for p in probs):
        return "refuted"
    return "undetermined"


def certainty(steps, stages, observer, outcome, prop, semantics, models):
    """Expected certainty payload.

    ``stages[i]`` is the state after ``steps[i - 1]``; ``prop`` is
    (subject register, {label: basis vector terms}, predicate).
    """
    idx = next(i for i, s in enumerate(steps)
               if s[0] == "premeasure" and s[3] == observer) + 1
    stage = stages[idx]
    record = stage.vec([observer], {outcome: 1.0})
    subject, basis_terms, predicate = prop

    def evaluate(sim):
        sim = sim.copy()
        for step in steps[idx:]:
            sim.apply(step)
        basis = {lab: sim.vec([subject], v) for lab, v in basis_terms.items()}
        return sim.born([(subject, basis)])

    if semantics == "premeasurement":
        sim = stage.copy()
        sim.condition(observer, record)
        dist = evaluate(sim)
        return {"verdict": _verdict([dist[(predicate,)]]), "conditional": dist,
                "evidence": []}

    evidence = []
    for name, (targets, branches) in models:
        coupled = stage.copy()
        coupled.couple(name, targets, branches)
        parts = []
        for k in range(1, len(branches) + 1):
            env = coupled.vec([name], {f"eps{k}": 1.0})
            w = coupled.prob(name, env)
            if w <= PRUNE:
                continue
            branch = coupled.copy()
            branch.condition(name, env)
            pw = branch.prob(observer, record)
            if w * pw <= PRUNE:
                continue
            branch.condition(observer, record)
            parts.append((w * pw, evaluate(branch)))
        total = sum(w for w, _ in parts)
        acc = {}
        for w, dist in parts:
            for key, p in dist.items():
                acc[key] = acc.get(key, 0.0) + w / total * p
        evidence.append((name, acc))
    verdict = _verdict([dist[(predicate,)] for _, dist in evidence])
    return {"verdict": verdict, "conditional": evidence[0][1], "evidence": evidence}


# --------------------------------------------------------------------------
# Comparisons against the printed report
# --------------------------------------------------------------------------


def as_dist(payload):
    return {tuple(e["outcome"]): e["probability"] for e in payload}


def same_dist(printed, expected):
    got = as_dist(printed)
    return got.keys() == expected.keys() and all(
        abs(got[k] - expected[k]) <= TOL for k in expected)


def born_problems(result, expected):
    if result["kind"] != "born" or not same_dist(result["distribution"], expected):
        return ["born distribution differs from the reference"]
    return []


def certainty_problems(result, expected):
    problems = []
    if result["verdict"] != expected["verdict"]:
        problems.append(f"certainty verdict {result['verdict']} != {expected['verdict']}")
    if not same_dist(result["conditional"], expected["conditional"]):
        problems.append("certainty conditional distribution differs")
    got = [(e["model"], e["distribution"]) for e in result["evidence"]]
    if [m for m, _ in got] != [m for m, _ in expected["evidence"]] or not all(
            same_dist(d, e) for (_, d), (_, e) in zip(got, expected["evidence"])):
        problems.append("certainty evidence differs")
    for _, dist in got:
        if abs(sum(e["probability"] for e in dist) - 1.0) > TOL:
            problems.append("evidence distribution does not sum to 1")
    return problems


def pair(p):
    return complex(p[0], p[1])


def rebuild(decomposition, dims):
    """Amplitudes of a printed decomposition whose parts are single registers
    in layout order."""
    total = np.zeros(int(np.prod(dims)), dtype=complex)
    for term in decomposition["terms"]:
        flat = np.array([1.0 + 0j])
        for factor in term["factors"]:
            flat = np.kron(flat, np.array([pair(a) for a in factor]))
        total += pair(term["coefficient"]) * flat
    return total


def triortho_problems(result, state, dims, verdict):
    if result["kind"] != "triortho":
        return ["not a triortho result"]
    if result["verdict"] != verdict:
        return [f"triortho verdict {result['verdict']} != {verdict}"]
    problems = []
    for key in ("canonical", "witness"):
        wanted = key == "canonical" and verdict != "no_decomposition" or (
            key == "witness" and verdict == "ambiguous")
        dec = result[key]
        if wanted != (dec is not None):
            problems.append(f"triortho {key} presence wrong")
        elif dec is not None:
            residual = float(np.linalg.norm(rebuild(dec, dims) - state))
            if residual > TOL:
                problems.append(f"triortho {key} rebuild residual {residual:.3g}")
    return problems


def rewrite_expected(t, bases):
    """Coefficient tensor of ``t`` over per-axis bases (rows = vectors)."""
    for axis, mat in enumerate(bases):
        t = np.moveaxis(np.tensordot(t, mat.conj(), axes=([axis], [1])), -1, axis)
    return t


def rewrite_problems(result, coeffs, labels):
    """``coeffs``: full coefficient tensor; ``labels``: per-axis label lists."""
    if result["kind"] != "rewrite":
        return ["not a rewrite result"]
    seen = set()
    for term in result["terms"]:
        idx = tuple(l.index(x) for l, x in zip(labels, term["labels"]))
        seen.add(idx)
        if abs(pair(term["coefficient"]) - coeffs[idx]) > TOL:
            return [f"rewrite coefficient {term['labels']} differs"]
    missing = [idx for idx in np.ndindex(*coeffs.shape)
               if abs(coeffs[idx]) ** 2 > 1e-10 and idx not in seen]
    return [f"rewrite omits {len(missing)} components"] if missing else []
