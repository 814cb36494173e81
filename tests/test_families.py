"""The paper's thesis over literature families, not at one point.

Hardy–FR.  The Frauchiger–Renner chain is an instance of Hardy's paradox.
With coin weight ``a`` and spin direction r = sqrt(1-s)|up> + sqrt(s)|down>,
every statement of the chain is certain for every (a, s), and the final
state gives the joint outcome the chain rules out the probability

    p(a, s) = a(1-a)s(1-s) / ((1-a)s + a),

whose maximum over the family is Hardy's (5√5-11)/2, at a = s = (3-√5)/2
(L. Hardy, Phys. Rev. Lett. 71, 1665 (1993)).  `fr_full.scn` is the point
(1/3, 1/2).  When each friend's record is copied into an environment right
after the friend's premeasurement, the chain no longer derives and there is
no contradiction.

Brukner's extended Wigner's friend (Č. Brukner, Entropy 20, 350 (2018)).
Two friends record the halves of a Bell pair; two outside observers measure
the friends' laboratories.  Their CHSH value is 2√2, and √2 once each
friend's record is copied into an environment.

Redundant records (W. H. Zurek, Nat. Phys. 5, 181 (2009)).  A friend's
record copied into two environments: observers who read the copies agree
with each other and with the friend.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab.runner import run
from pointerlab.scenario import parse_scenario

TOL = 1e-9
HARDY = (3 - math.sqrt(5)) / 2
HARDY_P = (5 * math.sqrt(5) - 11) / 2


def hardy_fr(a: float, s: float, tagged: bool = False) -> str:
    """Scenario text of `fr_full.scn` with coin weight ``a`` and ``r`` in
    place of ``right``.  Wbar's okbar is the coin vector statement 3 needs,
    and every coefficient is written with ``repr``.  ``tagged`` couples each
    friend's record to its own environment right after its premeasurement."""
    u, v = repr(math.sqrt(1 - s)), repr(math.sqrt(s))
    norm = math.sqrt((1 - a) * s + a)
    x, y = repr(math.sqrt(a) / norm), repr(math.sqrt((1 - a) * s) / norm)
    tag_fbar = "  couple env=E1 targets=(Fbar) branches={|F1>, |F2>}\n" if tagged else ""
    tag_f = "  couple env=E2 targets=(F) branches={|F1>, |F2>}\n" if tagged else ""
    return f"""\
layout:
  subsystem R {{head, tail}}
  subsystem S {{up, down}}
  derived S r = {u}|up> + {v}|down>
  subsystem Fbar {{F0, F1, F2}}
  subsystem F {{F0, F1, F2}}
  subsystem Wbar {{W0, W1, W2}}
  subsystem W {{W0, W1, W2}}
state: {math.sqrt(a)!r}|head,down,F0,F0,W0,W0> + {math.sqrt(1 - a)!r}|tail,r,F0,F0,W0,W0>
actions:
  premeasure target=R apparatus=Fbar basis={{head,tail}} outcomes={{F1,F2}} ready=F0
{tag_fbar}\
  group parts=(R,Fbar) as Lbar map={{(head,F1):h, (tail,F2):t}}
  premeasure target=S apparatus=F basis={{down,up}} outcomes={{F1,F2}} ready=F0
{tag_f}\
  group parts=(S,F) as L map={{(down,F1):-1/2, (up,F2):+1/2}}
  derived Lbar failbar = {x}|h> + {y}|t>
  derived Lbar okbar = {y}|h> - {x}|t>
  derived L fail = {v}|-1/2> + {u}|+1/2>
  derived L ok = {u}|-1/2> - {v}|+1/2>
  premeasure target=Lbar apparatus=Wbar basis={{failbar,okbar}} outcomes={{W1,W2}} ready=W0
  premeasure target=L apparatus=W basis={{fail,ok}} outcomes={{W1,W2}} ready=W0
models:
  model two-branch targets=(R,S,Fbar) branches={{|head,down,F1>, |tail,r,F2>}}
  model three-branch targets=(R,S,Fbar) branches={{|head,down,F1>, |tail,down,F2>, |tail,up,F2>}}
queries:
  consistency_audit chain=(statement-1-spin:"Fbar F2 S is_in_state r", \
statement-1:"Fbar F2 L will_obtain fail", statement-2:"F F2 Lbar is_in_state t", \
statement-3:"Wbar W2 L is_in_state +1/2") joint=(Wbar:okbar, W:ok) \
decoherent=statement-1 models=(two-branch, three-branch)
"""


def results(text: str) -> list[dict]:
    """The query results of ``text``, as the CLI's structured output
    reports them."""
    return run(parse_scenario(text), source_text=text).to_structured()["results"]


def audit(text: str) -> dict:
    """The premeasurement-semantics audit of ``text``, as the CLI's
    structured output reports it."""
    (result,) = results(text)
    return result["premeasurement"]


def hardy_p(a: float, s: float) -> float:
    return a * (1 - a) * s * (1 - s) / ((1 - a) * s + a)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_every_family_member_derives_the_chain_and_meets_hardys_probability(a, s):
    found = audit(hardy_fr(a, s))
    assert [stmt["verdict"] for stmt in found["statements"]] == ["certain"] * 4
    assert found["chain_derivable"] is True
    assert found["contradiction"] is True
    assert abs(found["computed_probability"] - hardy_p(a, s)) < TOL


@pytest.mark.parametrize(("a", "s", "expected"), [
    (HARDY, HARDY, HARDY_P),
    (1 / 3, 1 / 2, 1 / 12),
    (0.2, 0.7, 0.0442105263158),
])
def test_pinned_points(a, s, expected):
    assert abs(hardy_p(a, s) - expected) < TOL
    assert abs(audit(hardy_fr(a, s))["computed_probability"] - expected) < TOL


def test_tagged_records_leave_no_contradiction_at_hardys_maximum():
    found = audit(hardy_fr(HARDY, HARDY, tagged=True))
    verdicts = {stmt["name"]: (stmt["verdict"], stmt["probability"])
                for stmt in found["statements"]}
    assert verdicts["statement-1"][0] == "undetermined"
    assert abs(verdicts["statement-1"][1] - 0.527864045) < TOL
    assert verdicts["statement-3"][0] == "undetermined"
    assert abs(verdicts["statement-3"][1] - 0.4472135955) < TOL
    assert found["chain_derivable"] is False
    assert found["contradiction"] is False


def cx(c: float) -> str:
    """A real coefficient in the complex form the parser reads for any sign."""
    return f"({c!r}+0.0i)"


def brukner(alpha: float, beta: float, tagged: bool = False) -> str:
    """Scenario text of Brukner's setting (alpha, beta).  Friends FA and FB
    record the halves QA, QB of a Bell pair in z; each qubit and its
    friend's record group into a lab, LA or LB, whose two populated levels
    uu, dd form a qubit.  WA and WB premeasure the labs in the bases
    cos(t)|uu> + sin(t)|dd>, -sin(t)|uu> + cos(t)|dd> with t = alpha, beta.
    ``tagged`` couples each friend's record to its own environment."""
    def lab_basis(t):
        c, s = math.cos(t), math.sin(t)
        return f"{cx(c)}|uu> + {cx(s)}|dd>", f"{cx(-s)}|uu> + {cx(c)}|dd>"

    (ap, am), (bp, bm) = lab_basis(alpha), lab_basis(beta)
    h = cx(math.sqrt(1 / 2))
    tags = ("  couple env=EA targets=(FA) branches={|u>, |d>}\n"
            "  couple env=EB targets=(FB) branches={|u>, |d>}\n") if tagged else ""
    return f"""\
layout:
  subsystem QA {{u, d}}
  subsystem QB {{u, d}}
  subsystem FA {{r, u, d}}
  subsystem FB {{r, u, d}}
  subsystem WA {{r, p, m}}
  subsystem WB {{r, p, m}}
state: {h}|u,u,r,r,r,r> + {h}|d,d,r,r,r,r>
actions:
  premeasure target=QA apparatus=FA basis={{u,d}} outcomes={{u,d}} ready=r
  premeasure target=QB apparatus=FB basis={{u,d}} outcomes={{u,d}} ready=r
{tags}\
  group parts=(QA,FA) as LA map={{(u,u):uu, (d,d):dd}}
  group parts=(QB,FB) as LB map={{(u,u):uu, (d,d):dd}}
  derived LA ap = {ap}
  derived LA am = {am}
  derived LB bp = {bp}
  derived LB bm = {bm}
  premeasure target=LA apparatus=WA basis={{ap,am}} outcomes={{p,m}} ready=r
  premeasure target=LB apparatus=WB basis={{bp,bm}} outcomes={{p,m}} ready=r
queries:
  born targets=(WA, WB)
"""


def correlation(alpha: float, beta: float, tagged: bool) -> float:
    """E = p(same) - p(different) over WA's and WB's outcomes p, m; the
    ready level r is listed at p = 0."""
    (born,) = results(brukner(alpha, beta, tagged))
    sign = {"p": 1, "m": -1, "r": 0}
    return sum(sign[a] * sign[b] * e["probability"]
               for e in born["distribution"] for a, b in [e["outcome"]])


@pytest.mark.parametrize(("tagged", "expected"), [(False, 2 * math.sqrt(2)),
                                                  (True, math.sqrt(2))],
                         ids=["untagged", "tagged"])
def test_brukner_chsh(tagged, expected):
    # Settings: WA at 0 or pi/4, WB at +-pi/8.  Tagged records leave the
    # z-basis correlations and remove the pi/4 ones.
    e = {(a, b): correlation(a, b, tagged)
         for a in (0, math.pi / 4) for b in (math.pi / 8, -math.pi / 8)}
    chsh = (e[0, math.pi / 8] + e[0, -math.pi / 8]
            + e[math.pi / 4, math.pi / 8] - e[math.pi / 4, -math.pi / 8])
    assert abs(chsh - expected) < TOL


REDUNDANT_RECORDS = """\
layout:
  subsystem S {up, down}
  subsystem F {F0, F1, F2}
  subsystem A {a0, a1, a2}
  subsystem B {b0, b1, b2}
state: sqrt(1/3)|up,F0,a0,b0> + sqrt(2/3)|down,F0,a0,b0>
actions:
  premeasure target=S apparatus=F basis={up,down} outcomes={F1,F2} ready=F0
  couple env=E1 targets=(F) branches={|F1>, |F2>}
  couple env=E2 targets=(F) branches={|F1>, |F2>}
  premeasure target=E1 apparatus=A basis={eps1,eps2} outcomes={a1,a2} ready=a0
  premeasure target=E2 apparatus=B basis={eps1,eps2} outcomes={b1,b2} ready=b0
queries:
  born targets=(A, B)
  certainty observer=A outcome=a1 prop="B will_obtain eps1" semantics=premeasurement
  certainty observer=A outcome=a2 prop="B will_obtain eps2" semantics=premeasurement
  certainty observer=F outcome=F1 prop="A will_obtain eps1" semantics=premeasurement
  certainty observer=F outcome=F2 prop="A will_obtain eps2" semantics=premeasurement
"""


def test_redundant_records_agree():
    born, *claims = results(REDUNDANT_RECORDS)
    found = {tuple(e["outcome"]): e["probability"] for e in born["distribution"]}
    assert {k: p for k, p in found.items() if p} == pytest.approx(
        {("a1", "b1"): 1 / 3, ("a2", "b2"): 2 / 3}, abs=TOL)
    # A's record fixes what B will read, and F's fixes what A will read.
    assert [(c["observer"], c["outcome"], c["verdict"]) for c in claims] == [
        ("A", "a1", "certain"), ("A", "a2", "certain"),
        ("F", "F1", "certain"), ("F", "F2", "certain"),
    ]
