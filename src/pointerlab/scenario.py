"""Line-oriented scenario files: parsing, label resolution, serialization.

A scenario declares a layout, an initial state, an ordered list of actions
(premeasure / group / couple), optional environment models, and queries.
The parser is the one place where labels become vectors.  It tracks a
``SubsystemLayout`` through every group and couple, grouping with the
``hilbert`` functions the run uses, and resolves each label expression (the
initial state, premeasure/born/rewrite bases, couple and model branches,
the basis of a certainty proposition) against the layout in force where it
appears.  A derived label belongs to the register object it was declared
on, so a register that ``group`` puts in another's place starts with none.
The ``resolved`` field beside the text-level fields holds what
the engine runs: an action's step, a model's ``CoupleStep`` (never run), a
certainty claim's ``Claim``, an audit's decoherent recheck (a ``Claim``),
the models a comparison names.  Those fields take no part in equality, so
``parse_scenario(serialize_scenario(s)) == s`` compares scenario text.

The format is purpose-built so diagnostics can talk physics: undeclared
subsystems, bad ket arity, and vectors that are not orthonormal are all
caught at parse time with line/column positions.  Every declared vector
goes through ``hilbert.gram_defect``: a norm is reported at its vector,
then an overlap at its set, with the Gram entry; NaN and inf fail.  A
diagnostic's column comes from the reader that finds the fault, and its
line from ``parse_scenario``'s line loop, the only code that stamps a line.

Grammar sketch::

    # comments and blank lines are ignored
    layout:
      subsystem R {head, tail}
      derived S right = sqrt(1/2)|up> + sqrt(1/2)|down>
    state: sqrt(1/3)|head,down,F0> + sqrt(2/3)|tail,right,F0>
    actions:
      premeasure target=R apparatus=Fbar basis={head,tail} outcomes={F1,F2} ready=F0
      group parts=(R,Fbar) as Lbar map={(head,F1):h, (tail,F2):t}
      couple env=E targets=(R,S) branches={|head,down>, |tail,right>}
    models:
      model two-branch targets=(R,S) branches={|head,down>, |tail,right>}
    queries:
      born targets=(Lbar:{failbar,okbar}, L:{fail,ok})
      certainty observer=Fbar outcome=F2 prop="L will_obtain fail" semantics=premeasurement
      consistency_audit chain=(s1:"Fbar F2 L will_obtain fail", s2:"F F2 Lbar is_in_state t")
          joint=(Wbar:okbar, W:ok) decoherent=s1 models=(two-branch)   # on one line
      decoherence_compare models=(two-branch, three-branch) hidden=(S) apparatus=A

Each token kind is read one way.  A name a directive declares (subsystem,
group, couple environment, model, audit statement) starts with a letter or
underscore; a label is letters, digits and ``+ - / . _``.  A set-like
bracketed list (names, basis and branch sets, the group map, born targets,
rewrite bases, triortho parts) splits at its top-level commas, with spaces
allowed and empty entries skipped; an entry whose key (a name or label, the
name before ``:``, a map entry's ``(a,b)``) repeats is an error at its
column.  Kets and vector literals are strict positional lists: every entry
counts, and an empty one is an error.
Directive lines split into whitespace tokens, inside which brackets, kets
and quoted strings bind; only ``subsystem`` and ``derived`` lines are
matched whole.  An expression is read one term at a time, a coefficient
and then ``|labels>``, and every term after the first opens with ``+`` or
``-``.  Coefficients accept ``sqrt(p/q)`` sugar, plain decimals, and
pure-imaginary ``0.5i``; a complex with both parts needs parentheses:
``(0.5+0.5i)``.  A coefficient, a ket label and a word of a quoted
proposition or statement are each reported at their own column.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DegenerateStateError,
    NonInjectiveLabelMapError,
    NonOrthonormalBasisError,
    ScenarioParseError,
    UnknownLabelError,
    UnknownSubsystemError,
)
from .hilbert import (
    MAX_AMPLITUDES,
    StateVector,
    Subsystem,
    SubsystemLayout,
    gram_defect,
    group_layout,
    merged_register,
    normalized,
)
from .experiment import Claim, CoupleStep, GroupStep, Proposition, claim_plan
from .measurement import Basis, MeasurementSpec, branch_labels, environment_labels

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_LABEL_RE = re.compile(r"^[A-Za-z0-9_+\-/.]+$")

SECTION_ORDER = ("layout", "state", "actions", "models", "queries")


def _resolved():
    """A field holding what the parser resolved from the fields before it."""
    return field(compare=False, repr=False)


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedDecl:
    """A named unit vector over one subsystem, written in its computational
    labels; usable wherever a label is."""

    subsystem: str
    label: str
    terms: tuple[tuple[str, complex], ...]


@dataclass(frozen=True)
class StateTerm:
    """One ``coefficient|labels>`` term; ``columns`` holds the column of
    each label in the text it was read from, and takes no part in equality."""

    coefficient: complex
    labels: tuple[str, ...]
    columns: tuple[int, ...] = field(default=(), compare=False, repr=False)


BasisItem = Union[str, tuple[complex, ...]]


@dataclass(frozen=True)
class PremeasureAction:
    """``resolved`` is the premeasurement step."""

    target: str
    apparatus: str
    basis: tuple[BasisItem, ...]
    outcomes: tuple[str, ...]
    ready: str
    resolved: MeasurementSpec = _resolved()


@dataclass(frozen=True)
class GroupAction:
    """``resolved`` is the grouping step, with the merged register."""

    parts: tuple[str, ...]
    new_name: str
    label_map: tuple[tuple[tuple[str, ...], str], ...]
    resolved: GroupStep = _resolved()


@dataclass(frozen=True)
class CoupleAction:
    """``resolved`` is the coupling step, with the branch set checked
    orthonormal."""

    environment: str
    targets: tuple[str, ...]
    branches: tuple[tuple[StateTerm, ...], ...]
    resolved: CoupleStep = _resolved()


@dataclass(frozen=True)
class ModelDecl:
    """``resolved`` is the model's coupling step, its branches checked orthonormal."""

    name: str
    targets: tuple[str, ...]
    branches: tuple[tuple[StateTerm, ...], ...]
    resolved: CoupleStep = _resolved()


@dataclass(frozen=True)
class BornQuery:
    """``resolved`` holds one basis per target; a target without labels is
    read in its computational basis."""

    targets: tuple[tuple[str, tuple[str, ...] | None], ...]
    resolved: tuple[Basis, ...] = _resolved()


@dataclass(frozen=True)
class CertaintyQuery:
    """``resolved`` is the claim, planned as ``experiment.certainties`` plans
    it: its subject is the register its basis lives on (an apparatus subject
    names its target), and its models are the declared models' own objects."""

    observer: str
    outcome: str
    prop_subject: str
    prop_quantifier: str
    prop_predicate: str
    semantics: str
    models: tuple[str, ...]
    resolved: Claim = _resolved()


@dataclass(frozen=True)
class RewriteQuery:
    """``resolved`` holds the declared bases, in order, then the
    computational basis of each register the query leaves alone."""

    bases: tuple[tuple[str, tuple[str, ...]], ...]
    resolved: tuple[Basis, ...] = _resolved()


@dataclass(frozen=True)
class TriorthoQuery:
    parts: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class AuditQuery:
    """A chain of named statements (premeasurement certainty queries) whose
    conclusion is that the ``joint`` outcome ((apparatus, measured-basis
    label) pairs) is impossible.  ``resolved`` is the recheck: the claim of
    the statement named ``decoherent`` under decoherent semantics, against
    the declared models' own objects."""

    chain: tuple[tuple[str, CertaintyQuery], ...]
    joint: tuple[tuple[str, str], ...]
    decoherent: str
    models: tuple[str, ...]
    resolved: Claim = _resolved()


@dataclass(frozen=True)
class CompareQuery:
    """Two environment models of the final state, compared in full and with
    the ``hidden`` registers traced out; ``resolved`` holds the models."""

    models: tuple[str, ...]
    hidden: tuple[str, ...]
    apparatus: str
    resolved: tuple[CoupleStep, ...] = _resolved()


Action = Union[PremeasureAction, GroupAction, CoupleAction]
Step = Union[Action, DerivedDecl]
Query = Union[BornQuery, CertaintyQuery, RewriteQuery, TriorthoQuery, AuditQuery, CompareQuery]


@dataclass(frozen=True)
class Scenario:
    subsystems: tuple[Subsystem, ...]
    derived: tuple[DerivedDecl, ...]
    state_terms: tuple[StateTerm, ...]
    steps: tuple[Step, ...]
    models: tuple[ModelDecl, ...]
    queries: tuple[Query, ...]
    initial: StateVector = _resolved()
    layouts: tuple[SubsystemLayout, ...] = _resolved()  # each stage's, the declared one first

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(s for s in self.steps if not isinstance(s, DerivedDecl))


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------


# What changes the lexing state, in one match each: an opening bracket
# (group 1), a closing one (group 2), a whole quoted string or ket, up to its
# closing '"' or '>' or else to the end of the text, or the end of the text.
_STRUCTURE_RE = re.compile(r'([({\[])|([)}\]])|"[^"]*"?|\|[^>]*>?|\Z')
_SPACE_RE = re.compile(r"\s+")
_COMMA_RE = re.compile(",")


def _split(text: str, base: int, sep: re.Pattern) -> list[tuple[str, int]]:
    """Split ``text`` at each top-level match of ``sep`` (outside brackets,
    kets |...> and quoted strings), dropping the match.  A closing bracket
    without a match keeps what follows out until its balance returns.
    Pieces come back stripped, each with its column: ``base`` plus its
    offset in ``text``."""
    pieces = []
    start = depth = lo = 0
    # Each run of top-level text ends where a structural match starts; the
    # last one ends at the match of the end of the text.
    for m in _STRUCTURE_RE.finditer(text):
        hi = m.start()
        if depth == 0 and hi > lo:
            for s in sep.finditer(text, lo, hi):
                body = text[start:s.start()].lstrip()
                pieces.append((body.rstrip(), base + s.start() - len(body)))
                start = s.end()
        if m.lastindex == 1:
            depth += 1
        elif m.lastindex == 2:
            depth -= 1
        lo = m.end()
    body = text[start:].lstrip()
    pieces.append((body.rstrip(), base + len(text) - len(body)))
    return pieces


def _tokens(text: str, base: int) -> list[tuple[str, int]]:
    """Split on top-level whitespace; (), {}, "..." and |...> bind.  Each
    token comes with its column, ``base`` being the column of ``text[0]``."""
    return [(tok, off) for tok, off in _split(text, base, _SPACE_RE) if tok]


def _split_commas(text: str, base: int) -> list[tuple[str, int]]:
    return _split(text, base, _COMMA_RE)


def _unwrap(text: str, brackets: str, col: int, what: str) -> tuple[str, int]:
    """The inside of ``text`` wrapped in ``brackets`` (such as "()"), with
    its column."""
    open_ch, close_ch = brackets
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ScenarioParseError(
            f"{what} must be wrapped in {open_ch}...{close_ch}, got {text!r}",
            col, f"write {what} as {open_ch}...{close_ch}",
        )
    return text[1:-1], col + 1


def _entries(text: str, brackets: str, col: int, what: str,
             hint: str = "") -> list[tuple[str, int]]:
    """The entries of the set-like list ``what``, wrapped in ``brackets``:
    the non-empty pieces between its top-level commas, each with its
    column.  Given a ``hint``, an empty list is a parse error at ``col``.
    An entry whose key (its text before any ':', spaces dropped: a name, a
    label, or a map entry's ``(a,b)``) repeats an earlier one's is an error
    at its column; kets, vector literals and sublists have no key."""
    inner, base = _unwrap(text, brackets, col, what)
    out = [(entry, off) for entry, off in _split_commas(inner, base) if entry]
    if hint and not out:
        raise ScenarioParseError(f"empty {what}", col, hint)
    seen: set[str] = set()
    for entry, off in out:
        key, colon, _ = entry.partition(":")
        if "|" not in entry and (colon or not key.startswith("(")):
            key = "".join(key.split())
            if key in seen:
                raise ScenarioParseError(f"{what} entry {key!r} appears twice", off,
                                         "give each entry once")
            seen.add(key)
    return out


def _name(text: str, col: int, what: str) -> str:
    """``text`` as the name a ``what`` declares, or a parse error at ``col``."""
    if not _NAME_RE.match(text):
        raise ScenarioParseError(f"malformed {what} name {text!r}", col,
                                 "names start with a letter or underscore")
    return text


def _label(text: str, col: int, what: str = "label") -> str:
    """``text`` as a label, or a parse error at ``col`` calling it ``what``."""
    if not _LABEL_RE.match(text):
        raise ScenarioParseError(f"malformed {what} {text!r}", col,
                                 "labels use letters, digits, + - / . _")
    return text


_NUMBER = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
# Every coefficient form in one match: a sign (group 1), then sqrt(p/q)
# (groups 2, 3), (a+bi) (4, 5, 6), or a decimal (7) and an i (8), either of
# which may be left out.
_COEFFICIENT_RE = re.compile(
    rf"\s*([+-]?)\s*(?:sqrt\(\s*(\d+)\s*/\s*(\d+)\s*\)"
    rf"|\(\s*([+-]?{_NUMBER})\s*([+-])\s*({_NUMBER})i\s*\)|({_NUMBER})?(i)?)\s*\Z")
# One term of an expression: its coefficient text, up to the ket's "|", then
# the ket's labels and the space after it.
_TERM_RE = re.compile(r"([^|]*)\|([^>]*)>\s*")


def _coefficient(text: str, col: int) -> complex:
    """Parse one coefficient literal: an optional sign, then sqrt(p/q), a
    decimal, an imaginary (0.5i or i), a parenthesized complex (a+bi), or
    nothing, which stands for 1.  Spaces may surround the sign and the
    literal, and ``col`` is where the text starts.  A value too large for
    a double is rejected."""
    m = _COEFFICIENT_RE.match(text)
    if m is None:
        raise ScenarioParseError(f"malformed coefficient {text.strip()!r}", col,
                                 "use sqrt(p/q), a decimal, 0.5i, or (a+bi)")
    sign_text, p, q, re_text, im_sign, im_text, number, imaginary = m.groups()
    sign = -1.0 if sign_text == "-" else 1.0
    if p is not None:
        # int() refuses integers past its digit limit, and p/q past a double
        # overflows: either reads as not finite.
        try:
            value = complex(sign * math.sqrt(int(p) / int(q)))
        except ZeroDivisionError:
            raise ScenarioParseError("sqrt with zero denominator", col,
                                     "use a nonzero denominator") from None
        except (OverflowError, ValueError):
            value = complex(math.inf)
    elif re_text is not None:
        im_part = float(im_text) * (-1.0 if im_sign == "-" else 1.0)
        value = sign * complex(float(re_text), im_part)
    else:
        magnitude = sign * (float(number) if number else 1.0)
        value = complex(0.0, magnitude) if imaginary else complex(magnitude)
    if not cmath.isfinite(value):
        raise ScenarioParseError(f"coefficient {text.strip()!r} is not finite", col,
                                 "use a magnitude below 1e308")
    return value


def _expression(text: str, col: int) -> tuple[StateTerm, ...]:
    """Parse ``coeff|ket> + coeff|ket> - ...`` into state terms, ``col``
    being the column of ``text[0]``.  Terms are read one at a time: a
    coefficient (``_coefficient``), then ``|labels>``; every term after
    the first opens with ``+`` or ``-``, the sign of its coefficient.  Each
    term keeps the column of each of its labels."""
    pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise ScenarioParseError("empty state expression", col,
                                 "give at least one coefficient|ket> term")
    terms: list[StateTerm] = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ScenarioParseError(
                f"expected coefficient|ket> term, got {text[pos:].rstrip()!r}", col + pos,
                "each term looks like sqrt(1/3)|head,down>")
        if terms and text[pos] not in "+-":
            raise ScenarioParseError(f"expected + or - before {m.group().rstrip()!r}",
                                     col + pos, "join terms with + or -")
        coeff = _coefficient(m.group(1), col + pos)
        labels = _split_commas(m.group(2), col + m.start(2))
        terms.append(StateTerm(coeff, tuple(_label(lab, at, "ket label") for lab, at in labels),
                               tuple(at for _, at in labels)))
        pos = m.end()
    return tuple(terms)


# --------------------------------------------------------------------------
# The parse context: layout tracking with numeric validation
# --------------------------------------------------------------------------


class _Context:
    """What the parser knows when it reads a line.  Labels resolve to
    vectors against the layout in force (None before the first subsystem
    line) and the derived labels.  A derived
    label belongs to the register object it was declared on: ``derived``
    maps (the register's ``id``, label) to the register, which keeps the id
    taken, the label's terms and its vector.  A register that ``group``
    puts in another's place, even under the same name and labels, has none
    of them.  The basis memo is keyed by register object too.  ``stages``
    and ``steps`` hold the layouts and resolved steps as a transcript keeps
    them; ``apparatus`` the premeasure action of each apparatus, and
    ``models`` the declared models."""

    def __init__(self):
        self.layout: SubsystemLayout | None = None
        self.derived: dict[tuple[int, str],
                           tuple[Subsystem, tuple[tuple[str, complex], ...], np.ndarray]] = {}
        self._bases: dict[tuple, Basis] = {}
        self.stages: list[SubsystemLayout] = []
        self.steps: list[MeasurementSpec | GroupStep | CoupleStep | None] = [None]
        self.apparatus: dict[str, PremeasureAction] = {}
        self.models: dict[str, ModelDecl] = {}

    def add(self, name: str, labels: tuple[str, ...], col: int) -> None:
        held = self.layout.subsystems if self.layout else ()
        amplitudes = len(labels) * math.prod(sub.dimension for sub in held)
        if amplitudes > MAX_AMPLITUDES:
            raise ScenarioParseError(
                f"layout would hold {amplitudes:,} amplitudes, over the limit of "
                f"{MAX_AMPLITUDES:,}", col, "use fewer or smaller registers")
        self.layout = SubsystemLayout(held + (Subsystem(name, labels),))

    def _expand(self, sub: Subsystem, label: str, col: int) -> list[tuple[int, complex]]:
        if label in sub.positions:
            return [(sub.positions[label], 1.0 + 0.0j)]
        entry = self.derived.get((id(sub), label))
        if entry is None:
            raise ScenarioParseError(
                f"{label!r} is neither a basis label nor a derived label of {sub.name!r}",
                col, f"declare it with: derived {sub.name} {label} = ...",
            )
        return [(sub.positions[lab], c) for lab, c in entry[1]]

    def vector(self, subs: Sequence[Subsystem], terms: Sequence[StateTerm]) -> np.ndarray:
        """Raw amplitudes of ``terms`` (one basis or derived label per
        register) over ``subs``, flat index lexicographic in the order given;
        an unknown label is an error at its column."""
        dims = [sub.dimension for sub in subs]
        vec = np.zeros(math.prod(dims), dtype=np.complex128)
        for term in terms:
            expansions = [self._expand(sub, lab, at)
                          for sub, lab, at in zip(subs, term.labels, term.columns, strict=True)]
            for combo in itertools.product(*expansions):
                flat = 0
                coeff = term.coefficient
                for (k, c), d in zip(combo, dims):
                    flat = flat * d + k
                    coeff *= c
                vec[flat] += coeff
        return vec

    def item_vector(self, sub: Subsystem, item: BasisItem, col: int) -> np.ndarray:
        if isinstance(item, str):
            entry = self.derived.get((id(sub), item))
            if entry is not None:
                return entry[2]
            return self.vector((sub,), (StateTerm(1.0 + 0.0j, (item,), (col,)),))
        if len(item) != sub.dimension:
            raise ScenarioParseError(
                f"vector literal has {len(item)} entries, subsystem {sub.name!r} "
                f"has dimension {sub.dimension}", col,
                "give one amplitude per basis label",
            )
        return np.array(item, dtype=np.complex128)

    def basis(self, sub: Subsystem, items: Sequence[tuple[BasisItem, int]], col: int) -> Basis:
        """Orthonormal basis over one register from (item, column) pairs; a
        vector literal is labelled b<k> after its position.  An item error,
        a literal's label that the set also names, or a vector that is not
        unit points at the item, an overlap at the set's column ``col``.
        Each distinct set over the same register resolves once."""
        key = (id(sub), tuple(it for it, _ in items))
        if key in self._bases:
            return self._bases[key]
        raw = np.stack([self.item_vector(sub, it, icol) for it, icol in items])
        labels = tuple(it if isinstance(it, str) else f"b{k}" for k, (it, _) in enumerate(items))
        for k, (it, icol) in enumerate(items):
            if not isinstance(it, str) and labels.count(labels[k]) > 1:
                raise ScenarioParseError(
                    f"vector literal {k} is labelled {labels[k]!r}, which the set also names",
                    icol, "name the vector with a derived label")
        self._bases[key] = _checked(labels, SubsystemLayout((sub,)), raw, [c for _, c in items],
                                    col, "basis", f"basis over {sub.name!r} is not orthonormal")
        return self._bases[key]

    def computational(self, sub: Subsystem) -> Basis:
        """The computational basis of one register, through the same memo as
        ``basis`` (the set of all its labels, in order)."""
        key = (id(sub), sub.labels)
        if key not in self._bases:
            self._bases[key] = Basis.computational(SubsystemLayout((sub,)), sub.name)
        return self._bases[key]

    def group(self, parts: Sequence[str], new_name: str,
              label_map: dict[tuple[str, ...], str], col: int) -> Subsystem:
        try:
            register = merged_register(self.layout, parts, new_name, label_map)
        except (NonInjectiveLabelMapError, UnknownLabelError) as exc:
            raise ScenarioParseError(str(exc), col,
                                     "map distinct label tuples to distinct names") from None
        self.layout = group_layout(self.layout, parts, register)
        return register


def _register(layout: SubsystemLayout | None, name: str, col: int) -> Subsystem:
    """Register ``name`` of ``layout``, or a parse error at ``col``."""
    if layout is None or name not in layout.axes:
        raise ScenarioParseError(f"subsystem {name!r} was never declared", col,
                                 "declare it in the layout section")
    return layout.subsystems[layout.axes[name]]


def _registers(text: str, col: int, layout: SubsystemLayout) -> tuple[str, ...]:
    """A name list of registers of ``layout``, each checked at its column."""
    return tuple(_register(layout, name, off).name for name, off in _parse_name_list(text, col))


def _not_unit(what: str, g: complex, col: int) -> ScenarioParseError:
    """The one report of a vector whose Gram diagonal entry ``g`` fails."""
    return ScenarioParseError(f"{what} has norm {math.sqrt(abs(g)):.12g}, expected 1", col,
                              "normalize the vector")


def _checked(labels: tuple[str, ...], layout: SubsystemLayout, rows: np.ndarray,
             cols: Sequence[int], col: int, kind: str, what: str) -> Basis:
    """The basis along raw ``rows``: a row that is not unit is a parse error
    at ``cols[i]``, overlapping rows one at ``col`` naming ``what``.  Callers
    repeat a label only on a repeated row, which fails the Gram check first."""
    try:
        return Basis.from_rows(labels, layout, rows)
    except NonOrthonormalBasisError as exc:
        i, j, g = exc.gram
        if i == j:
            raise _not_unit(f"{kind} vector", g, cols[i]) from None
        raise ScenarioParseError(f"{what}: Gram[{i},{j}] = {_fmt_complex_plain(g)}",
                                 col, "make the vectors orthonormal") from None


# --------------------------------------------------------------------------
# Directive parsers
# --------------------------------------------------------------------------


def _field_map(tokens: list[tuple[str, int]], allowed: Iterable[str]
               ) -> dict[str, tuple[str, int]]:
    allowed = set(allowed)
    out: dict[str, tuple[str, int]] = {}
    for tok, off in tokens:
        if "=" not in tok:
            raise ScenarioParseError(f"expected key=value, got {tok!r}", off,
                                     f"allowed keys: {sorted(allowed)}")
        key, value = tok.split("=", 1)
        if key not in allowed:
            raise ScenarioParseError(f"unknown field {key!r}", off,
                                     f"allowed keys: {sorted(allowed)}")
        if key in out:
            raise ScenarioParseError(f"duplicate field {key!r}", off, "give each field once")
        out[key] = (value, off + len(key) + 1)
    return out


def _need(fields: dict[str, tuple[str, int]], key: str, directive: str) -> tuple[str, int]:
    if key not in fields:
        raise ScenarioParseError(f"{directive} is missing {key}=...", 1, f"add {key}=...")
    return fields[key]


def _parse_name_list(text: str, col: int) -> list[tuple[str, int]]:
    return _entries(text, "()", col, "name list", "list at least one name")


def _vector_literal(text: str, col: int) -> tuple[complex, ...]:
    """``(a, b, ...)``: one amplitude per entry, none of them left out."""
    inner, base = _unwrap(text, "()", col, "vector literal")
    comps = []
    for c, off in _split_commas(inner, base):
        if c in ("", "+", "-"):
            raise ScenarioParseError(f"vector literal entry {c!r} has no amplitude", off,
                                     "write every amplitude out, such as 1 or -1")
        comps.append(_coefficient(c, off))
    return tuple(comps)


def _parse_basis_items(text: str, col: int) -> tuple[tuple[BasisItem, int], ...]:
    return tuple(
        (_vector_literal(raw, off) if raw.startswith("(") else _label(raw, off), off)
        for raw, off in _entries(text, "{}", col, "basis set", "list basis elements"))


def _fmt_complex_plain(c: complex) -> str:
    re_part, im_part = float(c.real), float(c.imag)
    if im_part == 0:
        return repr(re_part)
    if re_part == 0:
        return f"{im_part!r}i"
    return f"({re_part!r}{'+' if im_part >= 0 else '-'}{abs(im_part)!r}i)"


# --------------------------------------------------------------------------
# The parser
# --------------------------------------------------------------------------


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioParseError with
    line/column and a fix hint on the first problem found.  The reader that
    finds a problem gives its column, and the line loop, the only code that
    stamps a line, puts on it the line it was reading (the last line for a
    problem found at the end)."""
    ctx = _Context()
    derived_layout: list[DerivedDecl] = []
    state_terms: tuple[StateTerm, ...] | None = None
    initial: StateVector | None = None
    steps: list[Step] = []
    queries: list[Query] = []
    section = None
    seen_sections: list[str] = []
    line_no = 1
    try:
        # A huge coefficient makes a norm or Gram entry inf or nan, which the
        # checks report; numpy's warnings about it stay unprinted.
        with np.errstate(all="ignore"):
            for line_no, raw_line in enumerate(text.splitlines(), start=1):
                line = raw_line.split("#", 1)[0].rstrip()
                if not line.strip():
                    continue
                header = re.match(r"\s*(\w+):\s*(.*)", line)
                if header and header.group(1) in SECTION_ORDER:
                    section = header.group(1)
                    if section in seen_sections:
                        raise ScenarioParseError(f"duplicate section {section!r}", 1,
                                                 "each section appears at most once")
                    if seen_sections and (SECTION_ORDER.index(section)
                                          < SECTION_ORDER.index(seen_sections[-1])):
                        raise ScenarioParseError(f"section {section!r} out of order", 1,
                                                 f"order sections as {', '.join(SECTION_ORDER)}")
                    seen_sections.append(section)
                    if section != "layout" and not ctx.stages:
                        if ctx.layout is None:
                            raise ScenarioParseError(f"{section}: comes before any subsystem",
                                                     1, "start with layout: and a subsystem")
                        ctx.stages.append(ctx.layout)
                    rest = header.group(2)
                    if section == "state":
                        if not rest:
                            raise ScenarioParseError("state: needs an expression on the same line",
                                                     1, "write state: coeff|ket> + ...")
                        state_terms, initial = _parse_state(rest, header.start(2) + 1, ctx)
                    elif rest:
                        raise ScenarioParseError(f"unexpected text after {section}:", 1,
                                                 "put directives on their own lines")
                    continue
                if section is None:
                    raise ScenarioParseError("directive before any section header", 1,
                                             "start with layout:")
                stripped = line.strip()
                col0 = raw_line.index(stripped[0]) + 1
                if section == "layout" and stripped.startswith("derived"):
                    derived_layout.append(_parse_derived(stripped, col0, ctx))
                elif section == "layout":
                    _parse_layout_line(stripped, col0, ctx)
                elif section == "state":
                    raise ScenarioParseError("state section holds a single expression line",
                                             col0, "put the expression after state:")
                elif section == "actions":
                    step = _parse_action_line(stripped, col0, ctx)
                    steps.append(step)
                    if isinstance(step, PremeasureAction):
                        ctx.apparatus[step.apparatus] = step
                    if not isinstance(step, DerivedDecl):
                        ctx.stages.append(ctx.layout)
                        ctx.steps.append(step.resolved)
                elif section == "models":
                    model = _parse_model_line(stripped, col0, ctx)
                    ctx.models[model.name] = model
                elif section == "queries":
                    queries.append(_parse_query_line(stripped, col0, ctx))
        if state_terms is None:
            raise ScenarioParseError("no state: section", 1, "declare the initial state")
        if not queries:
            raise ScenarioParseError("no queries", 1,
                                     "add a queries: section with at least one query")
    except ScenarioParseError as exc:
        exc.line = line_no
        raise
    return Scenario(
        subsystems=ctx.stages[0].subsystems,
        derived=tuple(derived_layout),
        state_terms=state_terms,
        steps=tuple(steps),
        models=tuple(ctx.models.values()),
        queries=tuple(queries),
        initial=initial,
        layouts=tuple(ctx.stages),
    )


def _parse_derived(stripped: str, col0: int, ctx: _Context) -> DerivedDecl:
    m = re.match(r"^derived\s+(\S+)\s+(\S+)\s*=\s*(.+)$", stripped)
    if not m:
        raise ScenarioParseError("malformed derived declaration", col0,
                                 "write: derived SUBSYSTEM LABEL = expression")
    sub_name, label, expr = m.group(1), m.group(2), m.group(3)
    sub = _register(ctx.layout, sub_name, col0 + m.start(1))
    lcol = col0 + m.start(2)
    _label(label, lcol, "derived label")
    if label in sub.positions or (id(sub), label) in ctx.derived:
        raise ScenarioParseError(f"label {label!r} already exists on {sub_name!r}", lcol,
                                 "pick a fresh label")
    expr_col = col0 + m.start(3)
    terms = _expression(expr, expr_col)
    for term in terms:
        if len(term.labels) != 1:
            raise ScenarioParseError("derived vectors use single-label kets", term.columns[0],
                                     "write |up>, not |up,down>")
        if term.labels[0] not in sub.positions:
            raise ScenarioParseError(
                f"{term.labels[0]!r} is not a basis label of {sub_name!r}", term.columns[0],
                "derived vectors expand over computational labels only")
    vec = ctx.vector((sub,), terms)
    defect = gram_defect(vec[None])
    if defect is not None:
        raise _not_unit(f"derived vector {label!r}", defect[2], expr_col)
    decl = DerivedDecl(sub_name, label, tuple((t.labels[0], t.coefficient) for t in terms))
    ctx.derived[(id(sub), label)] = (sub, decl.terms, vec)
    return decl


def _parse_layout_line(stripped: str, col0: int, ctx: _Context) -> None:
    if not stripped.startswith("subsystem"):
        raise ScenarioParseError(f"unknown layout directive {stripped.split()[0]!r}", col0,
                                 "use subsystem or derived")
    m = re.match(r"^subsystem\s+(\S+)\s*(\{.*\})$", stripped)
    if not m:
        raise ScenarioParseError("malformed subsystem declaration", col0,
                                 "write: subsystem NAME {label, label, ...}")
    ncol = col0 + m.start(1)
    name = _name(m.group(1), ncol, "subsystem")
    if ctx.layout and name in ctx.layout.axes:
        raise ScenarioParseError(f"subsystem {name!r} already declared", ncol,
                                 "pick a fresh name")
    labels = tuple(_label(lab, off) for lab, off in
                   _entries(m.group(2), "{}", col0 + m.start(2), "label set",
                            "list at least one label"))
    ctx.add(name, labels, col0)


def _parse_state(expr: str, col: int, ctx: _Context
                 ) -> tuple[tuple[StateTerm, ...], StateVector]:
    terms = _expression(expr, col)
    subs = ctx.layout.subsystems
    for term in terms:
        if len(term.labels) != len(subs):
            raise ScenarioParseError(
                f"ket has {len(term.labels)} labels, layout has {len(subs)} subsystems",
                term.columns[0], "give one label per declared subsystem, in order")
    amps = ctx.vector(subs, terms)
    try:
        return terms, normalized(ctx.layout, amps)
    except DegenerateStateError as exc:
        hint = ("give the state a nonzero amplitude" if not amps.any()
                else "scale the coefficients toward 1")
        raise ScenarioParseError(str(exc), col, hint) from None


def _parse_action_line(stripped: str, col0: int, ctx: _Context) -> Step:
    # A directive word needs no lexing (it holds no bracket, ket or quote),
    # and derived lines are matched whole: premeasure, group and couple
    # lines, and the head of an unknown action, are tokenized.
    head = stripped.split(None, 1)[0]
    if head == "derived":
        return _parse_derived(stripped, col0, ctx)
    if head == "premeasure":
        fields = _field_map(_tokens(stripped, col0)[1:],
                            ("target", "apparatus", "basis", "outcomes", "ready"))
        tval, tcol = _need(fields, "target", "premeasure")
        target = _register(ctx.layout, tval, tcol)
        aval, acol = _need(fields, "apparatus", "premeasure")
        app = _register(ctx.layout, aval, acol)
        if aval in ctx.apparatus:
            raise ScenarioParseError(f"apparatus {aval!r} used by two premeasure actions",
                                     acol, "use one apparatus per measurement")
        if aval == tval:
            raise ScenarioParseError("apparatus cannot equal target", acol,
                                     "measure one register with another")
        bval, bcol = _need(fields, "basis", "premeasure")
        items = _parse_basis_items(bval, bcol)
        basis = tuple(it for it, _ in items)
        resolved = ctx.basis(target, items, bcol)
        oval, ocol = _need(fields, "outcomes", "premeasure")
        outcomes = []
        for it, off in _entries(oval, "{}", ocol, "outcome set", "list outcomes"):
            if it not in app.positions:
                raise ScenarioParseError(f"outcome {it!r} is not a label of apparatus {aval!r}",
                                         off, "outcomes name apparatus levels")
            outcomes.append(it)
        if len(outcomes) != len(basis):
            raise ScenarioParseError(f"{len(basis)} basis vectors but {len(outcomes)} outcomes",
                                     ocol, "give one outcome per basis vector")
        rval, rcol = _need(fields, "ready", "premeasure")
        if rval not in app.positions:
            raise ScenarioParseError(f"ready label {rval!r} not on apparatus {aval!r}",
                                     rcol, "ready names an apparatus level")
        step = MeasurementSpec(tval, resolved, aval, rval, tuple(outcomes))
        return PremeasureAction(tval, aval, basis, tuple(outcomes), rval, step)
    if head == "group":
        toks = _tokens(stripped, col0)
        if not (len(toks) == 5 and toks[1][0].startswith("parts=") and toks[2][0] == "as"
                and toks[4][0].startswith("map=")):
            raise ScenarioParseError("malformed group action", col0,
                                     "write: group parts=(A,B) as NAME map={(a,b):x, ...}")
        fields = _field_map([toks[1], toks[4]], ("parts", "map"))
        pval, pcol = fields["parts"]
        parts = _registers(pval, pcol, ctx.layout)
        if len(parts) < 2:
            raise ScenarioParseError("group needs two or more distinct parts", pcol,
                                     "list distinct subsystem names")
        new_name, ncol = toks[3]
        _name(new_name, ncol, "group")
        if new_name in ctx.layout.axes and new_name not in parts:
            raise ScenarioParseError(f"group name {new_name!r} already taken", ncol,
                                     "pick a fresh name")
        mval, mcol = fields["map"]
        pairs = []
        for raw, off in _entries(mval, "{}", mcol, "label map"):
            pm = re.match(r"^\((.*)\)\s*:\s*(\S+)$", raw)
            if not pm:
                raise ScenarioParseError(f"malformed map entry {raw!r}", off,
                                         "entries look like (a,b):name")
            key = tuple(k for k, _ in _split_commas(pm.group(1), off))
            pairs.append((key, _label(pm.group(2), off + pm.start(2))))
        register = ctx.group(parts, new_name, dict(pairs), mcol)
        return GroupAction(parts, new_name, tuple(pairs), GroupStep(parts, register))
    if head == "couple":
        fields = _field_map(_tokens(stripped, col0)[1:], ("env", "targets", "branches"))
        eval_, ecol = _need(fields, "env", "couple")
        _name(eval_, ecol, "environment")
        if eval_ in ctx.layout.axes:
            raise ScenarioParseError(f"environment name {eval_!r} already taken", ecol,
                                     "pick a fresh name")
        tval, tcol = _need(fields, "targets", "couple")
        targets = _registers(tval, tcol, ctx.layout)
        bval, bcol = _need(fields, "branches", "couple")
        ordered, branches, basis = _parse_branch_set(bval, bcol, ctx, ctx.layout, targets)
        ctx.add(eval_, environment_labels(len(branches)), ecol)
        return CoupleAction(eval_, ordered, branches, CoupleStep(eval_, basis))
    head = _tokens(stripped, col0)[0][0]
    raise ScenarioParseError(f"unknown action {head!r}", col0,
                             "actions are premeasure, group, couple (or derived)")


def _parse_branch_set(bval: str, col: int, ctx: _Context, layout: SubsystemLayout,
                      targets: tuple[str, ...]):
    """Branches written over ``targets``, put in the order of ``layout`` (so
    their kets line up with the registers the coupling acts on), resolved
    and checked orthonormal: (ordered targets, branch terms, branch basis)."""
    ordered = tuple(sorted(targets, key=layout.axes.__getitem__))
    on = layout.sublayout(ordered)
    perm = [targets.index(t) for t in ordered]
    branches = []
    vecs = []
    entries = _entries(bval, "{}", col, "branch set", "list branch vectors")
    for raw, off in entries:
        terms = _expression(raw, off)
        for term in terms:
            if len(term.labels) != len(targets):
                raise ScenarioParseError(
                    f"branch ket has {len(term.labels)} labels, targets are {targets}",
                    term.columns[0], "one label per target subsystem")
        terms = tuple(StateTerm(t.coefficient, tuple(t.labels[p] for p in perm),
                                tuple(t.columns[p] for p in perm)) for t in terms)
        vecs.append(ctx.vector(on.subsystems, terms))
        branches.append(terms)
    basis = _checked(branch_labels(len(vecs)), on, np.stack(vecs), [off for _, off in entries],
                     col, "branch", "branches not orthonormal")
    return ordered, tuple(branches), basis


def _parse_model_line(stripped: str, col0: int, ctx: _Context) -> ModelDecl:
    m = re.match(r"^model\s+(\S+)\s+(.*)$", stripped)
    if not m:
        raise ScenarioParseError("malformed model declaration", col0,
                                 "write: model NAME targets=(...) branches={...}")
    ncol = col0 + m.start(1)
    name = _name(m.group(1), ncol, "model")
    if name in ctx.models:
        raise ScenarioParseError(f"model {name!r} declared twice", ncol,
                                 "model names must be unique")
    fields = _field_map(_tokens(m.group(2), col0 + m.start(2)), ("targets", "branches"))
    tval, tcol = _need(fields, "targets", "model")
    # Models describe couplings at measurement time; validate against the
    # declared (pre-group) layout.
    declared = ctx.stages[0]
    targets = _registers(tval, tcol, declared)
    bval, bcol = _need(fields, "branches", "model")
    ordered, branches, basis = _parse_branch_set(bval, bcol, ctx, declared, targets)
    return ModelDecl(name, ordered, branches, CoupleStep(name, basis))


def _prop_basis(sub: Subsystem, predicate: str, pcol: int, ctx: _Context) -> Basis:
    """The basis a claim reads register ``sub`` in, as ``sub`` is at the
    read stage of the plan the claim shares with ``experiment.certainties``:
    its computational basis, or all its derived labels when the
    ``predicate`` at column ``pcol`` is one of them."""
    if predicate in sub.positions:
        return ctx.computational(sub)
    derived = [lab for on, lab in ctx.derived if on == id(sub)]
    if predicate not in derived:
        raise ScenarioParseError(
            f"predicate {predicate!r} is neither a basis nor a derived label of "
            f"{sub.name!r}", pcol, f"declare it with: derived {sub.name} ...")
    return ctx.basis(sub, [(lab, pcol) for lab in derived], pcol)


def _labelled_basis(query: str, raw: str, col: int, ctx: _Context
                    ) -> tuple[str, tuple[str, ...], Basis]:
    """A born or rewrite entry NAME:{label, ...} at column ``col``:
    (name, labels, basis)."""
    name, brace = (part.strip() for part in raw.split(":", 1))
    sub = _register(ctx.layout, name, col)
    brace_col = col + len(raw) - len(brace)
    items = _parse_basis_items(brace, brace_col)
    for it, ioff in items:
        if not isinstance(it, str):
            raise ScenarioParseError(f"{query} bases use labels, not vector literals", ioff,
                                     "declare a derived label instead")
    labels = tuple(it for it, _ in items)
    return name, labels, ctx.basis(sub, items, brace_col)


def _quoted_words(text: str, col: int, what: str, shape: str) -> list[tuple[str, int]]:
    """The words of a quoted ``what`` at column ``col`` that must read
    ``shape``, each with its column."""
    words = _tokens(text[1:-1], col + 1) if len(text) >= 2 and text[0] == text[-1] == '"' else None
    if words is None or len(words) != len(shape.split()):
        raise ScenarioParseError(f"{what} must be the quoted words {shape}, got {text}", col,
                                 f'write "{shape}"')
    return words


def _claim(observer, outcome, prop, ctx: _Context, semantics="premeasurement",
           models=()) -> CertaintyQuery:
    """Check one inference (certainty queries and audit statements alike):
    ``observer`` is an apparatus, and ``outcome`` and the words ``prop``
    (SUBJECT QUANTIFIER PREDICATE), each with its column, pass the plan
    ``experiment.certainties`` makes (``experiment.claim_plan``), each fault
    reported at its word.  An apparatus subject stands for its measured
    basis, on its target register as measured, which the plan must find at
    the read stage; a register subject is read as it is at the plan's read
    stage (``_prop_basis``)."""
    (observer, ocol), (outcome, outcol) = observer, outcome
    (subject, scol), (quant, qcol), (predicate, pcol) = prop
    spec = _apparatus(observer, ocol, ctx).resolved
    measured = ctx.apparatus[subject].resolved.basis if subject in ctx.apparatus else None
    try:
        read = claim_plan(ctx.stages, ctx.steps, observer, outcome,
                          subject if measured is None else measured.layout.subsystems[0], quant)[2]
    except UnknownLabelError as exc:
        hint = ("give the records and the basis labels distinct names"
                if outcome in spec.outcome_labels
                else f"use one of {sorted({*spec.outcome_labels, *spec.basis.labels})}")
        raise ScenarioParseError(str(exc), outcol, hint) from None
    except UnknownSubsystemError as exc:
        read = exc  # reported after the quantifier and subject checks below
    if quant not in ("will_obtain", "is_in_state"):
        raise ScenarioParseError(f"unknown quantifier {quant!r}", qcol,
                                 "use will_obtain or is_in_state")
    if not any(subject in st.axes for st in ctx.stages):
        raise ScenarioParseError(f"prop subject {subject!r} is unknown", scol,
                                 "name a subsystem or an apparatus")
    if measured is not None and predicate not in measured.labels:
        raise ScenarioParseError(
            f"predicate {predicate!r} is not among the measured basis labels "
            f"{measured.labels}", pcol, f"use one of {list(measured.labels)}")
    if isinstance(read, UnknownSubsystemError):
        raise ScenarioParseError(str(read), scol, "name a register that exists there")
    basis = (measured if measured is not None
             else _prop_basis(ctx.stages[read].subsystem(subject), predicate, pcol, ctx))
    claim = Claim(observer, outcome, Proposition(basis.layout.names[0], basis, predicate, quant),
                  semantics, models)
    return CertaintyQuery(observer, outcome, subject, quant, predicate, semantics,
                          tuple(m.environment for m in models), claim)


def _model_list(field_value: tuple[str, int], ctx: _Context) -> tuple[CoupleStep, ...]:
    """The declared models a models=(...) list names, each checked at its column."""
    names = _parse_name_list(*field_value)
    for mn, off in names:
        if mn not in ctx.models:
            raise ScenarioParseError(f"model {mn!r} was never declared", off,
                                     "declare it in the models: section")
    return tuple(ctx.models[mn].resolved for mn, _ in names)


def _model_targets_in(models, layout, where, col, hint) -> None:
    """Each of ``models`` couples registers of ``layout`` as they were
    declared, or a parse error at ``col``."""
    for model in models:
        for sub in model.branches.layout.subsystems:
            if sub.name not in layout.axes or layout.subsystem(sub.name) != sub:
                raise ScenarioParseError(
                    f"model {model.environment!r} couples {sub.name!r}, which is not in {where} "
                    "as declared", col, hint)


def _models_at_stage(models, claim: Claim, col: int, ctx: _Context) -> None:
    """The models a decoherent ``claim`` consults couple registers of its observer's stage."""
    start = ctx.steps.index(ctx.apparatus[claim.observer].resolved)
    _model_targets_in(models, ctx.stages[start],
                      f"the layout where {claim.observer!r} measures", col,
                      "decoherent semantics couples the observer's stage; model its registers")


def _apparatus(name: str, col: int, ctx: _Context, final: bool = False) -> PremeasureAction:
    """The premeasure action of apparatus ``name``; if ``final``, the
    apparatus must also be a register of the layout in force."""
    if name not in ctx.apparatus:
        raise ScenarioParseError(f"{name!r} is not the apparatus of any premeasure action", col,
                                 "name an apparatus used in the actions section")
    if final and name not in ctx.layout.axes:
        raise ScenarioParseError(f"apparatus {name!r} is grouped away before the end", col,
                                 "name an apparatus of the final layout")
    return ctx.apparatus[name]


def _parse_query_line(stripped: str, col0: int, ctx: _Context) -> Query:
    toks = _tokens(stripped, col0)
    head = toks[0][0]
    if head == "born":
        fields = _field_map(toks[1:], ("targets",))
        tval, tcol = _need(fields, "targets", "born")
        targets = []
        bases: list[Basis | None] = []
        for raw, off in _entries(tval, "()", tcol, "target list"):
            if ":" in raw:
                name, labels, basis = _labelled_basis(head, raw, off, ctx)
            else:
                name, labels = raw, None
                basis = ctx.computational(_register(ctx.layout, raw, off))
            bases.append(basis)
            targets.append((name, labels))
        if not targets:
            raise ScenarioParseError("born needs at least one target", col0,
                                     "write targets=(NAME) or targets=(NAME:{a,b})")
        return BornQuery(tuple(targets), tuple(bases))
    if head == "certainty":
        fields = _field_map(toks[1:], ("observer", "outcome", "prop", "semantics", "models"))
        observer = _need(fields, "observer", "certainty")
        outcome = _need(fields, "outcome", "certainty")
        pval, pcol = _need(fields, "prop", "certainty")
        words = _quoted_words(pval, pcol, "prop", "SUBJECT will_obtain|is_in_state LABEL")
        sval, scol = _need(fields, "semantics", "certainty")
        if sval not in ("premeasurement", "decoherent"):
            raise ScenarioParseError(f"unknown semantics {sval!r}", scol,
                                     "use premeasurement or decoherent")
        models: tuple[CoupleStep, ...] = ()
        if sval == "decoherent":
            if "models" not in fields:
                raise ScenarioParseError("decoherent semantics needs models=(...)", scol,
                                         "reference models declared in the models: section")
            models = _model_list(fields["models"], ctx)
        elif "models" in fields:
            raise ScenarioParseError("models= only applies to decoherent semantics", col0,
                                     "drop models= or switch semantics")
        query = _claim(observer, outcome, words, ctx, sval, models)
        if models:
            _models_at_stage(models, query.resolved, fields["models"][1], ctx)
        return query
    if head == "rewrite":
        fields = _field_map(toks[1:], ("bases",))
        bval, bcol = _need(fields, "bases", "rewrite")
        out: dict[str, tuple[str, ...]] = {}
        bases = []
        for raw, off in _entries(bval, "()", bcol, "bases list"):
            if ":" not in raw:
                raise ScenarioParseError(f"malformed bases entry {raw!r}", off,
                                         "entries look like NAME:{a,b}")
            name, labels, basis = _labelled_basis(head, raw, off, ctx)
            if basis.size != basis.layout.dimension:
                raise ScenarioParseError(
                    f"rewrite basis for {name!r} has {basis.size} vectors, "
                    f"needs {basis.layout.dimension}", off, "rewrite bases must be complete")
            bases.append(basis)
            out[name] = labels
        bases += [ctx.computational(sub) for sub in ctx.layout.subsystems
                  if sub.name not in out]
        return RewriteQuery(tuple(out.items()), tuple(bases))
    if head == "triortho":
        fields = _field_map(toks[1:], ("parts",))
        pval, pcol = _need(fields, "parts", "triortho")
        groups = [_registers(raw, off, ctx.layout)
                  for raw, off in _entries(pval, "()", pcol, "parts list")]
        if len(groups) != 3:
            raise ScenarioParseError(f"triortho needs three parts, got {len(groups)}", pcol,
                                     "write parts=((A),(B),(C))")
        covered = [n for g in groups for n in g]
        if sorted(covered) != sorted(ctx.layout.names):
            raise ScenarioParseError("triortho parts must cover the layout exactly", pcol,
                                     f"cover {ctx.layout.names} once each")
        return TriorthoQuery((groups[0], groups[1], groups[2]))
    if head == "consistency_audit":
        fields = _field_map(toks[1:], ("chain", "joint", "decoherent", "models"))
        cval, ccol = _need(fields, "chain", "consistency_audit")
        chain: dict[str, CertaintyQuery] = {}
        for raw, off in _parse_name_list(cval, ccol):
            name, _, quoted = (part.strip() for part in raw.partition(":"))
            _name(name, off, "statement")
            words = _quoted_words(quoted, off + len(raw) - len(quoted), "statement",
                                  "OBSERVER OUTCOME SUBJECT QUANTIFIER LABEL")
            chain[name] = _claim(words[0], words[1], words[2:], ctx)
        jval, jcol = _need(fields, "joint", "consistency_audit")
        joint = []
        for raw, off in _parse_name_list(jval, jcol):
            apparatus, _, label = (part.strip() for part in raw.partition(":"))
            labels = _apparatus(apparatus, off, ctx, final=True).resolved.basis.labels
            if label not in labels:
                raise ScenarioParseError(
                    f"joint entry {raw!r} needs a measured basis label of {apparatus!r}",
                    off, f"write {apparatus}:LABEL with LABEL in {list(labels)}")
            joint.append((apparatus, label))
        dval, dcol = _need(fields, "decoherent", "consistency_audit")
        if dval not in chain:
            raise ScenarioParseError(f"decoherent names no chain statement: {dval!r}", dcol,
                                     f"use one of {list(chain)}")
        mval, mcol = _need(fields, "models", "consistency_audit")
        models = _model_list((mval, mcol), ctx)
        _models_at_stage(models, chain[dval].resolved, mcol, ctx)
        return AuditQuery(tuple(chain.items()), tuple(joint), dval,
                          tuple(m.environment for m in models),
                          replace(chain[dval].resolved, semantics="decoherent", models=models))
    if head == "decoherence_compare":
        fields = _field_map(toks[1:], ("models", "hidden", "apparatus"))
        mval, mcol = _need(fields, "models", "decoherence_compare")
        models = _model_list((mval, mcol), ctx)
        if len(models) != 2:
            raise ScenarioParseError("decoherence_compare compares two distinct models", mcol,
                                     "write models=(COARSE, FINE)")
        _model_targets_in(models, ctx.layout, "the final layout", mcol,
                          "decoherence_compare couples the final state; model its registers")
        hval, hcol = _need(fields, "hidden", "decoherence_compare")
        hidden = _registers(hval, hcol, ctx.layout)
        aval, acol = _need(fields, "apparatus", "decoherence_compare")
        _apparatus(aval, acol, ctx, final=True)
        if aval in hidden:
            raise ScenarioParseError(f"apparatus {aval!r} is hidden", acol,
                                     "the apparatus record must stay visible")
        return CompareQuery(tuple(m.environment for m in models), hidden, aval, models)
    raise ScenarioParseError(f"unknown query {head!r}", col0,
                             "queries: born, certainty, rewrite, triortho, "
                             "consistency_audit, decoherence_compare")


# --------------------------------------------------------------------------
# Serializer
# --------------------------------------------------------------------------


def _fmt_terms(terms: Sequence[StateTerm]) -> str:
    chunks = []
    for i, term in enumerate(terms):
        coeff = _fmt_complex_plain(term.coefficient)
        ket = "|" + ",".join(term.labels) + ">"
        if i == 0:
            chunks.append(f"{coeff}{ket}")
        elif coeff.startswith("-"):
            chunks.append(f"- {coeff[1:]}{ket}")
        else:
            chunks.append(f"+ {coeff}{ket}")
    return " ".join(chunks)


def _fmt_basis_item(item: BasisItem) -> str:
    if isinstance(item, str):
        return item
    return "(" + ",".join(_fmt_complex_plain(c) for c in item) + ")"


def _fmt_derived(d: DerivedDecl) -> str:
    terms = _fmt_terms([StateTerm(c, (lab,)) for lab, c in d.terms])
    return f"  derived {d.subsystem} {d.label} = {terms}"


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parsing it back yields an equal Scenario."""
    out = ["layout:"]
    for decl in s.subsystems:
        out.append(f"  subsystem {decl.name} {{{', '.join(decl.labels)}}}")
    out.extend(_fmt_derived(d) for d in s.derived)
    out.append(f"state: {_fmt_terms(s.state_terms)}")
    out.append("actions:")
    for step in s.steps:
        if isinstance(step, DerivedDecl):
            out.append(_fmt_derived(step))
        elif isinstance(step, PremeasureAction):
            out.append(
                f"  premeasure target={step.target} apparatus={step.apparatus} "
                f"basis={{{','.join(_fmt_basis_item(b) for b in step.basis)}}} "
                f"outcomes={{{','.join(step.outcomes)}}} ready={step.ready}"
            )
        elif isinstance(step, GroupAction):
            entries = ", ".join(
                f"({','.join(key)}):{value}" for key, value in step.label_map
            )
            out.append(f"  group parts=({','.join(step.parts)}) as {step.new_name} "
                       f"map={{{entries}}}")
        elif isinstance(step, CoupleAction):
            branches = ", ".join(_fmt_terms(b) for b in step.branches)
            out.append(f"  couple env={step.environment} "
                       f"targets=({','.join(step.targets)}) branches={{{branches}}}")
    if s.models:
        out.append("models:")
        for m in s.models:
            branches = ", ".join(_fmt_terms(b) for b in m.branches)
            out.append(f"  model {m.name} targets=({','.join(m.targets)}) "
                       f"branches={{{branches}}}")
    out.append("queries:")
    for q in s.queries:
        if isinstance(q, BornQuery):
            items = []
            for name, labels in q.targets:
                items.append(name if labels is None else f"{name}:{{{','.join(labels)}}}")
            out.append(f"  born targets=({', '.join(items)})")
        elif isinstance(q, CertaintyQuery):
            line = (f"  certainty observer={q.observer} outcome={q.outcome} "
                    f'prop="{q.prop_subject} {q.prop_quantifier} {q.prop_predicate}" '
                    f"semantics={q.semantics}")
            if q.models:
                line += f" models=({','.join(q.models)})"
            out.append(line)
        elif isinstance(q, RewriteQuery):
            items = [f"{name}:{{{','.join(labels)}}}" for name, labels in q.bases]
            out.append(f"  rewrite bases=({', '.join(items)})")
        elif isinstance(q, TriorthoQuery):
            groups = ",".join(f"({','.join(g)})" for g in q.parts)
            out.append(f"  triortho parts=({groups})")
        elif isinstance(q, AuditQuery):
            chain = ", ".join(
                f'{name}:"{st.observer} {st.outcome} {st.prop_subject} '
                f'{st.prop_quantifier} {st.prop_predicate}"' for name, st in q.chain)
            joint = ", ".join(f"{a}:{label}" for a, label in q.joint)
            out.append(f"  consistency_audit chain=({chain}) joint=({joint}) "
                       f"decoherent={q.decoherent} models=({', '.join(q.models)})")
        elif isinstance(q, CompareQuery):
            out.append(f"  decoherence_compare models=({', '.join(q.models)}) "
                       f"hidden=({', '.join(q.hidden)}) apparatus={q.apparatus}")
    return "\n".join(out) + "\n"
