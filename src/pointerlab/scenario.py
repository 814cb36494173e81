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
subsystems, bad ket arity, and non-orthonormal bases (with the offending
Gram entry) are all caught at parse time with line/column positions.

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
matched whole.

Coefficients accept ``sqrt(p/q)`` sugar, plain decimals, and pure-imaginary
``0.5i``; a complex with both parts needs parentheses: ``(0.5+0.5i)``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    NonInjectiveLabelMapError,
    NonOrthonormalBasisError,
    ScenarioParseError,
    UnknownLabelError,
)
from .hilbert import (
    MAX_AMPLITUDES,
    StateVector,
    Subsystem,
    SubsystemLayout,
    group_layout,
    merged_register,
    normalized,
)
from .experiment import Claim, CoupleStep, GroupStep, Proposition
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
    coefficient: complex
    labels: tuple[str, ...]


BasisItem = Union[str, tuple[complex, ...]]


@dataclass(frozen=True)
class PremeasureAction:
    """``resolved`` is the premeasurement step; ``stage`` is the layout in
    force when the apparatus measures."""

    target: str
    apparatus: str
    basis: tuple[BasisItem, ...]
    outcomes: tuple[str, ...]
    ready: str
    resolved: MeasurementSpec = _resolved()
    stage: SubsystemLayout = _resolved()


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
    """``resolved`` is the claim.  Its proposition's subject is the register
    the proposition's basis lives on (an apparatus subject names its
    target), and its models are the declared models' own objects."""

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

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(s for s in self.steps if not isinstance(s, DerivedDecl))


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------


# What changes the lexing state, in one match each: an opening bracket
# (group 1), a closing one (group 2), or a whole quoted string or ket, up to
# its closing '"' or '>' or else to the end of the text.
_STRUCTURE_RE = re.compile(r'([({\[])|([)}\]])|"[^"]*"?|\|[^>]*>?')
_SPACE_RE = re.compile(r"\s+")
_COMMA_RE = re.compile(",")
_SIGN_RE = re.compile("[+-]")


def _split(text: str, base: int, sep: re.Pattern, keep: bool = False,
           cut: Callable[[int], bool] | None = None) -> list[tuple[str, int]]:
    """Split ``text`` at each top-level match of ``sep`` (outside brackets,
    kets |...> and quoted strings) that starts where ``cut`` (when given)
    holds, dropping the match unless ``keep``.  A closing bracket without a
    match keeps what follows out until its balance returns.  Pieces come
    back stripped, each with its column: ``base`` plus its offset in
    ``text``."""
    pieces = []
    start = depth = lo = 0
    # Each run of top-level text ends where a structural match starts; the
    # last one, after the loop, runs to the end of the text.  The cut is
    # written out twice rather than called: this is the parser's hottest loop.
    for m in _STRUCTURE_RE.finditer(text):
        hi = m.start()
        if depth == 0 and hi > lo:
            for s in sep.finditer(text, lo, hi):
                i = s.start()
                if cut is None or cut(i):
                    body = text[start:i].lstrip()
                    pieces.append((body.rstrip(), base + i - len(body)))
                    start = i if keep else s.end()
        if m.lastindex == 1:
            depth += 1
        elif m.lastindex == 2:
            depth -= 1
        lo = m.end()
    if depth == 0:
        for s in sep.finditer(text, lo):
            i = s.start()
            if cut is None or cut(i):
                body = text[start:i].lstrip()
                pieces.append((body.rstrip(), base + i - len(body)))
                start = i if keep else s.end()
    body = text[start:].lstrip()
    pieces.append((body.rstrip(), base + len(text) - len(body)))
    return pieces


def _tokens(text: str, base: int) -> list[tuple[str, int]]:
    """Split on top-level whitespace; (), {}, "..." and |...> bind.  Each
    token comes with its column, ``base`` being the column of ``text[0]``."""
    return [(tok, off) for tok, off in _split(text, base, _SPACE_RE) if tok]


def _split_commas(text: str, base: int) -> list[tuple[str, int]]:
    return _split(text, base, _COMMA_RE)


def _unwrap(text: str, brackets: str, line: int, col: int, what: str) -> tuple[str, int]:
    """The inside of ``text`` wrapped in ``brackets`` (such as "()"), with
    its column."""
    open_ch, close_ch = brackets
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ScenarioParseError(
            f"{what} must be wrapped in {open_ch}...{close_ch}, got {text!r}",
            line, col, f"write {what} as {open_ch}...{close_ch}",
        )
    return text[1:-1], col + 1


def _entries(text: str, brackets: str, line: int, col: int, what: str,
             hint: str = "") -> list[tuple[str, int]]:
    """The entries of the set-like list ``what``, wrapped in ``brackets``:
    the non-empty pieces between its top-level commas, each with its
    column.  Given a ``hint``, an empty list is a parse error at ``col``.
    An entry whose key (its text before any ':', spaces dropped: a name, a
    label, or a map entry's ``(a,b)``) repeats an earlier one's is an error
    at its column; kets, vector literals and sublists have no key."""
    inner, base = _unwrap(text, brackets, line, col, what)
    out = [(entry, off) for entry, off in _split_commas(inner, base) if entry]
    if hint and not out:
        raise ScenarioParseError(f"empty {what}", line, col, hint)
    seen: set[str] = set()
    for entry, off in out:
        key, colon, _ = entry.partition(":")
        if "|" not in entry and (colon or not key.startswith("(")):
            key = "".join(key.split())
            if key in seen:
                raise ScenarioParseError(f"{what} entry {key!r} appears twice", line, off,
                                         "give each entry once")
            seen.add(key)
    return out


def _name(text: str, line: int, col: int, what: str) -> str:
    """``text`` as the name a ``what`` declares, or a parse error at ``col``."""
    if not _NAME_RE.match(text):
        raise ScenarioParseError(f"malformed {what} name {text!r}", line, col,
                                 "names start with a letter or underscore")
    return text


def _label(text: str, line: int, col: int, what: str = "label") -> str:
    """``text`` as a label, or a parse error at ``col`` calling it ``what``."""
    if not _LABEL_RE.match(text):
        raise ScenarioParseError(f"malformed {what} {text!r}", line, col,
                                 "labels use letters, digits, + - / . _")
    return text


_SQRT_RE = re.compile(r"^sqrt\(\s*(\d+)\s*/\s*(\d+)\s*\)$")
_NUM_RE = re.compile(r"^[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?$")
_COMPLEX_RE = re.compile(
    r"^\(\s*([+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*"
    r"([+-])\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)i\s*\)$"
)


def parse_coefficient(text: str, line: int, col: int) -> complex:
    """Parse one coefficient literal: sqrt(p/q), decimal, imaginary (0.5i or
    i), or parenthesized complex (a+bi); optional leading sign.  A decimal
    too large for a double is rejected."""
    value = _coefficient(text, line, col)
    if not cmath.isfinite(value):
        raise ScenarioParseError(f"coefficient {text.strip()!r} is not finite", line, col,
                                 "use a magnitude below 1e308")
    return value


def _coefficient(text: str, line: int, col: int) -> complex:
    raw = text.strip()
    sign = 1.0
    if raw[:1] in ("+", "-"):
        sign = -1.0 if raw[0] == "-" else 1.0
        raw = raw[1:].strip()
    if raw == "":
        return complex(sign)
    m = _SQRT_RE.match(raw)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if q == 0:
            raise ScenarioParseError("sqrt with zero denominator", line, col,
                                     "use a nonzero denominator")
        return complex(sign * math.sqrt(p / q))
    if raw == "i":
        return complex(0.0, sign)
    if raw.endswith("i") and _NUM_RE.match(raw[:-1] or "x") and raw[:-1]:
        return complex(0.0, sign * float(raw[:-1]))
    if _NUM_RE.match(raw):
        return complex(sign * float(raw))
    m = _COMPLEX_RE.match(raw)
    if m:
        re_part = float(m.group(1))
        im_part = float(m.group(3)) * (-1.0 if m.group(2) == "-" else 1.0)
        return sign * complex(re_part, im_part)
    raise ScenarioParseError(
        f"malformed coefficient {text.strip()!r}", line, col,
        "use sqrt(p/q), a decimal, 0.5i, or (a+bi)",
    )


def parse_expression(text: str, line: int, col: int) -> tuple[StateTerm, ...]:
    """Parse ``coeff|ket> + coeff|ket> - ...`` into state terms."""

    def starts_term(i: int) -> bool:
        # The last non-space character before i, found without copying
        # text[:i], which made long expressions take quadratic time.
        j = i - 1
        while j >= 0 and text[j].isspace():
            j -= 1
        return j >= 0 and text[j] not in "eE(+-,"

    terms: list[StateTerm] = []
    for chunk, at in _split(text, col, _SIGN_RE, keep=True, cut=starts_term):
        if not chunk:
            continue
        bar = chunk.find("|")
        if bar < 0 or not chunk.endswith(">"):
            raise ScenarioParseError(
                f"expected coefficient|ket> term, got {chunk!r}", line, at,
                "each term looks like sqrt(1/3)|head,down>",
            )
        coeff = parse_coefficient(chunk[:bar], line, at)
        labels = tuple(_label(lab.strip(), line, at + bar, "ket label")
                       for lab in chunk[bar + 1:-1].split(","))
        terms.append(StateTerm(coeff, labels))
    if not terms:
        raise ScenarioParseError("empty state expression", line, col,
                                 "give at least one coefficient|ket> term")
    return tuple(terms)


# --------------------------------------------------------------------------
# Schema: layout tracking with numeric validation
# --------------------------------------------------------------------------


class _Schema:
    """The layout in force (None before the first subsystem line) and the
    derived labels, against which labels resolve to vectors.  A derived
    label belongs to the register object it was declared on: ``derived``
    maps (the register's ``id``, label) to the register, which keeps the id
    taken, the label's terms and its vector.  A register that ``group``
    puts in another's place, even under the same name and labels, has none
    of them.  The basis memo is keyed by register object too."""

    def __init__(self):
        self.layout: SubsystemLayout | None = None
        self.derived: dict[tuple[int, str],
                           tuple[Subsystem, tuple[tuple[str, complex], ...], np.ndarray]] = {}
        self._bases: dict[tuple, Basis] = {}

    def add(self, name: str, labels: tuple[str, ...], line: int, col: int) -> None:
        held = self.layout.subsystems if self.layout else ()
        amplitudes = len(labels) * math.prod(sub.dimension for sub in held)
        if amplitudes > MAX_AMPLITUDES:
            raise ScenarioParseError(
                f"layout would hold {amplitudes:,} amplitudes, over the limit of "
                f"{MAX_AMPLITUDES:,}", line, col, "use fewer or smaller registers")
        self.layout = SubsystemLayout(held + (Subsystem(name, labels),))

    def _expand(self, sub: Subsystem, label: str, line: int, col: int) -> list[tuple[int, complex]]:
        if label in sub.positions:
            return [(sub.positions[label], 1.0 + 0.0j)]
        entry = self.derived.get((id(sub), label))
        if entry is None:
            raise ScenarioParseError(
                f"{label!r} is neither a basis label nor a derived label of {sub.name!r}",
                line, col, f"declare it with: derived {sub.name} {label} = ...",
            )
        return [(sub.positions[lab], c) for lab, c in entry[1]]

    def vector(self, subs: Sequence[Subsystem], terms: Sequence[StateTerm],
               line: int, col: int) -> np.ndarray:
        """Raw amplitudes of ``terms`` (one basis or derived label per
        register) over ``subs``, flat index lexicographic in the order given."""
        dims = [sub.dimension for sub in subs]
        vec = np.zeros(math.prod(dims), dtype=np.complex128)
        for term in terms:
            expansions = [self._expand(sub, lab, line, col) for sub, lab in zip(subs, term.labels)]
            for combo in itertools.product(*expansions):
                flat = 0
                coeff = term.coefficient
                for (k, c), d in zip(combo, dims):
                    flat = flat * d + k
                    coeff *= c
                vec[flat] += coeff
        return vec

    def item_vector(self, sub: Subsystem, item: BasisItem, line: int, col: int) -> np.ndarray:
        if isinstance(item, str):
            entry = self.derived.get((id(sub), item))
            if entry is not None:
                return entry[2]
            return self.vector((sub,), (StateTerm(1.0 + 0.0j, (item,)),), line, col)
        if len(item) != sub.dimension:
            raise ScenarioParseError(
                f"vector literal has {len(item)} entries, subsystem {sub.name!r} "
                f"has dimension {sub.dimension}", line, col,
                "give one amplitude per basis label",
            )
        return np.array(item, dtype=np.complex128)

    def basis(self, sub: Subsystem, items: Sequence[tuple[BasisItem, int]], line: int,
              col: int) -> Basis:
        """Orthonormal basis over one register from (item, column) pairs; a
        vector literal is labelled b<k> after its position.  An item error,
        or a literal's label that the set also names, points at the item, a
        Gram defect at the set's column ``col``.  Each distinct set over the
        same register resolves once."""
        key = (id(sub), tuple(it for it, _ in items))
        if key in self._bases:
            return self._bases[key]
        raw = np.stack([self.item_vector(sub, it, line, icol) for it, icol in items])
        labels = tuple(it if isinstance(it, str) else f"b{k}" for k, (it, _) in enumerate(items))
        for k, (it, icol) in enumerate(items):
            if not isinstance(it, str) and labels.count(labels[k]) > 1:
                raise ScenarioParseError(
                    f"vector literal {k} is labelled {labels[k]!r}, which the set also names",
                    line, icol, "name the vector with a derived label")
        basis = self._bases[key] = _checked(labels, SubsystemLayout((sub,)), raw, line, col,
                                            f"basis over {sub.name!r} is not orthonormal",
                                            "make the vectors orthonormal")
        return basis

    def computational(self, sub: Subsystem) -> Basis:
        """The computational basis of one register, through the same memo as
        ``basis`` (the set of all its labels, in order)."""
        key = (id(sub), sub.labels)
        if key not in self._bases:
            self._bases[key] = Basis.computational(SubsystemLayout((sub,)), sub.name)
        return self._bases[key]

    def group(self, parts: Sequence[str], new_name: str,
              label_map: dict[tuple[str, ...], str], line: int, col: int) -> Subsystem:
        try:
            register = merged_register(self.layout, parts, new_name, label_map)
        except (NonInjectiveLabelMapError, UnknownLabelError) as exc:
            raise ScenarioParseError(str(exc), line, col,
                                     "map distinct label tuples to distinct names") from None
        self.layout = group_layout(self.layout, parts, register)
        return register


def _register(layout: SubsystemLayout | None, name: str, line: int, col: int) -> Subsystem:
    """Register ``name`` of ``layout``, or a parse error at ``col``."""
    if layout is None or name not in layout.axes:
        raise ScenarioParseError(f"subsystem {name!r} was never declared", line, col,
                                 "declare it in the layout section")
    return layout.subsystems[layout.axes[name]]


def _registers(text: str, line: int, col: int, layout: SubsystemLayout) -> tuple[str, ...]:
    """A name list of registers of ``layout``, each checked at its column."""
    return tuple(_register(layout, name, line, off).name
                 for name, off in _parse_name_list(text, line, col))


def _checked(labels: tuple[str, ...], layout: SubsystemLayout, rows: np.ndarray,
             line: int, col: int, what: str, hint: str) -> Basis:
    """The basis along raw ``rows``; rows that are not orthonormal are a
    parse error at ``col`` naming ``what`` and the Gram entry.  The callers
    give one label per row and repeat a label only on a repeated row, so
    every failure is a Gram defect."""
    try:
        return Basis.from_rows(labels, layout, rows)
    except NonOrthonormalBasisError as exc:
        i, j, g = exc.gram
        raise ScenarioParseError(f"{what}: Gram[{i},{j}] = {_fmt_complex_plain(g)}",
                                 line, col, hint) from None


# --------------------------------------------------------------------------
# Directive parsers
# --------------------------------------------------------------------------


def _field_map(tokens: list[tuple[str, int]], line: int,
               allowed: Iterable[str]) -> dict[str, tuple[str, int]]:
    allowed = set(allowed)
    out: dict[str, tuple[str, int]] = {}
    for tok, off in tokens:
        if "=" not in tok:
            raise ScenarioParseError(f"expected key=value, got {tok!r}", line, off,
                                     f"allowed keys: {sorted(allowed)}")
        key, value = tok.split("=", 1)
        if key not in allowed:
            raise ScenarioParseError(f"unknown field {key!r}", line, off,
                                     f"allowed keys: {sorted(allowed)}")
        if key in out:
            raise ScenarioParseError(f"duplicate field {key!r}", line, off,
                                     "give each field once")
        out[key] = (value, off + len(key) + 1)
    return out


def _need(fields: dict[str, tuple[str, int]], key: str, line: int, directive: str
          ) -> tuple[str, int]:
    if key not in fields:
        raise ScenarioParseError(f"{directive} is missing {key}=...", line, 1,
                                 f"add {key}=...")
    return fields[key]


def _parse_name_list(text: str, line: int, col: int) -> list[tuple[str, int]]:
    return _entries(text, "()", line, col, "name list", "list at least one name")


def _vector_literal(text: str, line: int, col: int) -> tuple[complex, ...]:
    """``(a, b, ...)``: one amplitude per entry, none of them left out."""
    inner, base = _unwrap(text, "()", line, col, "vector literal")
    comps = []
    for c, off in _split_commas(inner, base):
        if c in ("", "+", "-"):
            raise ScenarioParseError(f"vector literal entry {c!r} has no amplitude", line,
                                     off, "write every amplitude out, such as 1 or -1")
        comps.append(parse_coefficient(c, line, off))
    return tuple(comps)


def _parse_basis_items(text: str, line: int, col: int) -> tuple[tuple[BasisItem, int], ...]:
    return tuple(
        (_vector_literal(raw, line, off) if raw.startswith("(") else _label(raw, line, off), off)
        for raw, off in _entries(text, "{}", line, col, "basis set", "list basis elements"))


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
    line/column and a fix hint on the first problem found."""
    schema = _Schema()
    derived_layout: list[DerivedDecl] = []
    state_terms: tuple[StateTerm, ...] | None = None
    initial: StateVector | None = None
    steps: list[Step] = []
    queries: list[Query] = []
    declared_models: dict[str, ModelDecl] = {}
    apparatus_actions: dict[str, PremeasureAction] = {}
    # The declared layout, then the layout after each action.
    stages: list[SubsystemLayout] = []

    section = None
    seen_sections: list[str] = []

    lines = text.splitlines()
    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        header = re.match(r"^(\w+):(.*)$", line.strip())
        if header and header.group(1) in SECTION_ORDER:
            section = header.group(1)
            if section in seen_sections:
                raise ScenarioParseError(f"duplicate section {section!r}", line_no, 1,
                                         "each section appears at most once")
            if seen_sections and SECTION_ORDER.index(section) < SECTION_ORDER.index(seen_sections[-1]):
                raise ScenarioParseError(
                    f"section {section!r} out of order", line_no, 1,
                    f"order sections as {', '.join(SECTION_ORDER)}",
                )
            seen_sections.append(section)
            if section != "layout" and not stages:
                if schema.layout is None:
                    raise ScenarioParseError(f"{section}: comes before any subsystem",
                                             line_no, 1, "start with layout: and a subsystem")
                stages.append(schema.layout)
            rest = header.group(2).strip()
            if section == "state":
                if not rest:
                    raise ScenarioParseError("state: needs an expression on the same line",
                                             line_no, 1, "write state: coeff|ket> + ...")
                col = raw_line.index("state:") + len("state:") + 1
                state_terms, initial = _parse_state(rest, line_no, col, schema)
            elif rest:
                raise ScenarioParseError(f"unexpected text after {section}:", line_no, 1,
                                         "put directives on their own lines")
            continue
        if section is None:
            raise ScenarioParseError("directive before any section header", line_no, 1,
                                     "start with layout:")
        stripped = line.strip()
        col0 = raw_line.index(stripped[0]) + 1 if stripped else 1

        if section == "layout":
            _parse_layout_line(stripped, line_no, col0, schema, derived_layout)
        elif section == "state":
            raise ScenarioParseError("state section holds a single expression line",
                                     line_no, col0, "put the expression after state:")
        elif section == "actions":
            step = _parse_action_line(stripped, line_no, col0, schema, apparatus_actions)
            steps.append(step)
            if isinstance(step, PremeasureAction):
                apparatus_actions[step.apparatus] = step
            if not isinstance(step, DerivedDecl):
                stages.append(schema.layout)
        elif section == "models":
            model = _parse_model_line(stripped, line_no, col0, schema, stages[0],
                                      declared_models)
            declared_models[model.name] = model
        elif section == "queries":
            queries.append(
                _parse_query_line(stripped, line_no, col0, schema, apparatus_actions,
                                  declared_models, stages)
            )

    if state_terms is None:
        raise ScenarioParseError("no state: section", len(lines) or 1, 1,
                                 "declare the initial state")
    if not queries:
        raise ScenarioParseError("no queries", len(lines) or 1, 1,
                                 "add a queries: section with at least one query")
    return Scenario(
        subsystems=stages[0].subsystems,
        derived=tuple(derived_layout),
        state_terms=state_terms,
        steps=tuple(steps),
        models=tuple(declared_models.values()),
        queries=tuple(queries),
        initial=initial,
    )


def _parse_derived(stripped: str, line_no: int, col0: int, schema: _Schema) -> DerivedDecl:
    m = re.match(r"^derived\s+(\S+)\s+(\S+)\s*=\s*(.+)$", stripped)
    if not m:
        raise ScenarioParseError("malformed derived declaration", line_no, col0,
                                 "write: derived SUBSYSTEM LABEL = expression")
    sub_name, label, expr = m.group(1), m.group(2), m.group(3)
    sub = _register(schema.layout, sub_name, line_no, col0 + m.start(1))
    lcol = col0 + m.start(2)
    _label(label, line_no, lcol, "derived label")
    if label in sub.positions or (id(sub), label) in schema.derived:
        raise ScenarioParseError(f"label {label!r} already exists on {sub_name!r}",
                                 line_no, lcol, "pick a fresh label")
    expr_col = col0 + stripped.index("=") + 1
    terms = parse_expression(expr, line_no, expr_col)
    for term in terms:
        if len(term.labels) != 1:
            raise ScenarioParseError("derived vectors use single-label kets",
                                     line_no, expr_col, "write |up>, not |up,down>")
        if term.labels[0] not in sub.positions:
            raise ScenarioParseError(
                f"{term.labels[0]!r} is not a basis label of {sub_name!r}", line_no, expr_col,
                "derived vectors expand over computational labels only")
    vec = schema.vector((sub,), terms, line_no, expr_col)
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > 1e-9:
        raise ScenarioParseError(
            f"derived vector {label!r} has norm {nrm:.9g}, expected 1", line_no,
            expr_col, "normalize the coefficients")
    decl = DerivedDecl(sub_name, label, tuple((t.labels[0], t.coefficient) for t in terms))
    schema.derived[(id(sub), label)] = (sub, decl.terms, vec)
    return decl


def _parse_layout_line(stripped, line_no, col0, schema, derived_layout):
    if stripped.startswith("subsystem"):
        m = re.match(r"^subsystem\s+(\S+)\s*(\{.*\})$", stripped)
        if not m:
            raise ScenarioParseError("malformed subsystem declaration", line_no, col0,
                                     "write: subsystem NAME {label, label, ...}")
        ncol = col0 + m.start(1)
        name = _name(m.group(1), line_no, ncol, "subsystem")
        if schema.layout and name in schema.layout.axes:
            raise ScenarioParseError(f"subsystem {name!r} already declared", line_no, ncol,
                                     "pick a fresh name")
        labels = tuple(_label(lab, line_no, off) for lab, off in
                       _entries(m.group(2), "{}", line_no, col0 + m.start(2), "label set",
                                "list at least one label"))
        schema.add(name, labels, line_no, col0)
    elif stripped.startswith("derived"):
        derived_layout.append(_parse_derived(stripped, line_no, col0, schema))
    else:
        raise ScenarioParseError(f"unknown layout directive {stripped.split()[0]!r}",
                                 line_no, col0, "use subsystem or derived")


def _parse_state(expr, line_no, col, schema):
    terms = parse_expression(expr, line_no, col)
    subs = schema.layout.subsystems
    for term in terms:
        if len(term.labels) != len(subs):
            raise ScenarioParseError(
                f"ket has {len(term.labels)} labels, layout has {len(subs)} subsystems",
                line_no, col, "give one label per declared subsystem, in order")
    amps = schema.vector(subs, terms, line_no, col)
    if not amps.any():
        raise ScenarioParseError("state terms sum to the zero vector", line_no, col,
                                 "give the state a nonzero amplitude")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(amps))
    if not 0.0 < nrm < math.inf:
        raise ScenarioParseError(f"state norm {nrm} is out of floating-point range",
                                 line_no, col, "scale the coefficients toward 1")
    return terms, normalized(schema.layout, amps)


def _parse_action_line(stripped, line_no, col0, schema, apparatus_actions) -> Step:
    # A directive word needs no lexing (it holds no bracket, ket or quote),
    # and derived lines are matched whole: premeasure, group and couple
    # lines, and the head of an unknown action, are tokenized.
    head = stripped.split(None, 1)[0]
    if head == "derived":
        return _parse_derived(stripped, line_no, col0, schema)
    if head == "premeasure":
        fields = _field_map(_tokens(stripped, col0)[1:], line_no,
                            ("target", "apparatus", "basis", "outcomes", "ready"))
        tval, tcol = _need(fields, "target", line_no, "premeasure")
        target = _register(schema.layout, tval, line_no, tcol)
        aval, acol = _need(fields, "apparatus", line_no, "premeasure")
        app = _register(schema.layout, aval, line_no, acol)
        if aval in apparatus_actions:
            raise ScenarioParseError(f"apparatus {aval!r} used by two premeasure actions",
                                     line_no, acol, "use one apparatus per measurement")
        if aval == tval:
            raise ScenarioParseError("apparatus cannot equal target", line_no, acol,
                                     "measure one register with another")
        bval, bcol = _need(fields, "basis", line_no, "premeasure")
        items = _parse_basis_items(bval, line_no, bcol)
        basis = tuple(it for it, _ in items)
        resolved = schema.basis(target, items, line_no, bcol)
        oval, ocol = _need(fields, "outcomes", line_no, "premeasure")
        outcomes = []
        for it, off in _entries(oval, "{}", line_no, ocol, "outcome set", "list outcomes"):
            if it not in app.positions:
                raise ScenarioParseError(
                    f"outcome {it!r} is not a label of apparatus {aval!r}",
                    line_no, off, "outcomes name apparatus levels")
            outcomes.append(it)
        if len(outcomes) != len(basis):
            raise ScenarioParseError(
                f"{len(basis)} basis vectors but {len(outcomes)} outcomes",
                line_no, ocol, "give one outcome per basis vector")
        rval, rcol = _need(fields, "ready", line_no, "premeasure")
        if rval not in app.positions:
            raise ScenarioParseError(f"ready label {rval!r} not on apparatus {aval!r}",
                                     line_no, rcol, "ready names an apparatus level")
        step = MeasurementSpec(tval, resolved, aval, rval, tuple(outcomes))
        return PremeasureAction(tval, aval, basis, tuple(outcomes), rval, step, schema.layout)
    if head == "group":
        toks = _tokens(stripped, col0)
        if not (len(toks) == 5 and toks[1][0].startswith("parts=") and toks[2][0] == "as"
                and toks[4][0].startswith("map=")):
            raise ScenarioParseError("malformed group action", line_no, col0,
                                     "write: group parts=(A,B) as NAME map={(a,b):x, ...}")
        fields = _field_map([toks[1], toks[4]], line_no, ("parts", "map"))
        pval, pcol = fields["parts"]
        parts = _registers(pval, line_no, pcol, schema.layout)
        if len(parts) < 2:
            raise ScenarioParseError("group needs two or more distinct parts",
                                     line_no, pcol, "list distinct subsystem names")
        new_name, ncol = toks[3]
        _name(new_name, line_no, ncol, "group")
        if new_name in schema.layout.axes and new_name not in parts:
            raise ScenarioParseError(f"group name {new_name!r} already taken", line_no, ncol,
                                     "pick a fresh name")
        mval, mcol = fields["map"]
        pairs = []
        for raw, off in _entries(mval, "{}", line_no, mcol, "label map"):
            pm = re.match(r"^\((.*)\)\s*:\s*(\S+)$", raw)
            if not pm:
                raise ScenarioParseError(f"malformed map entry {raw!r}", line_no, off,
                                         "entries look like (a,b):name")
            key = tuple(k for k, _ in _split_commas(pm.group(1), off))
            pairs.append((key, _label(pm.group(2), line_no, off + pm.start(2))))
        register = schema.group(parts, new_name, dict(pairs), line_no, mcol)
        return GroupAction(parts, new_name, tuple(pairs), GroupStep(parts, register))
    if head == "couple":
        fields = _field_map(_tokens(stripped, col0)[1:], line_no,
                            ("env", "targets", "branches"))
        eval_, ecol = _need(fields, "env", line_no, "couple")
        _name(eval_, line_no, ecol, "environment")
        if eval_ in schema.layout.axes:
            raise ScenarioParseError(f"environment name {eval_!r} already taken",
                                     line_no, ecol, "pick a fresh name")
        tval, tcol = _need(fields, "targets", line_no, "couple")
        targets = _registers(tval, line_no, tcol, schema.layout)
        bval, bcol = _need(fields, "branches", line_no, "couple")
        ordered, branches, basis = _parse_branch_set(bval, line_no, bcol, schema,
                                                     schema.layout, targets)
        schema.add(eval_, environment_labels(len(branches)), line_no, ecol)
        return CoupleAction(eval_, ordered, branches, CoupleStep(eval_, basis))
    head = _tokens(stripped, col0)[0][0]
    raise ScenarioParseError(f"unknown action {head!r}", line_no, col0,
                             "actions are premeasure, group, couple (or derived)")


def _parse_branch_set(bval, line_no, col, schema, layout, targets):
    """Branches written over ``targets``, put in the order of ``layout`` (so
    their kets line up with the registers the coupling acts on), resolved
    and checked orthonormal: (ordered targets, branch terms, branch basis)."""
    ordered = tuple(sorted(targets, key=layout.axes.__getitem__))
    on = layout.sublayout(ordered)
    perm = [targets.index(t) for t in ordered]
    branches = []
    vecs = []
    for raw, off in _entries(bval, "{}", line_no, col, "branch set", "list branch vectors"):
        terms = parse_expression(raw, line_no, off)
        for term in terms:
            if len(term.labels) != len(targets):
                raise ScenarioParseError(
                    f"branch ket has {len(term.labels)} labels, targets are {targets}",
                    line_no, off, "one label per target subsystem")
        terms = tuple(StateTerm(t.coefficient, tuple(t.labels[p] for p in perm))
                      for t in terms)
        vec = schema.vector(on.subsystems, terms, line_no, off)
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > 1e-9:
            raise ScenarioParseError(f"branch vector has norm {nrm:.9g}, expected 1",
                                     line_no, off, "normalize the branch")
        vecs.append(vec)
        branches.append(terms)
    basis = _checked(branch_labels(len(vecs)), on, np.stack(vecs), line_no, col,
                     "branches not orthonormal", "make the branch vectors orthonormal")
    return ordered, tuple(branches), basis


def _parse_model_line(stripped, line_no, col0, schema, declared, declared_models):
    m = re.match(r"^model\s+(\S+)\s+(.*)$", stripped)
    if not m:
        raise ScenarioParseError("malformed model declaration", line_no, col0,
                                 "write: model NAME targets=(...) branches={...}")
    ncol = col0 + m.start(1)
    name = _name(m.group(1), line_no, ncol, "model")
    if name in declared_models:
        raise ScenarioParseError(f"model {name!r} declared twice", line_no, ncol,
                                 "model names must be unique")
    toks = _tokens(m.group(2), col0 + m.start(2))
    fields = _field_map(toks, line_no, ("targets", "branches"))
    tval, tcol = _need(fields, "targets", line_no, "model")
    # Models describe couplings at measurement time; validate against the
    # declared (pre-group) layout.
    targets = _registers(tval, line_no, tcol, declared)
    bval, bcol = _need(fields, "branches", line_no, "model")
    ordered, branches, basis = _parse_branch_set(bval, line_no, bcol, schema, declared, targets)
    return ModelDecl(name, ordered, branches, CoupleStep(name, basis))


def _prop_basis(prop, observer, line_no, col, schema, apparatus_actions, stages) -> Basis:
    """The basis the words ``prop`` (SUBJECT QUANTIFIER PREDICATE) of a claim
    by ``observer`` are read in.  An apparatus subject stands for its
    measured basis (on the target register); a register subject is read in
    its computational basis, or in all its derived labels when the predicate
    is one of them, with the labels it has where ``experiment.certainties``
    reads it: is_in_state at the first stage, from the observer's on, that
    holds it; will_obtain at the final stage."""
    subject, quant, predicate = prop
    if subject in apparatus_actions:
        basis = apparatus_actions[subject].resolved.basis
        if predicate not in basis.labels:
            raise ScenarioParseError(
                f"predicate {predicate!r} is not among the measured basis labels "
                f"{basis.labels}", line_no, col, f"use one of {list(basis.labels)}")
        return basis
    if not any(subject in st.axes for st in stages):
        raise ScenarioParseError(f"prop subject {subject!r} is unknown", line_no,
                                 col, "name a subsystem or an apparatus")
    if quant == "is_in_state":
        start = next(i for i, st in enumerate(stages) if st is observer.stage)
        reads, where = stages[start:], f"where {observer.apparatus!r} measures"
    else:
        reads, where = stages[-1:], "at the final stage, where will_obtain reads it"
    sub = next((st.subsystem(subject) for st in reads if subject in st.axes), None)
    if sub is None:
        raise ScenarioParseError(f"prop subject {subject!r} no longer exists {where}",
                                 line_no, col, "name a register that exists there")
    if predicate in sub.positions:
        return schema.computational(sub)
    derived = [lab for on, lab in schema.derived if on == id(sub)]
    if predicate not in derived:
        raise ScenarioParseError(
            f"predicate {predicate!r} is neither a basis nor a derived label of "
            f"{subject!r}", line_no, col, f"declare it with: derived {subject} ...")
    return schema.basis(sub, [(lab, col) for lab in derived], line_no, col)


def _labelled_basis(query, raw, line_no, col, schema
                    ) -> tuple[str, tuple[str, ...], Basis]:
    """A born or rewrite entry NAME:{label, ...} at column ``col``:
    (name, labels, basis)."""
    name, brace = (part.strip() for part in raw.split(":", 1))
    sub = _register(schema.layout, name, line_no, col)
    brace_col = col + len(raw) - len(brace)
    items = _parse_basis_items(brace, line_no, brace_col)
    for it, ioff in items:
        if not isinstance(it, str):
            raise ScenarioParseError(f"{query} bases use labels, not vector literals",
                                     line_no, ioff, "declare a derived label instead")
    labels = tuple(it for it, _ in items)
    return name, labels, schema.basis(sub, items, line_no, brace_col)


def _quoted_words(text, line_no, col, what, shape) -> list[str]:
    """The words of a quoted ``what`` that must read ``shape``."""
    words = text[1:-1].split() if len(text) >= 2 and text[0] == text[-1] == '"' else None
    if words is None or len(words) != len(shape.split()):
        raise ScenarioParseError(f"{what} must be the quoted words {shape}, got {text}",
                                 line_no, col, f'write "{shape}"')
    return words


def _claim(observer, ocol, outcome, outcol, prop, pcol, line_no, schema,
           apparatus_actions, stages, semantics="premeasurement", models=()) -> CertaintyQuery:
    """Check one inference (certainty queries and audit statements alike):
    ``observer`` is an apparatus, ``outcome`` one of its records or measured
    labels, and ``prop`` the words SUBJECT QUANTIFIER PREDICATE."""
    action = _apparatus(observer, line_no, ocol, apparatus_actions)
    valid = set(action.outcomes) | {b for b in action.basis if isinstance(b, str)}
    if outcome not in valid:
        raise ScenarioParseError(
            f"outcome {outcome!r} is not a record or basis label of {observer!r}",
            line_no, outcol, f"use one of {sorted(valid)}")
    subject, quant, predicate = prop
    if quant not in ("will_obtain", "is_in_state"):
        raise ScenarioParseError(f"unknown quantifier {quant!r}", line_no,
                                 pcol, "use will_obtain or is_in_state")
    basis = _prop_basis(prop, action, line_no, pcol, schema, apparatus_actions, stages)
    claim = Claim(observer, outcome, Proposition(basis.layout.names[0], basis, predicate, quant),
                  semantics, models)
    return CertaintyQuery(observer, outcome, subject, quant, predicate, semantics,
                          tuple(m.environment for m in models), claim)


def _model_list(field_value, line_no, declared_models) -> tuple[CoupleStep, ...]:
    """The declared models a models=(...) list names, each checked at its column."""
    mval, mcol = field_value
    names = _parse_name_list(mval, line_no, mcol)
    for mn, off in names:
        if mn not in declared_models:
            raise ScenarioParseError(f"model {mn!r} was never declared", line_no, off,
                                     "declare it in the models: section")
    return tuple(declared_models[mn].resolved for mn, _ in names)


def _model_targets_in(models, layout, where, line_no, col, hint) -> None:
    """Each of ``models`` couples registers of ``layout`` as they were
    declared, or a parse error at ``col``."""
    for model in models:
        for sub in model.branches.layout.subsystems:
            if sub.name not in layout.axes or layout.subsystem(sub.name) != sub:
                raise ScenarioParseError(
                    f"model {model.environment!r} couples {sub.name!r}, which is not in {where} "
                    "as declared", line_no, col, hint)


def _models_at_stage(models, observer: PremeasureAction, line_no, col) -> None:
    """The models a decoherent claim by ``observer`` consults couple
    registers of the observer's stage."""
    _model_targets_in(models, observer.stage,
                      f"the layout where {observer.apparatus!r} measures", line_no, col,
                      "decoherent semantics couples the observer's stage; model its registers")


def _apparatus(name, line_no, col, apparatus_actions, final=None) -> PremeasureAction:
    """The premeasure action of apparatus ``name``; given the ``final``
    schema, the apparatus must also be a register of the final layout."""
    if name not in apparatus_actions:
        raise ScenarioParseError(
            f"{name!r} is not the apparatus of any premeasure action", line_no, col,
            "name an apparatus used in the actions section")
    if final is not None and name not in final.layout.axes:
        raise ScenarioParseError(f"apparatus {name!r} is grouped away before the end",
                                 line_no, col, "name an apparatus of the final layout")
    return apparatus_actions[name]


def _parse_query_line(stripped, line_no, col0, schema, apparatus_actions,
                      declared_models, stages) -> Query:
    """``stages`` holds the register labels of the declared layout and after
    each action, in order."""
    toks = _tokens(stripped, col0)
    head = toks[0][0]
    if head == "born":
        fields = _field_map(toks[1:], line_no, ("targets",))
        tval, tcol = _need(fields, "targets", line_no, "born")
        targets = []
        bases: list[Basis | None] = []
        for raw, off in _entries(tval, "()", line_no, tcol, "target list"):
            if ":" in raw:
                name, labels, basis = _labelled_basis(head, raw, line_no, off, schema)
            else:
                name, labels = raw, None
                basis = schema.computational(_register(schema.layout, raw, line_no, off))
            bases.append(basis)
            targets.append((name, labels))
        if not targets:
            raise ScenarioParseError("born needs at least one target", line_no, col0,
                                     "write targets=(NAME) or targets=(NAME:{a,b})")
        return BornQuery(tuple(targets), tuple(bases))
    if head == "certainty":
        fields = _field_map(toks[1:], line_no,
                            ("observer", "outcome", "prop", "semantics", "models"))
        oval, ocol = _need(fields, "observer", line_no, "certainty")
        outval, outcol = _need(fields, "outcome", line_no, "certainty")
        pval, pcol = _need(fields, "prop", line_no, "certainty")
        words = _quoted_words(pval, line_no, pcol, "prop",
                              "SUBJECT will_obtain|is_in_state LABEL")
        sval, scol = _need(fields, "semantics", line_no, "certainty")
        if sval not in ("premeasurement", "decoherent"):
            raise ScenarioParseError(f"unknown semantics {sval!r}", line_no,
                                     scol, "use premeasurement or decoherent")
        models: tuple[CoupleStep, ...] = ()
        if sval == "decoherent":
            if "models" not in fields:
                raise ScenarioParseError(
                    "decoherent semantics needs models=(...)", line_no, scol,
                    "reference models declared in the models: section")
            models = _model_list(fields["models"], line_no, declared_models)
        elif "models" in fields:
            raise ScenarioParseError("models= only applies to decoherent semantics",
                                     line_no, col0, "drop models= or switch semantics")
        query = _claim(oval, ocol, outval, outcol, words, pcol,
                       line_no, schema, apparatus_actions, stages, sval, models)
        if models:
            _models_at_stage(models, apparatus_actions[oval], line_no, fields["models"][1])
        return query
    if head == "rewrite":
        fields = _field_map(toks[1:], line_no, ("bases",))
        bval, bcol = _need(fields, "bases", line_no, "rewrite")
        out: dict[str, tuple[str, ...]] = {}
        bases = []
        for raw, off in _entries(bval, "()", line_no, bcol, "bases list"):
            if ":" not in raw:
                raise ScenarioParseError(f"malformed bases entry {raw!r}", line_no,
                                         off, "entries look like NAME:{a,b}")
            name, labels, basis = _labelled_basis(head, raw, line_no, off, schema)
            if basis.size != basis.layout.dimension:
                raise ScenarioParseError(
                    f"rewrite basis for {name!r} has {basis.size} vectors, "
                    f"needs {basis.layout.dimension}", line_no, off,
                    "rewrite bases must be complete")
            bases.append(basis)
            out[name] = labels
        bases += [schema.computational(sub) for sub in schema.layout.subsystems
                  if sub.name not in out]
        return RewriteQuery(tuple(out.items()), tuple(bases))
    if head == "triortho":
        fields = _field_map(toks[1:], line_no, ("parts",))
        pval, pcol = _need(fields, "parts", line_no, "triortho")
        groups = []
        for raw, off in _entries(pval, "()", line_no, pcol, "parts list"):
            groups.append(_registers(raw, line_no, off, schema.layout))
        if len(groups) != 3:
            raise ScenarioParseError(f"triortho needs three parts, got {len(groups)}",
                                     line_no, pcol, "write parts=((A),(B),(C))")
        covered = [n for g in groups for n in g]
        if sorted(covered) != sorted(schema.layout.names):
            raise ScenarioParseError("triortho parts must cover the layout exactly",
                                     line_no, pcol,
                                     f"cover {schema.layout.names} once each")
        return TriorthoQuery((groups[0], groups[1], groups[2]))
    if head == "consistency_audit":
        fields = _field_map(toks[1:], line_no, ("chain", "joint", "decoherent", "models"))
        cval, ccol = _need(fields, "chain", line_no, "consistency_audit")
        chain: dict[str, CertaintyQuery] = {}
        for raw, off in _parse_name_list(cval, line_no, ccol):
            name, _, quoted = (part.strip() for part in raw.partition(":"))
            _name(name, line_no, off, "statement")
            words = _quoted_words(quoted, line_no, off, "statement",
                                  "OBSERVER OUTCOME SUBJECT QUANTIFIER LABEL")
            chain[name] = _claim(words[0], off, words[1], off, words[2:], off, line_no,
                                 schema, apparatus_actions, stages)
        jval, jcol = _need(fields, "joint", line_no, "consistency_audit")
        joint = []
        for raw, off in _parse_name_list(jval, line_no, jcol):
            apparatus, _, label = (part.strip() for part in raw.partition(":"))
            action = _apparatus(apparatus, line_no, off, apparatus_actions, schema)
            labels = action.resolved.basis.labels
            if label not in labels:
                raise ScenarioParseError(
                    f"joint entry {raw!r} needs a measured basis label of {apparatus!r}",
                    line_no, off, f"write {apparatus}:LABEL with LABEL in {list(labels)}")
            joint.append((apparatus, label))
        dval, dcol = _need(fields, "decoherent", line_no, "consistency_audit")
        if dval not in chain:
            raise ScenarioParseError(f"decoherent names no chain statement: {dval!r}",
                                     line_no, dcol, f"use one of {list(chain)}")
        mval, mcol = _need(fields, "models", line_no, "consistency_audit")
        models = _model_list((mval, mcol), line_no, declared_models)
        _models_at_stage(models, apparatus_actions[chain[dval].observer], line_no, mcol)
        return AuditQuery(tuple(chain.items()), tuple(joint), dval,
                          tuple(m.environment for m in models),
                          replace(chain[dval].resolved, semantics="decoherent", models=models))
    if head == "decoherence_compare":
        fields = _field_map(toks[1:], line_no, ("models", "hidden", "apparatus"))
        mval, mcol = _need(fields, "models", line_no, "decoherence_compare")
        models = _model_list((mval, mcol), line_no, declared_models)
        if len(models) != 2:
            raise ScenarioParseError("decoherence_compare compares two distinct models",
                                     line_no, mcol, "write models=(COARSE, FINE)")
        _model_targets_in(models, schema.layout, "the final layout",
                          line_no, mcol,
                          "decoherence_compare couples the final state; model its registers")
        hval, hcol = _need(fields, "hidden", line_no, "decoherence_compare")
        hidden = _registers(hval, line_no, hcol, schema.layout)
        aval, acol = _need(fields, "apparatus", line_no, "decoherence_compare")
        _apparatus(aval, line_no, acol, apparatus_actions, schema)
        if aval in hidden:
            raise ScenarioParseError(f"apparatus {aval!r} is hidden", line_no, acol,
                                     "the apparatus record must stay visible")
        return CompareQuery(tuple(m.environment for m in models), hidden, aval, models)
    raise ScenarioParseError(f"unknown query {head!r}", line_no, col0,
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
