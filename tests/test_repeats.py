"""A repeated entry in any set-like list is one positioned diagnostic.

Each bundled scenario, and one generated scenario per query kind, is taken
as a base.  Every entry of every set-like list on every directive line
(nested lists too) is copied to the end of its list, and ``pointerlab
check`` must then exit 2 with one diagnostic:

* a keyed entry (a name or label, ``NAME:...``, a group map entry) at the
  copy's column, saying it appears twice;
* a ket, vector literal or sublist, which has no key, at the list's column,
  where its repeat is a Gram defect or a wrong part count.

The lists are found here with a bracket scanner of the test's own, so the
expected columns do not come from the parser under test.
"""

import random

import pytest

from pointerlab.cli import EXIT_OK, EXIT_PARSE, main
from pointerlab.runner import DEMOS, bundled_scenario_text

# The set-like lists of each directive: "" is a subsystem's label set, and
# a field ending in "/" is the list nested in each entry of that field.
LIST_FIELDS = {
    "subsystem": ("",),
    "premeasure": ("basis", "outcomes"),
    "group": ("parts", "map"),
    "couple": ("targets", "branches"),
    "model": ("targets", "branches"),
    "born": ("targets", "targets/"),
    "certainty": ("models",),
    "rewrite": ("bases", "bases/"),
    "triortho": ("parts", "parts/"),
    "consistency_audit": ("chain", "joint", "models"),
    "decoherence_compare": ("models", "hidden"),
}
# What a repeated entry without a key is reported as, by field.
UNKEYED = {"basis": "not orthonormal: Gram[", "branches": "not orthonormal: Gram[",
           "parts": "triortho needs three parts"}


def scan(text: str, lo: int) -> tuple[int, list[tuple[int, str]]]:
    """The list opened by the bracket at ``text[lo]``: the index of its
    closing bracket, and the start and text of each non-empty entry between
    its top-level commas.  Quoted strings and kets |...> are skipped whole."""
    depth, k, cuts = 0, lo, [lo]
    while True:
        c = text[k]
        if c in '"|':
            k = text.index('"' if c == '"' else ">", k + 1)
        elif c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
            if depth == 0:
                break
        elif c == "," and depth == 1:
            cuts.append(k)
        k += 1
    entries = []
    for a, b in zip(cuts, cuts[1:] + [k]):
        raw = text[a + 1:b]
        if raw.strip():
            entries.append((a + 1 + len(raw) - len(raw.lstrip()), raw.strip()))
    return k, entries


def lists(line: str):
    """(directive, field, index of the opening bracket) of each set-like
    list on a directive line, nested lists included."""
    head = line.split()[0]
    for field in LIST_FIELDS.get(head, ()):
        if field == "":
            yield head, field, line.index("{")
        elif f" {field}=" in line:
            lo = line.index(f" {field}=") + len(field) + 2
            yield head, field, lo
            if field + "/" in LIST_FIELDS[head]:
                for start, entry in scan(line, lo)[1]:
                    inner = entry.find("{") if head != "triortho" else 0
                    if inner >= 0:
                        yield head, field + "/", start + inner


def repeats(text: str):
    """Each copy of one list entry appended to its list: (field, scenario
    text, line number, expected column, expected message)."""
    lines = text.splitlines(keepends=True)
    for n, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip("\n")
        if not line.strip() or line.strip().endswith(":") or line.startswith("state:"):
            continue
        for head, field, lo in lists(line):
            hi, entries = scan(line, lo)
            for _, entry in entries:
                keyed = "|" not in entry and (field == "map" or not entry.startswith("("))
                # The copy goes in after ", " at the closing bracket's index.
                col, message = (hi + 3, "appears twice") if keyed else (lo + 1, UNKEYED[field])
                mutated = lines[:n - 1] + [line[:hi] + ", " + entry + line[hi:] + "\n"] + lines[n:]
                yield (head, field), "".join(mutated), n, col, message


def generated(kind: str, seed: int) -> str:
    """A scenario with one query of ``kind``; register, label, model and
    statement names, register sizes and set orders are drawn from ``seed``.
    Apparatus A premeasures R, E records S, R and A group into L, and
    apparatus B premeasures L."""
    rng = random.Random(seed)
    labels = ["up", "down", "h", "t", "+1/2", "-1/2", "x.0", "a_b", "0", "1", "k-2"]
    R, S, A, B, E, L = rng.sample(["R", "coin", "Q_1", "spin", "Fbar", "lab-2", "W", "env",
                                   "Zeta", "_a"], 6)
    M1, M2, M3 = rng.sample(["m", "coarse", "fine-3", "two_branch"], 3)
    s1, s2 = rng.sample(["s1", "stmt-a", "t_2"], 2)
    n, m = rng.randint(2, 3), rng.randint(2, 3)
    r, s, ell = (rng.sample(labels, k) for k in (n, m, n))
    # No apparatus level is a label of the basis it records, so an outcome
    # word names one outcome.
    a, b = (rng.sample([x for x in labels if x not in measured], n + 1) for measured in (r, ell))
    order = rng.sample(range(n), n)
    sq = f"sqrt(1/{n})"
    state = " + ".join(f"{sq}|{r[i]},{s[0]},{a[0]},{b[0]}>" for i in range(n))
    pairs = [(r[order[k]], a[k + 1]) for k in range(n)]
    label_map = ", ".join(f"({x},{y}):{z}" for (x, y), z in zip(pairs, ell))
    query = {
        "born": f"born targets=({B}, {L}:{{{','.join(rng.sample(ell, n))}}}, {S})",
        "certainty": f'certainty observer={A} outcome={a[1]} prop="{B} will_obtain {ell[0]}" '
                     f"semantics=decoherent models=({M1})",
        "rewrite": f"rewrite bases=({B}:{{{','.join(rng.sample(b, n + 1))}}}, "
                   f"{S}:{{{', '.join(rng.sample(s, m))}}})",
        "triortho": f"triortho parts=(({L}),({S},{E}),({B}))",
        "consistency_audit": f'consistency_audit chain=({s1}:"{A} {a[1]} {B} will_obtain '
                             f'{ell[0]}", {s2}:"{B} {b[1]} {L} is_in_state {ell[0]}") '
                             f"joint=({B}:{ell[1]}) decoherent={s1} models=({M1})",
        "decoherence_compare": f"decoherence_compare models=({M2}, {M3}) hidden=({S}) "
                               f"apparatus={B}",
    }[kind]
    return f"""\
layout:
  subsystem {R} {{{', '.join(r)}}}
  subsystem {S} {{{', '.join(s)}}}
  subsystem {A} {{{', '.join(a)}}}
  subsystem {B} {{{', '.join(b)}}}
state: {state}
actions:
  premeasure target={R} apparatus={A} basis={{{','.join(r[i] for i in order)}}} \
outcomes={{{','.join(a[1:])}}} ready={a[0]}
  couple env={E} targets=({S}) branches={{{', '.join(f'|{x}>' for x in s)}}}
  group parts=({R},{A}) as {L} map={{{label_map}}}
  premeasure target={L} apparatus={B} basis={{{','.join(ell)}}} outcomes={{{','.join(b[1:])}}} \
ready={b[0]}
models:
  model {M1} targets=({R},{A}) branches={{{', '.join(f'|{x},{y}>' for x, y in pairs)}}}
  model {M2} targets=({B}) branches={{{', '.join(f'|{x}>' for x in b[1:])}}}
  model {M3} targets=({B}) branches={{{', '.join(f'|{x}>' for x in b)}}}
queries:
  {query}
"""


QUERY_KINDS = ("born", "certainty", "rewrite", "triortho", "consistency_audit",
               "decoherence_compare")
BASES = {**{f"bundled-{name}": bundled_scenario_text(name) for name in DEMOS},
         **{f"generated-{kind}": generated(kind, seed) for seed, kind in enumerate(QUERY_KINDS)}}


def test_the_bases_reach_every_list_field():
    reached = {field for text in BASES.values() for field, *_ in repeats(text)}
    assert reached == {(head, field) for head, fields in LIST_FIELDS.items() for field in fields}


@pytest.mark.parametrize("name", sorted(BASES))
def test_a_repeated_list_entry_is_one_diagnostic_at_its_column(tmp_path, capsys, name):
    path = tmp_path / "repeat.scn"
    path.write_text(BASES[name], encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_OK
    capsys.readouterr()
    for field, text, line, col, message in repeats(BASES[name]):
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_PARSE, (field, text)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"{path}: parse error: line {line}, col {col}: "), (field, err)
        assert message in err, (field, err)
