"""Structured rendering: the emitter behind ``Report.to_json`` writes
exactly what ``json.dumps(doc, indent=2)`` writes."""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import runner
from pointerlab.runner import Report
from pointerlab.scenario import parse_scenario

# Characters that JSON escapes or that look like its own syntax, non-ASCII
# ones, format directives, and a few plain ones.
TRICKY = (list('[]{}",:\\') + ["\x00", "\x07", "\x1f", "\n", "\t", "\x7f"]
          + ["é", "→", "\U0001f600", "%", "%s", "a", "Z", " "])

texts = st.lists(st.sampled_from(TRICKY), max_size=6).map("".join)
floats = st.sampled_from([-0.0, 5e-324, 1e22, 1e-07, 0.1]) | st.floats()
scalars = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | floats | texts


@st.composite
def documents(draw):
    """A container nested 6 to 18 deep; every level holds an empty list, an
    empty dict, the next level down, and scalars or containers of scalars,
    drawn from one pool of scalars and one of key texts."""
    pool = draw(st.lists(scalars, min_size=1, max_size=12))
    keys = draw(st.lists(texts, min_size=1, max_size=6))
    rnd = draw(st.randoms(use_true_random=True))

    def container(items):
        if rnd.random() < 0.5:
            return items
        return {f"{rnd.choice(keys)}{i}": v for i, v in enumerate(items)}

    def sample():
        return rnd.sample(pool, rnd.randint(0, len(pool)))

    value = container(sample())
    for _ in range(rnd.randint(6, 18)):
        items = [[], {}, value] + [rnd.choice([rnd.choice(pool), container(sample())])
                                   for _ in range(rnd.randint(0, 3))]
        rnd.shuffle(items)
        value = container(items)
    return value


@settings(max_examples=200, deadline=None)
@given(documents())
def test_render_matches_json_dumps_indent_2(doc):
    assert runner._render(doc) == json.dumps(doc, indent=2)


def _nested(depth, inner):
    """``inner`` at nesting ``depth``, through alternating dicts and lists."""
    for level in range(depth):
        inner = {"k": inner} if level % 2 else [inner]
    return inner


def test_render_of_a_flat_document():
    docs = [[1, -0.0, 5e-324, 1e22, 1e-07, 0.1, "a\"[,]:\\\x01é", None, True, 2**100],
            {"k": 0.1, "": None, "→": "\x1f", "b": False}, [], {}, "top", 1e-07]
    # Containers that mix scalars, empty containers and flat lists, deep down.
    for depth in range(14, 18):
        docs.append(_nested(depth, [0.5, [], {}, ["a", 1e-07], "s", [None, True]]))
        docs.append(_nested(depth, {"x": [1, 2], "e": [], "y": 0.1, "d": {}, "z": ["q"]}))
    for doc in docs:
        assert runner._render(doc) == json.dumps(doc, indent=2)


def test_report_to_json_is_json_dumps():
    report = Report("ab" * 32, 2, 2, (
        {"kind": "born", "targets": [{"subsystem": "R", "basis": "computational"}],
         "distribution": [{"outcome": ["head"], "probability": 0.5},
                          {"outcome": ["tail"], "probability": 0.5}]},
        {"kind": "rewrite", "terms": []},
    ))
    assert report.to_json() == json.dumps(report.to_structured(), indent=2)


def _laid_out(records, depth=0):
    """The layout and scalars ``runner._records`` writes for ``records``,
    or None when it writes nothing."""
    layout, scalars = [], []
    if runner._records(records, depth, layout, scalars):
        return layout, scalars
    assert layout == scalars == []
    return None


@st.composite
def record_lists(draw, size=st.integers(1, 16)):
    """A list of records, dicts with one key order whose values are, key by
    key alike, scalars or flat lists of scalars of one length."""
    keys = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    shape = [draw(st.none() | st.integers(1, 3)) for _ in keys]

    def value(length):
        if length is None:
            return draw(scalars)
        return draw(st.lists(scalars, min_size=length, max_size=length))

    return [{k: value(n) for k, n in zip(keys, shape)} for _ in range(draw(size))]


@settings(max_examples=200, deadline=None)
@given(record_lists(), st.integers(0, 20))
def test_a_list_of_records_renders_as_one_template(records, depth):
    """Every such list, of any length, takes the record layout in the walk."""
    assert _laid_out(records) is not None
    laid, records_of = [], runner._records

    def spy(value, *rest):
        done = records_of(value, *rest)
        if value is records:
            laid.append(done)
        return done

    doc = _nested(depth, records)
    with mock.patch.object(runner, "_records", spy):
        assert runner._render(doc) == json.dumps(doc, indent=2)
    assert laid == [True]


def _reorder(rec, key):
    return dict(reversed(rec.items()))


def _lengthen(rec, key):
    value = rec[key]
    return {**rec, key: value + [value[0]] if isinstance(value, list) else [value]}


def _nest(rec, key):
    value = rec[key]
    return {**rec, key: [[value[0]]] + value[1:] if isinstance(value, list) else {"k": value}}


def _empty(rec, key):
    return {**rec, key: []}


@settings(max_examples=200, deadline=None)
@given(record_lists(size=st.integers(2, 16)), st.data())
def test_a_near_miss_of_a_record_list_falls_back(records, data):
    """One record with another key order, list length or nesting, or an
    empty list, writes nothing and leaves the list to the walk."""
    miss = data.draw(st.sampled_from([_reorder, _lengthen, _nest, _empty]))
    if miss is _reorder and len(records[0]) < 2:
        miss = _empty
    i = data.draw(st.integers(0, len(records) - 1))
    key = data.draw(st.sampled_from(list(records[i])))
    # An empty list misses even when every record from i on holds one.
    for j in range(i, len(records) if miss is _empty else i + 1):
        records[j] = miss(records[j], key)
    assert _laid_out(records) is None
    for doc in (records, {"terms": records}, [records, 0.5]):
        assert runner._render(doc) == json.dumps(doc, indent=2)


def test_lists_of_empty_records_fall_back():
    for records in ([{}], [{}, {}], [{"a": []}], [{"a": [], "b": 1}, {"a": [], "b": 2}]):
        assert _laid_out(records) is None
        assert runner._render(records) == json.dumps(records, indent=2)


def test_one_document_is_one_c_encode(monkeypatch):
    calls = []

    def counted(scalars, level):
        calls.append(len(scalars))
        return nul(scalars, level)

    nul = runner._NUL
    monkeypatch.setattr(runner, "_NUL", counted)
    report = runner.run(parse_scenario(runner.bundled_scenario_text("decoherence")), "")
    assert report.to_json() == json.dumps(report.to_structured(), indent=2)
    assert len(calls) == 1 and calls[0] > 100


def test_report_to_json_is_the_same_without_the_c_encoder(monkeypatch):
    kets = [f"{x},{y}" for x in "xyz" for y in "pqr"]
    terms = " + ".join(f"sqrt({k}/45)|{ket}>" for k, ket in enumerate(kets, start=1))
    text = f"""\
layout:
  subsystem a {{x, y, z}}
  subsystem b {{p, q, r}}
  derived a u = sqrt(1/2)|x> + sqrt(1/2)|y>
  derived a v = sqrt(1/2)|x> - sqrt(1/2)|y>
state: {terms}
actions:
queries:
  born targets=(a, b)
  rewrite bases=(a:{{u,v,z}})
"""
    report = runner.run(parse_scenario(text), source_text=text)
    for res, records in zip(report.results, ("distribution", "terms")):
        assert _laid_out(res[records], 3) is not None
    rendered = report.to_json()
    monkeypatch.setattr(runner, "_c_make_encoder", None)
    assert report.to_json() == rendered
