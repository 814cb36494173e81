"""Structured rendering: the emitter behind ``Report.to_json`` writes
exactly what ``json.dumps(doc, indent=2)`` writes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pointerlab import runner
from pointerlab.runner import Report

# Characters that JSON escapes or that look like its own syntax, non-ASCII
# ones, and a few plain ones.
TRICKY = (list('[]{}",:\\') + ["\x00", "\x07", "\x1f", "\n", "\t", "\x7f"]
          + ["é", "→", "\U0001f600", "a", "Z", " "])

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
    assert runner._render(doc, 0) == json.dumps(doc, indent=2)


def _nested(depth, inner):
    """``inner`` at nesting ``depth``, through alternating dicts and lists."""
    for level in range(depth):
        inner = {"k": inner} if level % 2 else [inner]
    return inner


def test_render_of_a_flat_document():
    docs = [[1, -0.0, 5e-324, 1e22, 1e-07, 0.1, "a\"[,]:\\\x01é", None, True, 2**100],
            {"k": 0.1, "": None, "→": "\x1f", "b": False}, [], {}, "top", 1e-07]
    # Containers that mix scalars, empty containers and flat lists, on either
    # side of the deepest level with its own flat encoder.
    assert len(runner._FLAT) == 16
    for depth in range(14, 18):
        docs.append(_nested(depth, [0.5, [], {}, ["a", 1e-07], "s", [None, True]]))
        docs.append(_nested(depth, {"x": [1, 2], "e": [], "y": 0.1, "d": {}, "z": ["q"]}))
    for doc in docs:
        assert runner._render(doc, 0) == json.dumps(doc, indent=2)


def test_report_to_json_is_json_dumps():
    report = Report("ab" * 32, 2, 2, (
        {"kind": "born", "targets": [{"subsystem": "R", "basis": "computational"}],
         "distribution": [{"outcome": ["head"], "probability": 0.5},
                          {"outcome": ["tail"], "probability": 0.5}]},
        {"kind": "rewrite", "terms": []},
    ))
    assert report.to_json() == json.dumps(report.to_structured(), indent=2)
