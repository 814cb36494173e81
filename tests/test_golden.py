"""The bundled demos print exactly the committed snapshots, in both formats.

The files under ``tests/golden`` are the output of
``pointerlab demo NAME --format structured`` (``.json``) and of
``pointerlab demo NAME`` (``.txt``).  A refactor must keep them byte for byte.
"""

from pathlib import Path

import pytest

from pointerlab.cli import DEMOS, EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(DEMOS))
@pytest.mark.parametrize("fmt, suffix", [("structured", "json"), ("table", "txt")])
def test_demo_output_matches_snapshot(name, fmt, suffix, capsys):
    assert main(["demo", name, "--format", fmt]) == EXIT_OK
    expected = (GOLDEN / f"{name}.{suffix}").read_text("utf-8")
    assert capsys.readouterr().out == expected
