"""Command-line interface.

    pointerlab run FILE... [--format table|structured]
    pointerlab check FILE
    pointerlab demo {fr,ambiguity,decoherence,triortho} [--format ...]

Exit codes: 0 on success, 2 on scenario parse errors, 3 on execution errors.
Every diagnostic is one line on stderr that starts with the file it is about.
``run`` goes on past a failing file and exits with the first failure's code.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path

from .errors import PointerLabError, ScenarioParseError
from .runner import DEMOS, bundled_scenario_text, run
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EXEC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointerlab",
        description="Run measurement-chain scenarios and print their reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute scenario files")
    run_p.add_argument("files", nargs="+", metavar="FILE")
    run_p.add_argument("--format", choices=("table", "structured"), default="table")

    check_p = sub.add_parser("check", help="parse a scenario file without running it")
    check_p.add_argument("file", metavar="FILE")

    demo_p = sub.add_parser("demo", help="run a bundled scenario")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--format", choices=("table", "structured"), default="table")
    return parser


def _run_one(text: str, fmt: str) -> str:
    report = run(parse_scenario(text), source_text=text)
    if fmt == "structured":
        return report.to_json() + "\n"
    return report.to_table()


def _guarded(source: str, work: Callable[[], str]) -> tuple[int, str]:
    """(exit code, output) of ``work``; on failure the output is a one-line
    diagnostic naming ``source``.  An unreadable file counts as a parse
    error, numerical errors that escape the library as execution errors."""
    try:
        return EXIT_OK, work()
    except (OSError, UnicodeDecodeError) as exc:
        return EXIT_PARSE, f"{source}: {exc}"
    except ScenarioParseError as exc:
        return EXIT_PARSE, f"{source}: parse error: {exc}"
    except PointerLabError as exc:
        return EXIT_EXEC, f"{source}: execution error: {exc}"
    except (ValueError, ArithmeticError, MemoryError) as exc:
        return EXIT_EXEC, f"{source}: execution error: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "check":
        def summary() -> str:
            scenario = parse_scenario(Path(args.file).read_text("utf-8"))
            return (f"{args.file}: OK ({len(scenario.actions)} actions, "
                    f"{len(scenario.queries)} queries)")

        code, out = _guarded(args.file, summary)
        print(out, file=sys.stdout if code == EXIT_OK else sys.stderr)
        return code

    if args.command == "demo":
        text = bundled_scenario_text(args.name)
        code, out = _guarded(f"demo {args.name}", lambda: _run_one(text, args.format))
        if code == EXIT_OK:
            sys.stdout.write(out)
        else:
            print(out, file=sys.stderr)
        return code

    # run: every file, in order; the first failure sets the exit code.
    first_failure = EXIT_OK
    for name in args.files:
        code, out = _guarded(name, lambda: _run_one(Path(name).read_text("utf-8"), args.format))
        if code != EXIT_OK:
            print(out, file=sys.stderr)
            first_failure = first_failure or code
            continue
        if len(args.files) > 1:
            sys.stdout.write(f"### {name}\n")
        sys.stdout.write(out)
    return first_failure


if __name__ == "__main__":
    raise SystemExit(main())
