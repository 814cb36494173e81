"""Command-line interface.

    pointerlab run FILE... [--format table|structured] [--tolerance T] [--jobs N]
    pointerlab check FILE
    pointerlab demo {fr,ambiguity,decoherence,triortho} [--format ...]

Exit codes: 0 on success, 2 on scenario parse errors, 3 on execution errors.
Every diagnostic is one line on stderr that starts with the file it is about.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from .errors import PointerLabError, ScenarioParseError
from .runner import DEFAULT_ZERO_TOL, run
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EXEC = 3

DEMOS = {
    "fr": "fr_full.scn",
    "ambiguity": "ambiguity.scn",
    "decoherence": "decoherence.scn",
    "triortho": "triortho.scn",
}


def bundled_scenario_text(name: str) -> str:
    return (resources.files("pointerlab") / "scenarios" / DEMOS[name]).read_text("utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointerlab",
        description="Run measurement-chain scenarios and print their reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute scenario files")
    run_p.add_argument("files", nargs="+", metavar="FILE")
    run_p.add_argument("--format", choices=("table", "structured"), default="table")
    run_p.add_argument("--tolerance", type=float, default=DEFAULT_ZERO_TOL,
                       help="probabilities below this render as exactly 0")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="run multiple scenario files concurrently")

    check_p = sub.add_parser("check", help="parse a scenario file without running it")
    check_p.add_argument("file", metavar="FILE")

    demo_p = sub.add_parser("demo", help="run a bundled scenario")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--format", choices=("table", "structured"), default="table")
    demo_p.add_argument("--tolerance", type=float, default=DEFAULT_ZERO_TOL)
    return parser


def _run_one(text: str, fmt: str, tolerance: float) -> str:
    scenario = parse_scenario(text)
    report = run(scenario, source_text=text, zero_tol=tolerance)
    if fmt == "structured":
        return report.to_json() + "\n"
    return report.to_table()


def _guarded(source: str, work: Callable[[], str]) -> tuple[int, str]:
    """(exit code, output) of ``work``; on failure the output is a one-line
    diagnostic naming ``source``.  Numerical errors that escape the library
    count as execution errors."""
    try:
        return EXIT_OK, work()
    except ScenarioParseError as exc:
        return EXIT_PARSE, f"{source}: parse error: {exc}"
    except PointerLabError as exc:
        return EXIT_EXEC, f"{source}: execution error: {exc}"
    except (ValueError, ArithmeticError, MemoryError) as exc:
        return EXIT_EXEC, f"{source}: execution error: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "check":
        try:
            text = Path(args.file).read_text("utf-8")
        except OSError as exc:
            print(f"{args.file}: {exc}", file=sys.stderr)
            return EXIT_PARSE

        def summary() -> str:
            scenario = parse_scenario(text)
            return (f"{args.file}: OK ({len(scenario.actions)} actions, "
                    f"{len(scenario.queries)} queries)")

        code, out = _guarded(args.file, summary)
        print(out, file=sys.stdout if code == EXIT_OK else sys.stderr)
        return code

    if args.command == "demo":
        text = bundled_scenario_text(args.name)
        code, out = _guarded(f"demo {args.name}",
                             lambda: _run_one(text, args.format, args.tolerance))
        if code == EXIT_OK:
            sys.stdout.write(out)
        else:
            print(out, file=sys.stderr)
        return code

    # run
    texts = []
    for name in args.files:
        try:
            texts.append(Path(name).read_text("utf-8"))
        except OSError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return EXIT_PARSE

    def job(item: tuple[str, str]) -> tuple[int, str]:
        name, text = item
        return _guarded(name, lambda: _run_one(text, args.format, args.tolerance))

    if args.jobs > 1 and len(texts) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(job, zip(args.files, texts)))
    else:
        results = map(job, zip(args.files, texts))
    outputs = []
    for code, out in results:
        if code != EXIT_OK:
            print(out, file=sys.stderr)
            return code
        outputs.append(out)

    for i, out in enumerate(outputs):
        if len(outputs) > 1:
            sys.stdout.write(f"### {args.files[i]}\n")
        sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
