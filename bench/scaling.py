"""Chain scaling table: warm in-process time of one generated chain file per
size, beyond the sizes the ``chain`` workload uses.

    python3 bench/scaling.py N:D [N:D ...]

Sizes run in the order given, each generated with seed 0; once one file
takes longer than a minute the remaining sizes are skipped, since each step
up multiplies the time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from pointerlab import runner, scenario  # noqa: E402

SEED = 0
LIMIT_S = 60.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sizes", nargs="+", metavar="N:D")
    args = ap.parse_args()
    print("| agents n | levels d | final amplitudes | seconds |")
    print("|---|---|---|---|")
    for size in args.sizes:
        n, d = map(int, size.split(":"))
        case = gen.chain_case(f"n{n}_d{d}", n, d, np.random.default_rng(SEED))
        t0 = time.perf_counter()
        runner.run(scenario.parse_scenario(case.text), source_text=case.text).to_json()
        dt = time.perf_counter() - t0
        print(f"| {n} | {d} | {3 * 2 * d ** n} | {dt:.3f} |", flush=True)
        if dt > LIMIT_S:
            break


if __name__ == "__main__":
    main()
