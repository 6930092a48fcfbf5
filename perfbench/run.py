"""opsforge benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload dispatch_hot --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports opsforge from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` replays the same stream with spans around each call into a
layer and prints the per-layer metrics. The last line of stdout is one JSON
object; the exit code is non-zero when any output check failed.
``--workload all`` runs every workload, each in its own fresh process.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("dispatch_hot", "match_cold", "imaging")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "opsforge" / "__init__.py").is_file():
        print(f"perfbench: no opsforge sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter_ns()
    import opsforge.cli  # noqa: F401  (first import is the measured part)
    import opsforge.stdlib  # noqa: F401

    import_ms = (time.perf_counter_ns() - t0) / 1e6
    if Path(opsforge.__file__).resolve().parent != (SRC / "opsforge").resolve():
        print(f"perfbench: opsforge imported from {opsforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    _, code = harness.run(args.workload, args.seed, args.seconds, args.trace, import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
