"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pr-saturated --seed 1 \\
        --seconds 30 --trace 0

The simulator is imported from ``src/`` of the current directory, never
from an installed copy.  Everything the run writes goes under
``.perfbench/`` there.  The human-readable table goes first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
the correctness gate passed.  ``--trace 1`` reports the per-layer
metrics instead and writes the spans to
``.perfbench/trace-<workload>.json`` for Perfetto (the latest traced
run of each workload).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {root / 'src'};"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from bench import Run, report
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known:"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    # Worker processes and the service inherit the temp dir, so nothing
    # is written outside the checkout.
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    run = Run(WORKLOADS[args.workload](args.seed), root, workdir,
              args.seconds, traced=bool(args.trace))
    try:
        run.execute()
        if run.traced:
            run.recorder.write_chrome(
                out_dir / f"trace-{args.workload}.json")
        result = report(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
