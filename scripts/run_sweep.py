#!/usr/bin/env python3
"""Exhaustively verify every small connected graph and write the summary JSON.

Exit code 1 when any violation is recorded (each violation carries the
counterexample graph, source, and trace), 2 on a bad argument or an
unwritable --out.
"""

from __future__ import annotations

import argparse
import sys
import time

from amflood.analysis import sweep
from amflood.jsonio import dumps_stable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6, help="largest node count (2..7)")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers")
    ap.add_argument("--out", default=None, help="write JSON here instead of stdout")
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        summary = sweep(args.n_max, jobs=args.jobs)
    except ValueError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    text = dumps_stable(summary.to_json_obj())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"{ap.prog}: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"n_max={args.n_max}: {summary.graphs} graphs, {summary.runs} runs, "
          f"{len(summary.violations)} violations, {elapsed:.1f}s", file=sys.stderr)
    return 0 if not summary.violations else 1


if __name__ == "__main__":
    raise SystemExit(main())
