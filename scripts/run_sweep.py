#!/usr/bin/env python3
"""Exhaustively verify every small connected graph and write the summary JSON.

Exit code 1 when any violation is recorded (each violation carries the
counterexample graph, source, and trace), 2 on a bad argument or an
unwritable --out, which is opened before the sweep starts, or a failed write.
"""

from __future__ import annotations

import sys
import time

from amflood.analysis import check_sweep_args, sweep
from amflood.cli import _emit, _output, _Parser


def main() -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6, help="largest node count (2..7)")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers")
    ap.add_argument("--out", default=None, help="write JSON here instead of stdout")
    args = ap.parse_args()

    try:
        check_sweep_args(args.n_max, args.jobs)
        with _output(args.out) as fh:
            t0 = time.perf_counter()
            summary = sweep(args.n_max, jobs=args.jobs)
            elapsed = time.perf_counter() - t0
            _emit(fh, summary.to_json_obj())
    except ValueError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 2
    print(f"n_max={args.n_max}: {summary.graphs} graphs, {summary.runs} runs, "
          f"{len(summary.violations)} violations, {elapsed:.1f}s", file=sys.stderr)
    return 0 if not summary.violations else 1


if __name__ == "__main__":
    raise SystemExit(main())
