#!/usr/bin/env python3
"""Search small graphs for runs attaining the worst-case termination round
e + d + 1 and print the witnesses as JSON.

Exit code 1 when the target witness is not found, 2 on a bad argument or a
failed write.
"""

from __future__ import annotations

import sys

from amflood.analysis import find_sharp_example
from amflood.cli import _emit, _Parser


def main() -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=8, help="largest node count (2..8)")
    ap.add_argument("--eccentricity", type=int, default=2,
                    help="target source eccentricity")
    ap.add_argument("--diameter", type=int, default=4, help="target diameter")
    args = ap.parse_args()

    try:
        result = find_sharp_example(args.n_max,
                                    target=(args.eccentricity, args.diameter))
        _emit(sys.stdout, result.to_json_obj())
    except ValueError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 2
    return 0 if result.target is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
