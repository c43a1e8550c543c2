#!/usr/bin/env python3
"""Run one amflood command in a child process and print what it cost.

    python scripts/peak_rss.py ARGS...
    python scripts/peak_rss.py run --named cycle:1000000 --source 0

Runs ``python -m amflood ARGS`` with this interpreter and the checkout's
``src/`` first on PYTHONPATH. The child's stdout goes to /dev/null and its
stderr passes through. Then one line is printed:

    exit=CODE wall_s=SECONDS peak_rss_mb=MB

``peak_rss_mb`` is the children's ``ru_maxrss`` in units of 2^20 bytes, the
unit of perfbench's ``peak_rss_mb``; the child is the only one this process
starts. Exit code: the child's.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    code = subprocess.call([sys.executable, "-m", "amflood", *argv],
                           stdout=subprocess.DEVNULL, env=env)
    wall = perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    mb = rss / 2**20 if sys.platform == "darwin" else rss / 2**10  # bytes there, KiB elsewhere
    print(f"exit={code} wall_s={wall:.3f} peak_rss_mb={mb:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
