#!/usr/bin/env python3
"""Write every output of amflood that must stay byte-stable, one file each,
so two versions compare with a single ``diff -r``, or record their sha256
digests in a manifest and check a version against it.

    PYTHONPATH=src python scripts/dump_outputs.py OUTDIR
    PYTHONPATH=src python scripts/dump_outputs.py --manifest OUTPUTS.sha256
    PYTHONPATH=src python scripts/dump_outputs.py --check OUTPUTS.sha256 [OLDDIR]

A manifest has one ``digest  path`` line per output, sorted by path, in the
format ``sha256sum -c`` reads from inside a dump. ``--check`` rebuilds every
output, names each one that is missing, extra or changed against the
manifest, and exits 1 if there is any; given OLDDIR, a dump of the version
the manifest records, it also prints the first differing line of each
changed output.

The corpus: the sweep summary JSON for every n_max <= 6 with one and with
two workers; the sharpness search for (8), (5), (4, target (3, 5)) and
(6, target (3, 3)); CLI ``run`` in the sync, ``async:zero`` and
``async:fig6`` modes and ``analyze`` from every source of each graph below;
``run`` on one larger random graph from node 0 in sync mode, in full and
cut by ``--max-rounds``, and in ``async:zero`` with hold caps 1 and 3, and
``analyze`` on it from nodes 0 and 17;
``run`` in each mode and ``analyze`` from node 0 of a disconnected edge list;
and the input-error cases, three of them edge lists with a bad line behind
a comment: a self-loop, three endpoints and a 5,000-digit id, the last two a
sharpness target no graph attains and a bad mode with an unreadable file,
where the mode is refused first. A CLI file holds stdout, then
``exit=CODE``, then stderr. Exit code 2 on a bad argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from amflood import cli
from amflood.analysis import find_sharp_example, sweep
from amflood.jsonio import dumps_stable

# (flag, value, node count) for named graphs and an Erdos-Renyi draw; the
# edge-list file with labels is written to a temporary directory.
GRAPHS = [
    ("--named", "petersen", 10), ("--named", "hypercube:3", 8), ("--named", "cycle:3", 3),
    ("--named", "cycle:5", 5), ("--named", "cycle:6", 6), ("--named", "path:4", 4),
    ("--named", "complete:4", 4), ("--random", "16,0.3,42", 16),
]
# A 400-node draw of average degree about 12: hundreds of sends per round,
# run from node 0 in full, as the partial trace of a 3-round budget and
# asynchronously, and analyzed from two sources, where e, d and the audit are
# not trivial.
LARGE = ("--random", "400,0.03,7")
LABELED = "a b\nb c\nc a\nc d\nd e\ne c\n"  # two triangles sharing c
TWO_PARTS = "0 1\n2 3\n"  # disconnected: every command rejects it
# Edge lists whose error names a line behind comments and blank lines.
BAD_FILES = {"self_loop": "# c\n\n0 1\n2 2\n", "three_endpoints": "0 1\n# x\n\n1 2 3\n",
             "long_id": "0 1\n# x\n1 " + "1" * 5000 + "\n"}
MODES = ("sync", "async:zero", "async:fig6")
SHARP = [("8", 8, (2, 4)), ("5", 5, (2, 4)), ("4_3_5", 4, (3, 5)), ("6_3_3", 6, (3, 3))]
INPUT_ERRORS = [
    ("run", "--graph", "no/such/file.edges", "--source", "0"),
    ("run", "--named", "torus:3", "--source", "0"),
    ("run", "--named", "cycle:abc", "--source", "0"),
    ("run", "--named", "cycle:5", "--source", "nope"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:unknown"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "nope"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:zero,x"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:zero,0"),
    ("run", "--named", "cycle:5", "--source", "0", "--max-rounds", "0"),
    ("run", "--named", "complete:4473", "--source", "0"),
    ("run", "--random", "5,0.5", "--source", "0"),
    ("run", "--random", "5,x,1", "--source", "0"),
    ("run", "--random", "4473,0.5,1", "--source", "0"),
    ("run", "--named", "cycle:3", "--source", "0", "--out", "no/such/dir/out.json"),
    ("run", "--named", "cycle:3", "--source", "0", "--out", "."),
    ("analyze", "--named", "cycle:3", "--source", "0", "--out", "."),
    ("sweep", "--n-max", "8"),
    ("sweep", "--n-max", "3", "--jobs", "0"),
    ("sweep", "--n-max", "3", "--out", "."),
    ("sharp", "--eccentricity", "5", "--diameter", "2"),
    ("run", "--graph", "no/such/file.edges", "--source", "0", "--mode", "nope"),
]


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{out.getvalue()}exit={code}\n{err.getvalue()}"


def outputs() -> dict[str, str]:
    """Every output of the corpus, by its path relative to a dump's root."""
    files: dict[str, str] = {}
    for n_max in range(2, 7):
        for jobs in (1, 2):
            files[f"sweep/n{n_max}_jobs{jobs}.json"] = dumps_stable(
                sweep(n_max, jobs=jobs).to_json_obj())
    for name, n_max, target in SHARP:
        files[f"sharp/{name}.json"] = dumps_stable(
            find_sharp_example(n_max, target=target).to_json_obj())
    with tempfile.TemporaryDirectory() as tmp:
        labeled = Path(tmp) / "labels.edges"
        labeled.write_text(LABELED)
        for flag, value, n in GRAPHS + [("--graph", str(labeled), 5)]:
            label = "graph_labels" if flag == "--graph" else f"{flag[2:]}_{value}"
            for source in range(n):
                base = (flag, value, "--source", str(source))
                for mode in MODES:
                    files[f"cli/{label}/run_{mode}_s{source}.txt"] = _cli(
                        ("run", *base, "--mode", mode))
                files[f"cli/{label}/analyze_s{source}.txt"] = _cli(("analyze", *base))
        two_parts = Path(tmp) / "two_parts.edges"
        two_parts.write_text(TWO_PARTS)
        base = ("--graph", str(two_parts), "--source", "0")
        for mode in MODES:
            files[f"cli/graph_two_parts/run_{mode}_s0.txt"] = _cli(("run", *base, "--mode", mode))
        files["cli/graph_two_parts/analyze_s0.txt"] = _cli(("analyze", *base))
        for name, text in BAD_FILES.items():
            bad = Path(tmp) / f"{name}.edges"
            bad.write_text(text)
            files[f"errors/graph_{name}.txt"] = _cli(
                ("run", "--graph", str(bad), "--source", "0"))
    files["cli/random_400/run_sync_s0.txt"] = _cli(("run", *LARGE, "--source", "0"))
    files["cli/random_400/run_sync_max3_s0.txt"] = _cli(
        ("run", *LARGE, "--source", "0", "--max-rounds", "3"))
    for mode in ("async:zero", "async:zero,3"):
        files[f"cli/random_400/run_{mode}_s0.txt"] = _cli(
            ("run", *LARGE, "--source", "0", "--mode", mode))
    for source in (0, 17):
        files[f"cli/random_400/analyze_s{source}.txt"] = _cli(
            ("analyze", *LARGE, "--source", str(source)))
    for i, argv in enumerate(INPUT_ERRORS):
        files[f"errors/{i:02d}_{argv[0]}.txt"] = " ".join(argv) + "\n" + _cli(argv)
    return files


def manifest(files: dict[str, str]) -> str:
    return "".join(f"{hashlib.sha256(files[name].encode()).hexdigest()}  {name}\n"
                   for name in sorted(files))


def check(recorded: str, files: dict[str, str], old: Path | None = None) -> list[str]:
    """One line for each output missing from ``files``, extra in it or
    changed against the manifest text ``recorded``, in path order; a changed
    output whose old text is under ``old`` is followed by its first
    differing line there and in ``files``."""
    want = dict(line.split("  ", 1)[::-1] for line in recorded.splitlines())
    have = dict(line.split("  ", 1)[::-1] for line in manifest(files).splitlines())
    report = []
    for name in sorted(want.keys() | have.keys()):
        if name not in have:
            report.append(f"missing: {name}")
        elif name not in want:
            report.append(f"extra: {name}")
        elif want[name] != have[name]:
            report.append(f"changed: {name}")
            if old is not None and (old / name).is_file():
                report.extend(_first_difference((old / name).read_text(), files[name]))
    return report


def _first_difference(before: str, after: str) -> list[str]:
    # The first differing line, shown for 60 characters from where it differs.
    a, b = before.splitlines(keepends=True) + [""], after.splitlines(keepends=True) + [""]
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
    if k is None:  # the old dump is not of the version the manifest records
        return []
    x, y = a[k], b[k]
    col = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return [f"  line {k + 1}, column {col + 1}:",
            f"  - {x[col:col + 60]!r}", f"  + {y[col:col + 60]!r}"]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--manifest":
        files = outputs()
        Path(argv[1]).write_text(manifest(files))
        print(f"wrote {len(files)} digests to {argv[1]}", file=sys.stderr)
        return 0
    if len(argv) in (2, 3) and argv[0] == "--check":
        files = outputs()
        old = Path(argv[2]) if len(argv) == 3 else None
        report = check(Path(argv[1]).read_text(), files, old)
        print("\n".join(report) or f"all {len(files)} outputs match {argv[1]}")
        return 1 if report else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("dump_outputs.py: usage: dump_outputs.py OUTDIR | --manifest FILE"
              " | --check FILE [OLDDIR]", file=sys.stderr)
        return 2
    root = Path(argv[0])
    files = outputs()
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print(f"wrote {len(files)} files under {root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
