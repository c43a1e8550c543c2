"""Command-line front end.

Builds or loads a graph, runs one flooding mode, audits a run, sweeps all
small graphs, or searches them for runs attaining j = e+d+1, always emitting
byte-stable JSON. Exit codes partition the outcomes: 0 success/terminated,
1 property violation or sharpness target not attained, 2 input error,
3 cycle detected (async), 4 round budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import analysis, async_engine
from .graph import (MAX_EDGE_LIST_CHARS, GraphError, gen_named, gen_random,
                    parse_edge_list)
from .jsonio import dumps_stable
from .sync_engine import RoundBudgetError, run_sync

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_CYCLE = 3
EXIT_EXHAUSTED = 4


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", metavar="FILE",
                     help="edge-list file: 'u v' lines, '#' comments")
    grp.add_argument("--named", metavar="KIND[:P]",
                     help="hypercube:K, petersen, cycle:N, path:N, complete:N")
    grp.add_argument("--random", metavar="N,P,SEED",
                     help="Erdos-Renyi G(n,p) drawn from SEED")


def _load_graph(args):
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8-sig") as fh:
                text = fh.read(MAX_EDGE_LIST_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read {args.graph}: {exc}") from None
        if len(text) > MAX_EDGE_LIST_CHARS:
            raise GraphError(f"edge list {args.graph} is over the limit of "
                             f"{MAX_EDGE_LIST_CHARS} characters")
        return parse_edge_list(text)
    if args.named is not None:
        kind, _, param = args.named.partition(":")
        if not param:
            return gen_named(kind)
        try:
            value = int(param)
        except ValueError:
            raise GraphError(f"bad parameter in {args.named!r}") from None
        return gen_named(kind, value)
    parts = args.random.split(",")
    if len(parts) != 3:
        raise GraphError(f"--random wants N,P,SEED, got {args.random!r}")
    try:
        n, p, seed = int(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise GraphError(f"bad --random value {args.random!r}") from None
    return gen_random(n, p, seed)


def _parse_mode(mode: str) -> tuple[str, str | None, int]:
    if mode == "sync":
        return "sync", None, 0
    if mode.startswith("async:"):
        rest = mode[len("async:"):]
        name, _, cap = rest.partition(",")
        if name not in async_engine.ADVERSARIES:
            known = ", ".join(sorted(async_engine.ADVERSARIES))
            raise GraphError(f"unknown adversary {name!r} (known: {known})")
        try:
            hold_cap = int(cap) if cap else 1
        except ValueError:
            raise GraphError(f"bad hold cap in {mode!r}") from None
        _check_positive("hold_cap", hold_cap)
        return "async", name, hold_cap
    raise GraphError(f"unknown mode {mode!r}")


@contextlib.contextmanager
def _output(out: str | None):
    """The stream the JSON goes to: stdout, or the file ``out``. Commands open
    it once their arguments and graph are valid and before they compute, so
    an unwritable path fails at once. A failed open or close, like a failed
    ``_emit``, is a ValueError naming the target; any other error passes."""
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None
    try:
        yield fh
    except BaseException:
        # close() flushes again what a failed _emit left in the buffer; that
        # OSError must not replace the error in flight. The file closes anyway.
        with contextlib.suppress(OSError):
            fh.close()
        raise
    try:
        fh.close()
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _emit(fh, obj) -> None:
    try:
        fh.write(dumps_stable(obj))
        fh.flush()
    except OSError as exc:
        raise ValueError(f"cannot write {fh.name}: {exc}") from None


def _check_positive(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _cmd_run(args) -> int:
    _check_positive("--max-rounds", args.max_rounds)
    kind, adv_name, hold_cap = _parse_mode(args.mode)
    g = _load_graph(args)
    source = g.resolve(args.source)
    with _output(args.out) as fh:
        if kind == "sync":
            try:
                trace = run_sync(g, source, args.max_rounds)
            except RoundBudgetError as exc:
                # Only a budget the user set may run out; the default 2n+2
                # guard running out is an engine bug and stays an internal error.
                if args.max_rounds is None:
                    raise
                _emit(fh, exc.trace.to_json_obj())
                return EXIT_EXHAUSTED
            _emit(fh, trace.to_json_obj())
            return EXIT_OK
        adversary = async_engine.ADVERSARIES[adv_name]()
        verdict = async_engine.run_async(g, source, adversary,
                                         max_rounds=args.max_rounds, hold_cap=hold_cap)
        _emit(fh, verdict.to_json_obj())
    return {
        async_engine.OUTCOME_TERMINATED: EXIT_OK,
        async_engine.OUTCOME_CYCLE: EXIT_CYCLE,
        async_engine.OUTCOME_EXHAUSTED: EXIT_EXHAUSTED,
    }[verdict.outcome]


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    source = g.resolve(args.source)
    with _output(args.out) as fh:
        report, audit = analysis.analyze(g, source)
        _emit(fh, {"classification": report.to_json_obj(),
                   "audit": audit.to_json_obj()})
    return EXIT_OK if report.window_ok and audit.all_ok else EXIT_VIOLATION


def _cmd_sweep(args) -> int:
    _check_positive("--jobs", args.jobs)
    analysis.check_sweep_args(args.n_max, args.jobs)
    with _output(args.out) as fh:
        summary = analysis.sweep(args.n_max, jobs=args.jobs)
        _emit(fh, summary.to_json_obj())
    return EXIT_OK if not summary.violations else EXIT_VIOLATION


def _cmd_sharp(args) -> int:
    result = analysis.find_sharp_example(args.n_max,
                                         target=(args.eccentricity, args.diameter))
    _emit(sys.stdout, result.to_json_obj())
    return EXIT_OK if result.target is not None else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other input error: exit 2 with one
    line on stderr."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="amflood",
        description="Simulate and verify amnesiac flooding on finite graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one flooding run, emit the trace")
    _add_graph_args(p_run)
    p_run.add_argument("--source", required=True, help="source node id or label")
    p_run.add_argument("--mode", default="sync",
                       help="sync (default) or async:NAME[,HOLD_CAP]")
    p_run.add_argument("--max-rounds", type=int, default=None,
                       help="round budget (default: 2n+2 sync, max(64, 2n+2) async)")
    p_run.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze",
                          help="classify a run and audit its trace")
    _add_graph_args(p_an)
    p_an.add_argument("--source", required=True, help="source node id or label")
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep",
                          help="verify every small connected graph exhaustively")
    p_sw.add_argument("--n-max", type=int, required=True, help="largest node count (<= 7)")
    p_sw.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=_cmd_sweep)

    p_sh = sub.add_parser("sharp",
                          help="search small graphs for runs attaining j = e+d+1")
    p_sh.add_argument("--n-max", type=int, default=8, help="largest node count (<= 8)")
    p_sh.add_argument("--eccentricity", type=int, default=2,
                      help="target source eccentricity")
    p_sh.add_argument("--diameter", type=int, default=4, help="target diameter")
    p_sh.set_defaults(func=_cmd_sharp)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # GraphError and UnfairScheduleError included
        print(f"amflood: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
