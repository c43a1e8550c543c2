#!/usr/bin/env python3
"""Benchmark of amflood's verdicts, checked by an independent oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One workload runs in this one process, single-threaded. Each repetition
imports amflood afresh from the checkout's src/, sets up its input, and
produces the verdict's JSON text; repetitions go on while another one still
fits in --seconds, and at least one runs. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics (medians over the
repetitions); with --trace 1 one untraced repetition is followed by traced
ones, and the line carries the per-layer metrics. ``--workload all`` runs
every workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from oracle import CheckFailed
from spans import Spans, Untraced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# Set-up samples: at least this many, spanning at least this many seconds,
# because a 40-ms import switches between two speeds every few seconds.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 2.0

# Per-layer metric -> (unit, the span names it sums, or the count it reports).
LAYER_METRICS = {
    "graph.parse_s": ("s", ["graph.parse_edge_list"]),
    "graph.bfs_s": ("s", ["graph.distance_profile", "graph.ec_nodes", "graph.is_bipartite"]),
    "graph.diameter_s": ("s", ["graph.diameter"]),
    "analysis.enumerate_s": ("s", ["analysis.connected_graphs"]),
    "analysis.graphs": ("count", "analysis.graphs"),
    "analysis.audit_s": ("s", ["analysis.audit_trace"]),
    "sync_engine.run_s": ("s", ["sync_engine.run_sync"]),
    "sync_engine.runs": ("count", "sync_engine.runs"),
    "sync_engine.rounds": ("count", "sync_engine.rounds"),
    "sync_engine.sends": ("count", "sync_engine.sends"),
    "sync_engine.step_s": ("s", ["sync_engine.step"]),
    "sync_engine.to_json_s": ("s", ["sync_engine.Trace.to_json_obj"]),
    "async_engine.run_s": ("s", ["async_engine.run_async"]),
    "async_engine.rounds": ("count", "async_engine.rounds"),
    "async_engine.messages": ("count", "async_engine.messages"),
    "async_engine.to_json_s": ("s", ["async_engine.AsyncVerdict.to_json_obj"]),
    "jsonio.dumps_s": ("s", ["jsonio.dumps_stable"]),
    "jsonio.bytes": ("count", "jsonio.bytes"),
}
REPLAY = "sync_engine.step"  # extra work of the traced run, not part of a verdict


def fresh_amflood():
    """Import amflood from src/ as a new process would; returns the package
    and the seconds the import took."""
    for name in [m for m in sys.modules if m == "amflood" or m.startswith("amflood.")]:
        del sys.modules[name]
    t0 = perf_counter()
    am = importlib.import_module("amflood")
    importlib.import_module("amflood.jsonio")
    dt = perf_counter() - t0
    if Path(am.__file__).resolve().parent != SRC / "amflood":
        raise RuntimeError(f"imported amflood from {am.__file__}, not from {SRC}")
    return am, dt


def _setup(workload, inp, rec):
    """Fresh import plus the workload's setup; returns (package, state,
    seconds)."""
    gc.collect()
    am, t_import = fresh_amflood()
    t0 = perf_counter()
    st = workload.setup(am, rec, inp)
    return am, st, t_import + perf_counter() - t0


def _rep(workload, inp, op, rec):
    """One repetition: set-up, then ``op`` (the workload's verdict or traced
    method). Returns (setup seconds, op seconds, texts)."""
    am, st, t_setup = _setup(workload, inp, rec)
    t0 = perf_counter()
    texts = op(am, rec, st)
    return t_setup, perf_counter() - t0, texts


def _digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(texts):
        h.update(key.encode() + b"\0" + texts[key].encode() + b"\0")
    return h.hexdigest()


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload for about ``seconds`` and check its outputs; returns
    the result object printed as the last line and the run's details."""
    inp = workload.make_input(seed)
    setups: list[float] = []
    verdicts: list[float] = []
    layers: list[dict] = []
    digests: set[str] = set()
    checked: dict[str, str] | None = None
    attempted = failed = 0
    problems: list[str] = []
    spans_out = None
    peak_rss_mb = None

    start = perf_counter()
    longest = 0.0
    while True:
        # In the traced run the first repetition is untraced and gives the
        # verdict time that overhead and coverage are taken against.
        traced = trace and attempted > 0
        rec = Spans() if traced else Untraced()
        t0 = perf_counter()
        attempted += 1
        try:
            op = workload.traced if traced else workload.verdict
            t_setup, t_op, texts = _rep(workload, inp, op, rec)
        except CheckFailed as exc:
            problems.append(f"repetition {attempted}: {exc}")
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            failed += 1
            traceback.print_exc()
        else:
            if traced:
                layers.append(_layer_values(rec, t_op))
                spans_out = rec.to_json_obj()
            else:
                setups.append(t_setup)
                verdicts.append(t_op)
                checked = texts
                if peak_rss_mb is None:
                    # Peak through input and first repetition only, so it
                    # does not depend on how many repetitions fit.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digests.add(_digest(texts))
            del texts
        now = perf_counter()
        longest = max(longest, now - t0)
        if trace and not layers and attempted < 2:
            continue
        if now - start + longest > seconds:
            break
    while not trace and verdicts and (len(setups) < MIN_SETUPS
                                      or sum(setups) < MIN_SETUP_SECONDS):
        setups.append(_setup(workload, inp, Untraced())[2])

    if checked is None:
        problems.append("no repetition produced a verdict")
    elif trace and not layers:
        problems.append("no traced repetition completed")
    else:
        if len(digests) != 1:
            problems.append(f"repetitions emitted {len(digests)} different outputs")
        try:
            workload.check(inp, checked)
        except CheckFailed as exc:
            problems.append(str(exc))

    if trace:
        metrics = {}
        if layers and verdicts:
            for name, (unit, _src) in LAYER_METRICS.items():
                metrics[name] = {"value": statistics.median_low(v[name] for v in layers),
                                 "unit": unit}
            # Traced total and span sum exclude the step replay, which is
            # extra work; both are taken against the untraced verdict time.
            base = verdicts[0]
            metrics["trace.overhead_s"] = {
                "value": statistics.median(v["traced_s"] for v in layers) - base,
                "unit": "s"}
            metrics["trace.coverage"] = {
                "value": statistics.median(v["spans_s"] for v in layers) / base,
                "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"} if setups else None,
            "verdict_s": {"value": statistics.median(verdicts), "unit": "s"} if verdicts else None,
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"} if verdicts else None,
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
    result = {"correct": not problems and checked is not None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_samples": setups, "verdict_samples": verdicts,
              "problems": problems, "spans": spans_out, "result": result}
    return result, detail


def _layer_values(rec: Spans, t_op: float) -> dict:
    """Per-layer values of one traced repetition, plus its traced op time
    and the time its spans cover, both without the replay."""
    vals = {}
    for name, (unit, src) in LAYER_METRICS.items():
        if unit == "s":
            vals[name] = rec.total(*src)
        else:
            vals[name] = rec.counts.get(src, 0)
    replay = rec.total(REPLAY)
    vals["traced_s"] = t_op - replay
    vals["spans_s"] = sum(rec.seconds.values()) - replay - rec.total("graph.parse_edge_list")
    return vals


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "amflood" / "__init__.py").is_file():
        print(f"run.py: no amflood sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))

    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
