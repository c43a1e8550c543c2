"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and then
asserts. All value tolerances are exact.
"""

from __future__ import annotations

import time

from amflood import cli
from amflood.analysis import classify, sweep
from amflood.async_engine import (OUTCOME_CYCLE, OUTCOME_TERMINATED,
                                  HoldSecondSenderAdversary, ZeroDelayAdversary,
                                  run_async)
from amflood.graph import gen_named, gen_random, is_bipartite
from amflood.jsonio import dumps_stable
from amflood.sync_engine import run_sync

from conftest import sharp_search_n8

GOLDEN_RUNS = [
    # graph kind, param, source, expected termination round
    ("hypercube", 3, 0, 3),
    ("hypercube", 3, 6, 3),
    ("petersen", None, 0, 5),
    ("petersen", None, 9, 5),
    ("path", 4, 1, 2),          # inner node adjacent to an end
    ("cycle", 3, 0, 3),
    ("cycle", 3, 2, 3),
    ("cycle", 5, 0, 5),
    ("cycle", 6, 0, 3),
]


def _named(kind, param):
    return gen_named(kind, param) if param else gen_named(kind)


def _report(num: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {num} ({title}): {status}")
    assert not failures, failures


def test_criterion_1_golden_termination_rounds():
    failures = []
    for kind, param, source, expected in GOLDEN_RUNS:
        g = _named(kind, param)
        best = min(_timed_run(g, source) for _ in range(5))
        j = run_sync(g, source).termination_round
        if j != expected:
            failures.append(f"{kind}:{param} source {source}: j={j} != {expected}")
        if best >= 1e-3:
            failures.append(f"{kind}:{param} source {source}: {best * 1e3:.2f} ms")
    # the triangle's source receives its own message back in round 3
    for source in range(3):
        t = run_sync(gen_named("cycle", 3), source)
        receipts = [i for i, rs in enumerate(t.round_sets) if source in rs]
        if receipts != [0, 3]:
            failures.append(f"triangle source {source} receipts {receipts}")
    _report(1, "golden termination rounds", failures)


def _timed_run(g, source) -> float:
    t0 = time.perf_counter()
    run_sync(g, source)
    return time.perf_counter() - t0


def test_criterion_2_exhaustive_sweep_n6():
    t0 = time.perf_counter()
    s = sweep(6, jobs=2)
    elapsed = time.perf_counter() - t0
    failures = []
    if s.violations:
        failures.append(f"{len(s.violations)} violations, first: "
                        f"{s.violations[0].to_json_obj()}")
    if s.graphs != 27475 or s.runs != 164030:
        failures.append(f"unexpected enumeration size {s.graphs}/{s.runs}")
    if s.max_termination_round >= 2 * 6 + 1:
        failures.append(f"max j {s.max_termination_round} touches the bound")
    if s.j_minus_e_histogram[0] != s.bipartite_runs:
        failures.append("j==e bucket does not match the bipartite run count")
    if elapsed >= 120:
        failures.append(f"sweep took {elapsed:.1f}s")
    _report(2, "exhaustive sweep n_max=6", failures)


def test_criterion_3_cross_oracle_on_random_graphs():
    failures = []
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        n = 4 + seed % 27              # 4..30
        p = (0.15, 0.3, 0.6)[seed % 3]
        g = gen_random(n, p, seed)
        if not g.connected:
            continue
        checked += 1
        source = seed % n
        j = run_sync(g, source).termination_round
        from amflood.graph import distance_profile
        e = distance_profile(g, source).eccentricity
        if (j == e) != is_bipartite(g).bipartite:
            failures.append(f"disagreement at n={n} p={p} seed={seed}")
    _report(3, "flooding vs coloring oracle on 1000 random graphs", failures)


def test_criterion_4_sharpness_search():
    failures = []
    r = sharp_search_n8()
    w = r.target
    if w is None:
        failures.append(f"no (e=2,d=4) witness found up to n={r.n_searched}; "
                        f"frontier: {sorted(r.frontier)}")
    else:
        got = (w.eccentricity, w.diameter, w.termination_round)
        if got != (2, 4, 7):
            failures.append(f"target witness has (e,d,j)={got}")
        rep = classify(w.graph, w.source)
        if (rep.eccentricity, rep.diameter, rep.termination_round) != (2, 4, 7):
            failures.append("target witness does not reproduce under classify")
    tri, c5 = r.canonical
    if not (tri.is_sharp and (tri.eccentricity, tri.diameter,
                              tri.termination_round) == (1, 1, 3)):
        failures.append("triangle witness missing or wrong")
    if not (c5.is_sharp and (c5.eccentricity, c5.diameter,
                             c5.termination_round) == (2, 2, 5)):
        failures.append("5-cycle witness missing or wrong")
    for key in ((1, 1), (2, 2)):
        if key not in r.frontier:
            failures.append(f"frontier missing {key}")
    _report(4, "sharpness witness search", failures)


def test_criterion_5_async_non_termination_and_zero_delay():
    failures = []
    for source in range(3):
        v = run_async(gen_named("cycle", 3), source, HoldSecondSenderAdversary(),
                      max_rounds=16)
        if v.outcome != OUTCOME_CYCLE:
            failures.append(f"triangle source {source}: outcome {v.outcome}")
            continue
        # soundness replay: the recorded extra period repeats the cycle exactly
        first, period = v.first_seen, v.period
        if first + 2 * period - 1 > len(v.rounds):
            failures.append("record does not contain a full replayed period")
        for k in range(period):
            a = v.rounds[first - 1 + k]
            b = v.rounds[first - 1 + period + k]
            if a.pool != b.pool or a.held != b.held or a.receipts != b.receipts:
                failures.append(f"replay diverged at offset {k}")
                break
    for kind, param, source, _ in GOLDEN_RUNS:
        g = _named(kind, param)
        v = run_async(g, source, ZeroDelayAdversary())
        if v.outcome != OUTCOME_TERMINATED:
            failures.append(f"zero-delay on {kind}:{param} did not terminate")
            continue
        if (dumps_stable(v.to_sync_trace().to_json_obj())
                != dumps_stable(run_sync(g, source).to_json_obj())):
            failures.append(f"zero-delay trace differs on {kind}:{param}")
    _report(5, "async non-termination and zero-delay equivalence", failures)


def test_criterion_6_byte_identical_reruns(capsys):
    commands = [
        ["run", "--named", "petersen", "--source", "0"],
        ["run", "--named", "cycle:3", "--source", "1", "--mode", "async:fig6"],
        ["run", "--random", "16,0.3,42", "--source", "5"],
        ["analyze", "--named", "cycle:5", "--source", "2"],
        ["sweep", "--n-max", "4", "--jobs", "1"],
    ]
    failures = []
    for argv in commands:
        outs = []
        codes = []
        for _ in range(2):
            codes.append(cli.main(list(argv)))
            outs.append(capsys.readouterr().out)
        if outs[0] != outs[1] or codes[0] != codes[1]:
            failures.append(f"rerun of {' '.join(argv)} differed")
    # job count must not change sweep bytes either
    cli.main(["sweep", "--n-max", "5", "--jobs", "1"])
    one = capsys.readouterr().out
    cli.main(["sweep", "--n-max", "5", "--jobs", "8"])
    eight = capsys.readouterr().out
    if one != eight:
        failures.append("sweep bytes depend on job count")
    with capsys.disabled():
        _report(6, "byte-identical reruns", failures)
