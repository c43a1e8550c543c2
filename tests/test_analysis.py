from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from amflood import analysis, graph, sync_engine
from amflood.analysis import (AUDIT_CHECKS, BIPARTITE_EXACT, NONBIPARTITE_WINDOW,
                              _audit, analyze, audit_trace, classify,
                              connected_graphs, find_sharp_example, sweep)
from amflood.graph import (DisconnectedGraphError, _bfs, diameter, distance_profile,
                           gen_named, is_bipartite, parse_edge_list)
from amflood.jsonio import dumps_stable
from amflood.sync_engine import InternalInvariantError, round_multiplicity, run_sync

from conftest import arcs_to_masks, connected_graph, masks_to_arcs, sharp_search_n8

TRIANGLE = parse_edge_list("a b\nb c\nc a")

# connected labeled graph counts, a well-known enumeration sequence
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def _digest(result) -> str:
    return hashlib.sha256(dumps_stable(result.to_json_obj()).encode()).hexdigest()


# ------------------------------------------------------------ classification

def test_classify_hypercube():
    rep = classify(gen_named("hypercube", 3), 0)
    assert (rep.bipartite, rep.eccentricity, rep.diameter,
            rep.termination_round) == (True, 3, 3, 3)
    assert rep.window_ok and rep.theorem_applied == BIPARTITE_EXACT


def test_classify_petersen_hits_window_boundary():
    rep = classify(gen_named("petersen"), 0)
    assert (rep.bipartite, rep.eccentricity, rep.diameter,
            rep.termination_round) == (False, 2, 2, 5)
    assert rep.window_ok and rep.theorem_applied == NONBIPARTITE_WINDOW
    assert rep.termination_round == rep.eccentricity + rep.diameter + 1


def test_classify_triangle():
    rep = classify(TRIANGLE, TRIANGLE.resolve("b"))
    assert (rep.bipartite, rep.eccentricity, rep.diameter,
            rep.termination_round) == (False, 1, 1, 3)
    assert rep.window_ok


def test_classify_is_pure():
    g = gen_named("cycle", 5)
    assert classify(g, 2) == classify(g, 2)


# ------------------------------------------------------------------- audits

def test_audit_even_cycle_passes():
    g = gen_named("cycle", 6)
    t = run_sync(g, 1)
    audit = audit_trace(g, 1, t)
    assert audit.all_ok
    assert set(round_multiplicity(t).values()) == {1}


def test_audit_triangle_ec_second_receipt_round_two():
    b = TRIANGLE.resolve("b")
    t = run_sync(TRIANGLE, b)
    audit = audit_trace(TRIANGLE, b, t)
    assert audit.all_ok
    # a and c sit at distance 1 and exchange in round 2
    for v in (TRIANGLE.resolve("a"), TRIANGLE.resolve("c")):
        receipts = [i for i, rs in enumerate(t.round_sets) if v in rs]
        assert receipts[:2] == [1, 2]


def test_audit_names_are_stable():
    g = gen_named("path", 3)
    audit = audit_trace(g, 0, run_sync(g, 0))
    assert [c.name for c in audit.checks] == [
        "layer_containment", "frontier_sends", "ec_second_receipt",
        "single_visit_iff_no_ec", "neighbor_echo_window"]


def test_audit_exhaustive_small_graphs():
    for n in range(2, 6):
        for g in connected_graphs(n):
            for source in range(n):
                audit = audit_trace(g, source, run_sync(g, source))
                assert audit.all_ok, (g.edges, source, audit.failures)


@settings(max_examples=60, deadline=None)
@given(connected_graph())
def test_audit_random_graphs(g):
    for source in range(g.n):
        assert audit_trace(g, source, run_sync(g, source)).all_ok


def test_audit_trace_rejects_a_trace_of_another_graph():
    trace = run_sync(gen_named("cycle", 5), 0)
    with pytest.raises(ValueError, match="^trace was recorded on another graph$"):
        audit_trace(gen_named("path", 5), 0, trace)
    # an equal graph built separately is the same graph
    assert audit_trace(gen_named("cycle", 5), 0, trace).all_ok


def test_audit_trace_rejects_a_trace_from_another_source():
    g = gen_named("cycle", 5)
    with pytest.raises(ValueError, match="^trace was recorded from source 0, not 1$"):
        audit_trace(g, 1, run_sync(g, 0))


def test_audit_flags_an_early_receipt_the_other_checks_miss():
    # A triangle 0-1-2 with node 3 hung on 2, flooded from 0. Node 3 (distance
    # 2) also hears from 2 in round 1 and not in round 3: its receipts move to
    # rounds 1 and 2, every send the other four checks read is still there,
    # and only its first receipt is out of its layer.
    g = parse_edge_list("0 1\n0 2\n1 2\n2 3")
    inboxes = list(run_sync(g, 0).inboxes)
    inboxes[1] = {**inboxes[1], **sync_engine._inbox(g, [(2, 3)])}
    inboxes[3] = {v: m for v, m in inboxes[3].items() if v != 3}
    audit = audit_trace(g, 0, sync_engine.Trace(g, 0, tuple(inboxes), 3))
    assert [(c.name, c.node, c.round, c.detail) for c in audit.failures] == [
        ("layer_containment", 3, 1, "first receipt of 3 at 1, distance 2")]


def test_audit_flags_single_receipts_on_a_graph_with_ec_nodes():
    # the triangle from 0 cut after round 1: nodes 1 and 2 share a distance
    # yet neither hears a second time
    g = gen_named("cycle", 3)
    trace = sync_engine.Trace(g, 0, ({0: 0}, sync_engine._inbox(g, [(0, 1), (0, 2)])), 1)
    checks = {c.name: c for c in audit_trace(g, 0, trace).failures}
    assert checks["single_visit_iff_no_ec"].detail == (
        "ec nodes exist (1) but every node received exactly once")


def test_audit_names_the_first_missed_frontier_send_in_edge_order():
    # from source 3, round 1 reaches 0 but not 1, so the frontier edges 3-1
    # and 0-2 both miss their send; edge order names (0,2) first, where the
    # order of the farther node would name (1,3)
    g = graph.Graph(4, ((0, 2), (0, 3), (1, 3)))
    audit = audit_trace(g, 3, sync_engine.Trace(g, 3, ({3: 0}, {0: 0b10}), 1))
    check = next(c for c in audit.failures if c.name == "frontier_sends")
    assert (check.node, check.round, check.detail) == (
        0, 2, "edge (0,2) carried no send in round 2")


def test_audit_does_not_read_the_kernels_reverse_table():
    # a correct run, audited after the table that set each send's bit is
    # scrambled: the audit reads bit positions from the adjacency lists alone
    g = gen_named("petersen")
    trace = run_sync(g, 0)
    object.__setattr__(g, "rev", tuple(r[::-1] for r in g.rev))
    assert g.rev != gen_named("petersen").rev
    assert audit_trace(g, 0, trace).all_ok


def test_audit_trace_rejects_a_disconnected_graph():
    g = parse_edge_list("0 1\n2 3")
    with pytest.raises(DisconnectedGraphError, match="^the audit needs a connected graph$"):
        audit_trace(g, 0, sync_engine.Trace(g, 0, ({0: 0}, {1: 1}), 1))


def test_analyze_combines_both_views():
    rep, audit = analyze(gen_named("petersen"), 4)
    assert rep.window_ok and audit.all_ok


def test_sweep_audit_inputs_and_analyze_match_public_oracles():
    # every connected labeled graph with n <= 5, every source: the sweep's
    # audit of _flood's run, on its own BFS row, equals the public audit of
    # run_sync's trace, and analyze's facts equal the oracles
    for n in range(1, 6):
        for g in connected_graphs(n):
            diam, bip = diameter(g), is_bipartite(g).bipartite
            for s in range(n):
                audit = dumps_stable(audit_trace(g, s, run_sync(g, s)).to_json_obj())
                inboxes, receipts = sync_engine._flood(g, s)
                swept = _audit(g, inboxes, receipts, _bfs(g, s))
                assert dumps_stable(swept.to_json_obj()) == audit
                rep, analyzed = analyze(g, s)
                assert (rep.eccentricity, rep.diameter, rep.bipartite) == (
                    distance_profile(g, s).eccentricity, diam, bip)
                assert dumps_stable(analyzed.to_json_obj()) == audit


def test_each_fact_once_per_graph(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(analysis, "_bfs", counted("bfs", analysis._bfs))
    monkeypatch.setattr(analysis, "is_bipartite", counted("bipartite", analysis.is_bipartite))
    # one BFS per edge mask for n = 2..4 (the connectivity check) plus one per
    # other node of each of the 43 connected graphs, and one coloring each
    sweep(4)
    assert calls == {"bfs": 197, "bipartite": 43}
    calls.clear()
    # the search reads no bipartiteness; its two checks are the canonical runs',
    # whose two analyses each run one BFS from the source
    find_sharp_example(4)
    assert calls == {"bfs": 197 + 2, "bipartite": 2}


def test_analyze_runs_one_bfs_from_the_source(monkeypatch):
    # on a fresh Petersen graph: the engine's connectivity check from node 0,
    # one BFS from the source that the audit and e share, and diameter's ten
    calls = []
    bfs = graph._bfs

    def counted(g, source):
        calls.append(source)
        return bfs(g, source)

    monkeypatch.setattr(graph, "_bfs", counted)
    monkeypatch.setattr(analysis, "_bfs", counted)
    analyze(gen_named("petersen"), 4)
    assert calls == [0, 4, *range(10)]


# -------------------------------------------------------------------- sweep

def test_sweep_counts_and_zero_violations_n3():
    s = sweep(3)
    assert s.graphs == CONNECTED_LABELED[2] + CONNECTED_LABELED[3]
    assert s.runs == 2 * CONNECTED_LABELED[2] + 3 * CONNECTED_LABELED[3]
    assert s.violations == ()
    # the three labeled paths are bipartite (j = e), the triangle is not
    assert s.j_minus_e_histogram[0] == s.bipartite_runs


def test_sweep_n5_zero_violations():
    s = sweep(5)
    assert s.violations == ()
    assert s.graphs == sum(CONNECTED_LABELED[n] for n in range(2, 6))
    assert s.runs == sum(n * CONNECTED_LABELED[n] for n in range(2, 6))
    assert s.max_termination_round < 2 * 5 + 1
    # pinned bytes of the whole summary
    assert s.j_minus_e_histogram == {0: 1062, 1: 1316, 2: 764, 3: 544, 4: 120}
    assert s.max_termination_round == 7
    assert _digest(s) == "32e4a09928a7168022f717b016b6e4f07ba1d04fece8b8036aeb4a54e96c928a"


def test_sweep_bipartite_runs_equal_zero_bucket():
    s = sweep(4)
    # independent cross-tab: count bipartite runs with the coloring oracle
    expected = sum(n for n in range(2, 5) for g in connected_graphs(n)
                   if is_bipartite(g).bipartite)
    assert s.bipartite_runs == expected
    assert s.j_minus_e_histogram[0] == expected


def test_sweep_parallel_is_byte_identical():
    from amflood.jsonio import dumps_stable
    a = dumps_stable(sweep(5, jobs=1).to_json_obj())
    b = dumps_stable(sweep(5, jobs=4).to_json_obj())
    assert a == b


def test_sweep_reports_a_faulty_kernel(monkeypatch):
    # Drop one arc from every round's sends: the sweep must flag it, naming
    # the check and carrying the trace.
    forward = sync_engine._forward

    def dropping(g, inbox):
        if not any(inbox.values()):  # the source's start inbox goes through unchanged
            return forward(g, inbox)
        out = masks_to_arcs(g, forward(g, inbox))
        return arcs_to_masks(g, out - {max(out)} if out else out)

    monkeypatch.setattr(sync_engine, "_forward", dropping)
    s = sweep(4, jobs=1)
    assert s.violations
    names = {"engine_invariant", "termination_bound", "termination_window",
             *(f"audit:{c}" for c in AUDIT_CHECKS)}
    for v in s.violations:
        assert v.check in names
        assert v.trace is not None
    assert {v.check for v in s.violations} >= {"termination_window",
                                                "audit:layer_containment"}
    # pinned bytes of the whole summary, violations and their traces included
    assert _digest(s) == "c2d733c95f4f8e015f13f7500d57828bfdc3a007c9e648c0f0fce194c1a6700e"


def test_sweep_reports_a_kernel_that_loses_round_one(monkeypatch):
    # Round 1 comes from the kernel too: a kernel that sends nothing from the
    # source's start inbox ends every run at round 0, which the sweep must
    # flag on every run and run_sync must show.
    forward = sync_engine._forward

    def silent_start(g, inbox):
        return {} if not any(inbox.values()) else forward(g, inbox)

    monkeypatch.setattr(sync_engine, "_forward", silent_start)
    s = sweep(3, jobs=1)
    assert s.runs == 14
    assert {(v.edges, v.source) for v in s.violations} == {
        (g.edges, source) for n in (2, 3) for g in connected_graphs(n) for source in range(n)}
    assert run_sync(gen_named("cycle", 5), 0).termination_round == 0


def test_sweep_reports_a_run_past_the_termination_bound(monkeypatch):
    # No run ends past round 2n-3 (see the check's proof), so pad each run
    # with empty rounds, which no node receives in and so pass the
    # multiplicity guard, to end it at j = 2n-3+over: 2n+1 is past all that
    # _flood's own guards allow, 2n-2 the first round the bound rejects.
    flood = sync_engine._flood
    for over in (4, 1):
        def padded(g, source):
            inboxes = flood(g, source)[0]
            inboxes += [{}] * (2 * g.n - 2 + over - len(inboxes))
            return inboxes, sync_engine._receipts(g.n, inboxes)

        monkeypatch.setattr(analysis, "_flood", padded)
        s = sweep(3)
        bound = [(v.n, v.source, v.detail) for v in s.violations
                 if v.check == "termination_bound"]
        assert bound == [(n, source, f"j={2 * n - 3 + over} over 2n-3={2 * n - 3}")
                         for n in (2, 3) for _ in connected_graphs(n) for source in range(n)]


def _bounce_every_send(monkeypatch):
    # A kernel that answers every send with its reverse never drains, so
    # every run stops in the middle at the 2n+2 guard.
    forward = sync_engine._forward

    def bouncing(g, inbox):
        if not any(inbox.values()):  # the source's start inbox goes through unchanged
            return forward(g, inbox)
        return arcs_to_masks(g, {(v, u) for u, v in masks_to_arcs(g, inbox)})

    monkeypatch.setattr(sync_engine, "_forward", bouncing)


def test_sweep_keeps_the_trace_of_a_mid_run_error(monkeypatch):
    # Each violation must carry the partial trace up to the guard.
    _bounce_every_send(monkeypatch)
    s = sweep(3, jobs=1)
    assert len(s.violations) == s.runs == 14
    for v in s.violations:
        assert v.check == "engine_invariant"
        assert v.detail == f"still active after {2 * v.n + 2} rounds on n={v.n}"
        assert v.trace is not None
        trace = json.loads(dumps_stable(v.trace))
        assert trace["termination_round"] is None
        assert len(trace["rounds"]) == 2 * v.n + 2
        assert trace["rounds"][-1] == sorted([w, u] for u, w in trace["rounds"][-2])


def test_sweep_violation_traces_cross_the_worker_boundary(monkeypatch):
    # A violation's trace holds its rounds as pre-encoded text, which the
    # worker pickles back to the parent: the bytes must not depend on jobs.
    _bounce_every_send(monkeypatch)
    one = sweep(3, jobs=1)
    text = dumps_stable(one.to_json_obj())
    assert len(one.violations) == 14
    assert dumps_stable(pickle.loads(pickle.dumps(one)).to_json_obj()) == text
    two = sweep(3, jobs=2)
    assert dumps_stable(two.to_json_obj()) == text
    assert two == one  # an Encoded value compares by its text


class _PoolStarted(Exception):
    pass


def _no_pool(processes):
    # Stands in for multiprocessing.Pool: stops the sweep with the worker
    # count it asked for, so no process is ever started.
    raise _PoolStarted(processes)


@pytest.mark.parametrize("jobs, cpus, n_max, workers", [
    (100000, 64, 3, 2),      # n=2 and n=3 are one mask block each
    (100000, 64, 6, 12),     # n=6 adds eight blocks of 4096 masks
    (100000, 4, 6, 4),
    (3, 64, 6, 3),
    (100000, 1, 3, 1),
    (100000, None, 3, 1),    # CPU count unknown
    (2, 64, 2, 1),           # a single block
])
def test_sweep_starts_no_more_workers_than_it_can_use(monkeypatch, jobs, cpus,
                                                      n_max, workers):
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if workers == 1:
        assert sweep(n_max, jobs=jobs) == sweep(n_max)
    else:
        with pytest.raises(_PoolStarted) as exc:
            sweep(n_max, jobs=jobs)
        assert exc.value.args == (workers,)


def test_sweep_rejects_bad_n_max():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(8)
    with pytest.raises(ValueError, match="jobs"):
        sweep(3, jobs=0)


# ---------------------------------------------------------------- sharpness

def test_triangle_and_cycle5_attain_the_bound():
    for g, source in ((TRIANGLE, 1), (gen_named("cycle", 5), 0)):
        rep = classify(g, source)
        assert rep.termination_round == rep.eccentricity + rep.diameter + 1


def test_find_sharp_canonical_witnesses():
    r = find_sharp_example(4)
    tri, c5 = r.canonical
    assert (tri.graph.n, tri.eccentricity, tri.diameter,
            tri.termination_round) == (3, 1, 1, 3)
    assert (c5.graph.n, c5.eccentricity, c5.diameter,
            c5.termination_round) == (5, 2, 2, 5)
    assert tri.is_sharp and c5.is_sharp


def test_find_sharp_refuses_a_canonical_run_that_misses_the_bound(monkeypatch):
    def one_round_early(g, source):
        r = classify(g, source)
        return replace(r, termination_round=r.termination_round - 1)

    monkeypatch.setattr(analysis, "classify", one_round_early)
    with pytest.raises(InternalInvariantError,
                       match="^odd-cycle run missed the sharp bound$"):
        find_sharp_example(2)


def test_find_sharp_frontier_minimal_entries():
    r = find_sharp_example(5)
    assert r.frontier[(1, 1)].graph.edges == ((0, 1), (0, 2), (1, 2))
    # no graph below n=3 is non-bipartite, so nothing sharp exists there
    assert all(w.graph.n >= 3 for w in r.frontier.values())


def test_find_sharp_smallest_witness_has_four_nodes():
    r = find_sharp_example(5)
    w = r.smallest
    assert w is not None and w.graph.n == 4
    assert w.eccentricity < w.diameter
    # verify the witness the long way round
    rep = classify(w.graph, w.source)
    assert rep.termination_round == rep.eccentricity + rep.diameter + 1
    # and that no 3-node run can beat it
    for g in connected_graphs(3):
        for s in range(3):
            rep = classify(g, s)
            assert not (rep.eccentricity < rep.diameter and
                        rep.termination_round ==
                        rep.eccentricity + rep.diameter + 1)


def test_find_sharp_reaches_target_by_n6():
    r = sharp_search_n8()
    assert r.n_searched == 6
    w = r.target
    assert w is not None
    assert (w.eccentricity, w.diameter, w.termination_round) == (2, 4, 7)
    rep = classify(w.graph, w.source)
    assert (rep.eccentricity, rep.diameter, rep.termination_round) == (2, 4, 7)
    assert _digest(r) == "9e19a4ce1f91804ad91fe7cac6b3d701f22926ccfe91b8fd64ac8b4f9c951f6f"


def test_find_sharp_rejects_bad_n_max():
    for n_max in (1, 9):
        with pytest.raises(ValueError, match=f"^n_max must be between 2 and 8, got {n_max}$"):
            find_sharp_example(n_max)


@pytest.mark.parametrize("target", [(5, 2), (0, 3), (-1, -1), (3, 0)])
def test_find_sharp_refuses_a_target_no_graph_attains(monkeypatch, target):
    # 1 <= e <= d holds for every source of a graph with n >= 2, so such a
    # target is refused before a single graph is built
    def no_graphs(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(analysis, "_graphs", no_graphs)
    e, d = target
    with pytest.raises(ValueError, match=rf"^no graph has a source of eccentricity {e} "
                                         rf"and diameter {d}: "):
        find_sharp_example(8, target=target)


def test_find_sharp_absent_target_reports_frontier():
    # nothing with diameter 5 fits in 4 nodes; the frontier is the answer
    r = find_sharp_example(4, target=(2, 5))
    assert r.target is None
    assert r.n_searched == 4
    assert (1, 1) in r.frontier
    assert _digest(r) == "790a924f7420e2bfaa2c19fda974d6e885efab4c0ed5cef708b3267ce4ffc045"
