from __future__ import annotations

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amflood import sync_engine
from amflood.graph import Graph, GraphError, DisconnectedGraphError, gen_named, parse_edge_list
from amflood.jsonio import dumps_stable
from amflood.sync_engine import (InternalInvariantError, RoundBudgetError, Trace,
                                 round_multiplicity, run_sync, step)

from conftest import arcs_to_masks, connected_graph, masks_to_arcs

TRIANGLE = parse_edge_list("a b\nb c\nc a")  # a=0, b=1, c=2


def _json(trace: Trace) -> dict:
    """The trace's JSON document, read back from its bytes."""
    return json.loads(dumps_stable(trace.to_json_obj()))


def test_step_triangle_exchange():
    # after b floods, a and c answer each other
    out = step(TRIANGLE, frozenset({(1, 0), (1, 2)}))
    assert out == frozenset({(0, 2), (2, 0)})


def test_step_empty_is_absorbing():
    assert step(TRIANGLE, frozenset()) == frozenset()


def test_step_path_moves_outward():
    g = gen_named("path", 4)
    out = step(g, frozenset({(1, 0), (1, 2)}))
    assert out == frozenset({(2, 3)})


def test_step_rejects_non_edge():
    with pytest.raises(InternalInvariantError,
                       match=r"^in-flight arc \(0, 0\) is not an edge$"):
        step(TRIANGLE, frozenset({(0, 0)}))
    g = gen_named("path", 4)
    with pytest.raises(InternalInvariantError,
                       match=r"^in-flight arc \(0, 3\) is not an edge$"):
        step(g, frozenset({(0, 3)}))


@pytest.mark.parametrize("kind,param,source,expected_j", [
    ("hypercube", 3, 0, 3),
    ("hypercube", 3, 5, 3),
    ("petersen", None, 0, 5),
    ("petersen", None, 7, 5),
    ("path", 4, 1, 2),
    ("cycle", 5, 1, 5),
    ("cycle", 6, 1, 3),
])
def test_golden_termination_rounds(kind, param, source, expected_j):
    g = gen_named(kind, param) if param else gen_named(kind)
    assert run_sync(g, source).termination_round == expected_j


def test_triangle_returns_to_source():
    t = run_sync(TRIANGLE, 1)
    assert t.termination_round == 3
    assert t.round_sets[3] == frozenset({1})
    assert t.round_sets[0] == frozenset({1})


def test_round_set_recurrence():
    # R_i is exactly the receivers of the round-i sends
    t = run_sync(gen_named("petersen"), 2)
    for i in range(1, t.termination_round + 1):
        assert t.round_sets[i] == frozenset(v for _, v in t.rounds[i - 1])


def test_multiplicity_even_cycle_all_one():
    t = run_sync(gen_named("cycle", 6), 4)
    assert set(round_multiplicity(t).values()) == {1}


def test_multiplicity_triangle_all_two():
    t = run_sync(TRIANGLE, 1)
    assert round_multiplicity(t) == {0: 2, 1: 2, 2: 2}


def test_multiplicity_petersen_has_a_two():
    t = run_sync(gen_named("petersen"), 0)
    assert max(round_multiplicity(t).values()) == 2


def test_run_sync_rejects_bad_inputs():
    with pytest.raises(GraphError):
        run_sync(TRIANGLE, 17)
    with pytest.raises(DisconnectedGraphError):
        run_sync(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)


def test_run_sync_budget_is_hard_error():
    with pytest.raises(InternalInvariantError) as exc:
        run_sync(gen_named("cycle", 5), 0, max_rounds=2)
    assert exc.value.trace is not None  # partial trace for debugging


def test_run_sync_budget_error_carries_the_rounds_run():
    with pytest.raises(RoundBudgetError) as exc:
        run_sync(gen_named("cycle", 5), 0, max_rounds=2)
    assert len(exc.value.trace.rounds) == 2
    assert exc.value.trace.round_sets == (frozenset({0}), frozenset({1, 4}),
                                          frozenset({2, 3}))
    assert exc.value.trace.termination_round is None


def test_receipt_multiplicity_guard_fires(monkeypatch):
    # A kernel that also bounces each arc back for its first three rounds:
    # on the path 0-1 node 0 receives in rounds 0, 2 and 4, and the run
    # drains after 4 rounds, inside the 2n+2 budget.
    forward = sync_engine._forward
    calls = []

    def bouncing(g, inbox):
        if not any(inbox.values()):  # the source's start inbox goes through unchanged
            return forward(g, inbox)
        out = masks_to_arcs(g, forward(g, inbox))
        calls.append(inbox)
        if len(calls) <= 3:
            out = out | {(v, u) for u, v in masks_to_arcs(g, inbox)}
        return arcs_to_masks(g, out)

    monkeypatch.setattr(sync_engine, "_forward", bouncing)
    with pytest.raises(InternalInvariantError,
                       match="node 0 received in 3 distinct round-sets") as exc:
        run_sync(gen_named("path", 2), 0)
    assert not isinstance(exc.value, RoundBudgetError)
    assert exc.value.trace.round_sets == (frozenset({0}), frozenset({1}), frozenset({0}),
                                          frozenset({1}), frozenset({0}))
    assert exc.value.trace.termination_round == 4  # the full trace of a finished run


def test_run_sync_runs_with_the_callers_collector(monkeypatch):
    forward = sync_engine._forward
    seen = []

    def recording(g, config):
        seen.append(gc.isenabled())
        return forward(g, config)

    monkeypatch.setattr(sync_engine, "_forward", recording)
    g = gen_named("petersen")
    assert gc.isenabled()
    run_sync(g, 0)
    gc.disable()
    try:
        run_sync(g, 0)
    finally:
        gc.enable()
    assert seen == [True] * 6 + [False] * 6


def test_trace_json_pauses_the_collector():
    # The collector need not be paused while the builder runs: it writes every
    # send as text, so what it leaves for the cyclic collector grows with the
    # rounds, not the sends. The builder that made a list per send added
    # thousands of tracked objects here.
    trace = run_sync(gen_named("hypercube", 10), 0)
    assert trace.total_sends == 5120
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        obj = trace.to_json_obj()
        added = len(gc.get_objects()) - before
        del obj
    finally:
        gc.enable()
    assert added <= len(trace.inboxes) + 8, added


def test_collector_is_restored_after_a_budget_error():
    with pytest.raises(RoundBudgetError):
        run_sync(gen_named("cycle", 5), 0, max_rounds=1)
    assert gc.isenabled()


def test_collector_disabled_by_the_caller_stays_disabled():
    gc.disable()
    try:
        trace = run_sync(gen_named("cycle", 5), 0)
        assert not gc.isenabled()
        trace.to_json_obj()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_trace_json_peak_memory_is_bounded():
    # The builder writes each round's sends as text, so the run, the text it
    # becomes and its bytes together stay under three times the bytes. The
    # builder that made a list per send peaked at about 16 times.
    g = gen_named("hypercube", 12)
    dumps_stable(run_sync(g, 0).to_json_obj())  # builds the graph's cached rev and BFS first
    tracemalloc.start()
    try:
        text = dumps_stable(run_sync(g, 0).to_json_obj())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 300_000
    assert peak < 3 * len(text), peak / len(text)


def test_single_node_graph_terminates_immediately():
    t = run_sync(Graph(n=1, edges=()), 0)
    assert t.termination_round == 0
    assert t.round_sets == (frozenset({0}),)


def test_deterministic_repeat():
    g = gen_named("petersen")
    assert run_sync(g, 3) == run_sync(g, 3)


def test_total_sends_accounting():
    t = run_sync(gen_named("hypercube", 3), 0)
    assert t.total_sends == sum(len(c) for c in t.rounds)


@settings(max_examples=100, deadline=None)
@given(connected_graph())
def test_terminates_below_bound_with_multiplicity_at_most_two(g):
    for source in range(g.n):
        t = run_sync(g, source)
        assert t.termination_round < 2 * g.n + 1
        assert max(round_multiplicity(t).values()) <= 2


def test_exhaustive_small_graphs_terminate():
    from amflood.analysis import connected_graphs
    for n in range(2, 6):
        for g in connected_graphs(n):
            for source in range(n):
                t = run_sync(g, source)
                assert t.termination_round < 2 * n + 1


def _apply_automorphism(trace_rounds, pi):
    return [frozenset((pi[u], pi[v]) for u, v in c) for c in trace_rounds]


@settings(max_examples=100, deadline=None)
@given(connected_graph())
def test_trace_json_and_sends_agree_with_the_derived_rounds(g):
    for source in range(g.n):
        trace = run_sync(g, source)
        assert _json(trace)["rounds"] == [[list(a) for a in sorted(c)]
                                          for c in trace.rounds]
        assert trace.total_sends == sum(map(len, trace.rounds))


def test_trace_json_lists_a_send_with_no_sender_the_round_before():
    # On the path 0-1-2 from 0, round 1 also records the send 1 -> 2,
    # although 1 received nothing in round 0.
    g = gen_named("path", 3)
    trace = Trace(g, 0, ({0: 0}, {1: 0b01, 2: 0b1}, {2: 0b1}), 2)
    obj = _json(trace)
    assert obj["rounds"] == [[[0, 1], [1, 2]], [[1, 2]]]
    assert obj["round_sets"] == [[0], [1, 2], [2]]
    assert trace.total_sends == 3


def test_trace_equivariance_cycle_reflection():
    n = 7
    g = gen_named("cycle", n)
    pi = [(-v) % n for v in range(n)]  # reflection fixing node 0
    t = run_sync(g, 0)
    assert _apply_automorphism(t.rounds, pi) == list(t.rounds)


def test_trace_equivariance_hypercube_bit_swap():
    g = gen_named("hypercube", 3)
    # swapping bits 0 and 2 is an automorphism fixing node 0
    pi = [((v & 1) << 2) | (v & 2) | (v >> 2 & 1) for v in range(8)]
    t = run_sync(g, 0)
    assert _apply_automorphism(t.rounds, pi) == list(t.rounds)


def test_trace_json_shape():
    t = run_sync(TRIANGLE, 1)
    obj = _json(t)
    assert set(obj) == {"source", "rounds", "round_sets", "termination_round"}
    assert obj["rounds"][0] == [[1, 0], [1, 2]]
    assert obj["round_sets"][0] == [1]
    for rnd in obj["rounds"]:
        assert rnd == sorted(rnd)  # arc lists sorted for byte-stable output


# ------------------------------------------- the mask kernel, independently

def _double_cover_layers(g, source):
    """Round-sets by the double cover: R_t is the set of nodes v whose copy
    (v, t mod 2) lies at distance t from (source, 0) in G x K2."""
    dist = {(source, 0): 0}
    frontier = [(source, 0)]
    layers = [{source}]
    while frontier:
        nxt = []
        for v, side in frontier:
            for w in g.adj[v]:
                if (w, 1 - side) not in dist:
                    dist[w, 1 - side] = len(layers)
                    nxt.append((w, 1 - side))
        if nxt:
            layers.append({v for v, _ in nxt})
        frontier = nxt
    return [frozenset(layer) for layer in layers]


def _arc_rounds(g, source):
    """Every round's sends by the arc-set rule: each receiver sends to every
    neighbour that did not just send to it."""
    config = frozenset((source, w) for w in g.adj[source])
    rounds = []
    while config:
        rounds.append(config)
        senders: dict[int, set[int]] = {}
        for u, v in config:
            senders.setdefault(v, set()).add(u)
        config = frozenset((v, w) for v, us in senders.items()
                           for w in g.adj[v] if w not in us)
    return rounds


def _check_against_references(g, source):
    trace = run_sync(g, source)
    assert list(trace.round_sets) == _double_cover_layers(g, source)
    assert list(trace.rounds) == _arc_rounds(g, source)
    for config, nxt in zip(trace.rounds, trace.rounds[1:] + (frozenset(),)):
        assert step(g, config) == nxt


@settings(max_examples=150, deadline=None)
@given(connected_graph(max_n=40, max_extra=60), st.data())
def test_kernel_matches_double_cover_and_arc_rule(g, data):
    _check_against_references(g, data.draw(st.integers(0, g.n - 1)))


def test_kernel_matches_references_on_a_long_ladder():
    # 10^4 nodes in 5,000 rungs, each square split by a diagonal whose
    # direction alternates; flooding from a corner runs 5,000 rounds.
    n = 10_000
    edges = []
    for i in range(0, n, 2):
        edges.append((i, i + 1))
        if i + 2 < n:
            edges += [(i, i + 2), (i + 1, i + 3), (i, i + 3) if i % 4 else (i + 1, i + 2)]
    _check_against_references(Graph.from_edges(n, edges), 0)


@settings(max_examples=80, deadline=None)
@given(connected_graph(max_n=40, max_extra=60))
def test_reverse_positions_point_back(g):
    for v, nbrs in enumerate(g.adj):
        assert len(g.rev[v]) == len(nbrs)
        for i, w in enumerate(nbrs):
            assert g.adj[w][g.rev[v][i]] == v
