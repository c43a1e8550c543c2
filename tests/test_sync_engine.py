from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings

from amflood import sync_engine
from amflood.graph import Graph, GraphError, DisconnectedGraphError, gen_named, parse_edge_list
from amflood.sync_engine import (InternalInvariantError, RoundBudgetError, Trace,
                                 round_multiplicity, run_sync, step)

from conftest import connected_graph

TRIANGLE = parse_edge_list("a b\nb c\nc a")  # a=0, b=1, c=2


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
    with pytest.raises(InternalInvariantError):
        step(TRIANGLE, frozenset({(0, 0)}))
    g = gen_named("path", 4)
    with pytest.raises(InternalInvariantError):
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

    def bouncing(g, config):
        receivers, out = forward(g, config)
        calls.append(config)
        if len(calls) <= 3:
            out = out | {(v, u) for u, v in config}
        return receivers, out

    monkeypatch.setattr(sync_engine, "_forward", bouncing)
    with pytest.raises(InternalInvariantError,
                       match="node 0 received in 3 distinct round-sets") as exc:
        run_sync(gen_named("path", 2), 0)
    assert not isinstance(exc.value, RoundBudgetError)
    assert exc.value.trace.round_sets == (frozenset({0}), frozenset({1}), frozenset({0}),
                                          frozenset({1}), frozenset({0}))
    assert exc.value.trace.termination_round == 4  # the full trace of a finished run


def test_run_sync_pauses_the_collector(monkeypatch):
    forward = sync_engine._forward
    seen = []

    def recording(g, config):
        seen.append(gc.isenabled())
        return forward(g, config)

    monkeypatch.setattr(sync_engine, "_forward", recording)
    assert gc.isenabled()
    run_sync(gen_named("petersen"), 0)
    assert len(seen) == 5 and set(seen) == {False}
    assert gc.isenabled()


def test_trace_json_pauses_the_collector():
    seen = []

    class Probe(frozenset):
        def __iter__(self):
            seen.append(gc.isenabled())
            return super().__iter__()

    trace = Trace(2, 0, (Probe({(0, 1)}),), (Probe({0}), Probe({1})), 1)
    assert trace.to_json_obj()["round_sets"] == [[0], [1]]
    assert seen == [False, False, False]
    assert gc.isenabled()


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
    obj = t.to_json_obj()
    assert set(obj) == {"source", "rounds", "round_sets", "termination_round"}
    assert obj["rounds"][0] == [[1, 0], [1, 2]]
    assert obj["round_sets"][0] == [1]
    for rnd in obj["rounds"]:
        assert rnd == sorted(rnd)  # arc lists sorted for byte-stable output
