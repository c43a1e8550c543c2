from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

import amflood
from amflood.graph import (MAX_EDGES, MAX_NODES, DisconnectedGraphError, Graph,
                           GraphError, diameter,
                           distance_profile, gen_named, gen_random,
                           is_bipartite, parse_edge_list,
                           render_edge_list)

from conftest import connected_graph


# ---------------------------------------------------------------- parsing

def test_parse_numeric_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels is None


def test_parse_labeled_triangle():
    g = parse_edge_list("a b\nb c\nc a")
    assert g.n == 3 and g.m == 3
    assert g.labels == ("a", "b", "c")
    assert g.resolve("b") == 1


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("0 0")
    with pytest.raises(GraphError, match="line 3"):
        parse_edge_list("0 1\n1 2\nx x")


def test_parse_rejects_malformed_token_count():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("0 1\n0 1 2")


@pytest.mark.parametrize("text,message", [
    ("# c\n\n0 1\n2 2\n", "line 4: self-loop"),
    ("0 1\n# x\n\n1 2 3\n", "line 4: expected two endpoints, got 3"),
    ("a b\n# c\n\nb c\n  # d\nc c\n", "line 6: self-loop"),
    ("a b\r\n\x1cb  b\n", "line 3: self-loop"),
    ("1 2\n1 01\n", "line 2: self-loop"),  # one id written two ways
    ("0 0\n1 2 3\n", "line 2: expected two endpoints, got 3"),  # counts are checked first
    # more digits than int() converts (4,300 by default), read as an over-limit id
    pytest.param("0 1\n# x\n1 " + "1" * 5000 + "\n", "line 3: a node id of 5000 digits "
                 "is over the limit of 1000000 nodes", id="5000-digit-id"),
])
def test_parse_errors_name_the_line_behind_comments_and_blanks(text, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        parse_edge_list(text)


def test_parse_keeps_equal_looking_labels_apart():
    g = parse_edge_list("x 1\n1 01\n")  # label mode: "1" and "01" are two labels
    assert g.labels == ("x", "1", "01") and g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("lines,limit_mib", [
    (("0 1",) * 10**5, 8),  # the parser this replaced peaked at 16.4 MiB
    (tuple(f"{i} {i + 1}" for i in range(3 * 10**4)), 12),  # at 17.8 MiB
], ids=["one_edge_repeated", "distinct_path"])
def test_parse_peak_memory_is_bounded(lines, limit_mib):
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == len(set(lines))
    assert peak < limit_mib << 20, peak / 2**20


def test_parse_skips_comments_and_blanks_and_collapses_duplicates():
    g = parse_edge_list("# header\n\n0 1\n1 0\n 1 2 \n")
    assert g.n == 3 and g.m == 2


def test_parse_empty_rejected():
    with pytest.raises(GraphError):
        parse_edge_list("# nothing here\n")


def test_collector_is_restored_after_a_parse_error():
    with pytest.raises(GraphError):
        parse_edge_list("0 0\n")
    assert gc.isenabled()


def test_only_the_heap_filling_builders_pause_the_collector(monkeypatch):
    # The builders that normalize an edge list build their Graph with the
    # collector paused, restore it after, and leave a collector the caller
    # disabled as it was. gen_random builds its Graph directly, with the
    # caller's collector, and the package has one pause site.
    seen = []
    post_init = Graph.__post_init__

    def spy(self):
        seen.append(gc.isenabled())
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", spy)
    builds = {
        "parse_edge_list, numeric": lambda: parse_edge_list("0 1\n1 2\n"),
        "parse_edge_list, labels": lambda: parse_edge_list("a b\nb c\n"),
        "Graph.from_edges": lambda: Graph.from_edges(3, [(1, 0), (1, 2)]),
        "gen_named": lambda: gen_named("cycle", 5),
    }
    for caller_enabled in (True, False):
        if not caller_enabled:
            gc.disable()
        try:
            for name, build in builds.items():
                seen.clear()
                build()
                assert seen == [False], name
                assert gc.isenabled() is caller_enabled, name
            with pytest.raises(GraphError, match="self-loop"):  # raised inside the pause
                Graph.from_edges(3, [(0, 0)])
            assert gc.isenabled() is caller_enabled
            seen.clear()
            gen_random(5, 0.5, 1)
            assert seen == [caller_enabled]
        finally:
            gc.enable()
    package = Path(amflood.__file__).parent
    assert sum(path.read_text().count("gc.disable(") for path in package.glob("*.py")) == 1


def test_render_round_trip_is_id_identical():
    g = gen_named("petersen")
    back = parse_edge_list(render_edge_list(g))
    assert back.n == g.n and back.edges == g.edges


@settings(max_examples=60)
@given(connected_graph())
def test_render_round_trip_random(g):
    back = parse_edge_list(render_edge_list(g))
    assert back.n == g.n and back.edges == g.edges


@pytest.mark.parametrize("g", [Graph(3, ((0, 1),)), Graph(1, ())],
                         ids=["isolated_last", "one_node"])
def test_render_refuses_a_graph_whose_last_node_has_no_edge(g):
    # an edge list reads n as one more than its largest id, so this n is lost
    with pytest.raises(GraphError, match=rf"^node {g.n - 1} has no edge, "):
        render_edge_list(g)


def test_graph_validates_construction():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(GraphError):
        Graph(n=0, edges=())
    with pytest.raises(GraphError, match="self-loop at node 1"):
        Graph(n=3, edges=((0, 1), (1, 1)))
    with pytest.raises(GraphError, match="not normalized"):
        Graph(n=3, edges=((1, 0),))
    with pytest.raises(GraphError, match="sorted and unique"):
        Graph(n=3, edges=((1, 2), (0, 1)))
    with pytest.raises(GraphError, match="sorted and unique"):
        Graph(n=3, edges=((0, 1), (0, 1)))
    with pytest.raises(GraphError, match="labels"):
        Graph(n=3, edges=((0, 1), (1, 2)), labels=("a", "b"))


# ------------------------------------------------------------- generators

def test_hypercube3():
    g = gen_named("hypercube", 3)
    assert g.n == 8 and g.m == 12
    assert all(len(nbrs) == 3 for nbrs in g.adj)
    assert is_bipartite(g).bipartite


def test_petersen():
    g = gen_named("petersen")
    assert g.n == 10 and g.m == 15
    assert all(len(nbrs) == 3 for nbrs in g.adj)
    assert diameter(g) == 2
    assert not is_bipartite(g).bipartite


def test_cycle6():
    g = gen_named("cycle", 6)
    assert is_bipartite(g).bipartite
    assert diameter(g) == 3


@pytest.mark.parametrize("kind,param", [
    ("hypercube", 0), ("cycle", 2), ("path", 1), ("complete", 1),
    ("petersen", 3), ("cycle", None),
])
def test_generator_minimums(kind, param):
    with pytest.raises(GraphError):
        gen_named(kind, param)


@pytest.mark.parametrize("kind,param,match", [
    ("hypercube", 20, r"2\^20 nodes"), ("hypercube", 10**9, r"2\^1000000000 nodes"),
    ("cycle", 10**6 + 1, "1000001 nodes"), ("path", 10**6 + 1, "1000001 nodes"),
    ("complete", 4473, "10001628 edges"), ("complete", 10**6, "edges"),
])
def test_generator_rejects_sizes_over_the_limits(kind, param, match):
    with pytest.raises(GraphError, match=match):
        gen_named(kind, param)


def test_size_limits_are_checked_before_anything_is_built():
    with pytest.raises(GraphError, match="10001628 pair draws"):
        gen_random(4473, 0.5, 1)
    with pytest.raises(GraphError, match="4000000001 nodes"):
        parse_edge_list("0 1\n0 4000000000\n")
    with pytest.raises(GraphError, match="1000001 nodes"):
        Graph(n=MAX_NODES + 1, edges=())
    with pytest.raises(GraphError, match="10000001 edges"):
        Graph(n=2, edges=_Unbuilt(MAX_EDGES + 1))


class _Unbuilt:
    """An edge sequence that only knows its length."""

    def __init__(self, m):
        self.m = m

    def __len__(self):
        return self.m

    def __iter__(self):
        raise AssertionError("edges read before the size check")


def test_unknown_kind():
    with pytest.raises(GraphError):
        gen_named("torus", 3)


def test_gen_random_extremes():
    assert gen_random(5, 0.0, 9).m == 0
    k4 = gen_random(4, 1.0, 9)
    assert k4.m == 6


@pytest.mark.parametrize("n,p", [(0, 0.5), (-3, 0.5), (5, -0.1), (5, 1.5)])
def test_gen_random_rejects_bad_parameters(n, p):
    with pytest.raises(GraphError, match="need"):
        gen_random(n, p, 1)


def test_gen_random_deterministic():
    a = gen_random(20, 0.3, 42)
    b = gen_random(20, 0.3, 42)
    assert a.edges == b.edges
    assert gen_random(20, 0.3, 43).edges != a.edges


# 600 nodes, so most ids lie past CPython's cached small ints (-5..256), and
# each id is written in several lines, in both endpoint orders
_PAIRS = [(i * 7 % 600, (i * 7 + 1 + i % 3) % 600) for i in range(1800)]


@pytest.mark.parametrize("build", [
    lambda: parse_edge_list("".join(f"{u} {v}\n" for u, v in _PAIRS)),
    lambda: parse_edge_list("".join(f"v{u} v{v}\n" for u, v in _PAIRS)),
    lambda: gen_named("cycle", 1000),
    lambda: gen_random(600, 0.01, 3),
], ids=["parse_numeric", "parse_labels", "cycle_1000", "random_600"])
def test_constructors_share_one_int_object_per_node_id(build):
    def objects(g):
        ends = [x for e in g.edges for x in e] + [x for row in g.adj for x in row]
        return len(set(map(id, ends))), len(set(ends))

    g = build()
    assert g.n > 256
    held, distinct = objects(g)
    assert held == distinct
    # Graph(n, edges) keeps the caller's objects: fresh ints, one per
    # endpoint, give the same value, equality and hash with more objects
    fresh = Graph(g.n, tuple((int(str(u)), int(str(v))) for u, v in g.edges), g.labels)
    assert fresh == g and hash(fresh) == hash(g) and fresh.adj == g.adj
    assert objects(fresh)[0] > held


# ----------------------------------------------------------------- oracles

def test_distance_profile_path_end():
    g = gen_named("path", 4)
    prof = distance_profile(g, 0)
    assert prof.eccentricity == 3
    assert prof.dist == (0, 1, 2, 3)


def test_distance_profile_petersen():
    prof = distance_profile(gen_named("petersen"), 3)
    assert prof.eccentricity == 2
    assert sorted(prof.dist) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_distance_profile_cycle5():
    prof = distance_profile(gen_named("cycle", 5), 1)
    assert prof.eccentricity == 2
    assert prof.dist == (1, 0, 1, 2, 2)


def test_disconnected_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.connected
    with pytest.raises(DisconnectedGraphError):
        distance_profile(g, 0)
    with pytest.raises(DisconnectedGraphError):
        diameter(g)


def test_diameter_values():
    assert diameter(gen_named("hypercube", 3)) == 3
    assert diameter(gen_named("petersen")) == 2
    assert diameter(gen_named("complete", 5)) == 1


def test_bipartite_hypercube_coloring_is_bit_parity():
    res = is_bipartite(gen_named("hypercube", 3))
    assert res.bipartite
    parity = tuple(bin(v).count("1") & 1 for v in range(8))
    flipped = tuple(c ^ 1 for c in parity)
    assert res.coloring in (parity, flipped)


def test_bipartite_petersen_odd_cycle_witness():
    g = gen_named("petersen")
    res = is_bipartite(g)
    assert not res.bipartite
    cyc = res.odd_cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        assert (min(u, v), max(u, v)) in g.edges


# -------------------------------------------------------------- properties

@settings(max_examples=80)
@given(connected_graph())
def test_layers_partition_nodes(g):
    for source in range(g.n):
        prof = distance_profile(g, source)
        # every node sits in one layer 0..e, and no layer is empty
        assert set(prof.dist) == set(range(prof.eccentricity + 1))
        assert [v for v in range(g.n) if prof.dist[v] == 0] == [source]


@settings(max_examples=80)
@given(connected_graph())
def test_bipartite_iff_no_ec_nodes_every_source(g):
    bip = is_bipartite(g).bipartite
    for source in range(g.n):
        dist = distance_profile(g, source).dist
        assert bip == all(dist[u] != dist[v] for u, v in g.edges)


@settings(max_examples=60)
@given(connected_graph())
def test_diameter_is_max_eccentricity(g):
    assert diameter(g) == max(distance_profile(g, s).eccentricity
                              for s in range(g.n))


@settings(max_examples=150)
@given(connected_graph())
def test_bipartite_witness_is_valid(g):
    res = is_bipartite(g)
    if res.bipartite:
        assert all(res.coloring[u] != res.coloring[v] for u, v in g.edges)
        return
    cyc = res.odd_cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3
    assert len(set(cyc)) == len(cyc)
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        assert (min(u, v), max(u, v)) in g.edges


@settings(max_examples=80)
@given(connected_graph())
def test_adjacency_lists_are_sorted_neighbour_sets(g):
    for v in range(g.n):
        assert g.adj[v] == tuple(sorted({u for e in g.edges if v in e
                                         for u in e if u != v}))
