from __future__ import annotations

import functools

from hypothesis import strategies as st

from amflood.analysis import SharpSearchResult, find_sharp_example
from amflood.graph import Graph


@functools.cache
def sharp_search_n8() -> SharpSearchResult:
    """find_sharp_example(8) with its default target (2, 4), which stops after
    n = 6: the slowest search the tests read, run once per session."""
    return find_sharp_example(8, target=(2, 4))


@st.composite
def connected_graph(draw, min_n: int = 2, max_n: int = 8, max_extra: int = 10) -> Graph:
    """Random connected graph: a random attachment tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.add((j, i))
    extra = draw(st.integers(0, min(max_extra, n * (n - 1) // 2)))
    for _ in range(extra):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def masks_to_arcs(g: Graph, inbox: dict[int, int]) -> frozenset[tuple[int, int]]:
    """The (sender, receiver) arcs of a round inbox: bit i of v's mask is
    the neighbour at position i of v's sorted adjacency list."""
    return frozenset((w, v) for v, m in inbox.items()
                     for i, w in enumerate(g.adj[v]) if m >> i & 1)


def arcs_to_masks(g: Graph, arcs) -> dict[int, int]:
    """The round inbox receiving the sends ``arcs``."""
    inbox: dict[int, int] = {}
    for u, v in arcs:
        inbox[v] = inbox.get(v, 0) | 1 << g.adj[v].index(u)
    return inbox
