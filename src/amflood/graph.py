"""Undirected simple graphs plus the static oracles the flooding analyses use.

Nodes are dense integer ids 0..n-1 everywhere. String labels, when present,
live only at the I/O boundary (edge-list files, CLI source lookup); every
algorithm works on ids.
"""

from __future__ import annotations

import functools
import gc
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, count, repeat
from operator import add, floordiv, mod, mul, ne

Edge = tuple[int, int]

_MASK64 = (1 << 64) - 1

# The largest inputs accepted. Each is checked from the parameters alone,
# before anything is built, so an oversized request fails at once instead of
# allocating until memory runs out. gen_random makes one draw per node pair,
# so its limit caps n at 4,472.
MAX_NODES = 10**6
MAX_EDGES = 10**7
MAX_RANDOM_DRAWS = 10**7
# Characters of an edge-list file, enough for MAX_EDGES lines of two ids
# below MAX_NODES; a file is read only this far before it is refused.
MAX_EDGE_LIST_CHARS = 1 << 28


class GraphError(ValueError):
    """Invalid graph input: construction, parsing, or generator parameters."""


class DisconnectedGraphError(GraphError):
    """The operation needs a connected graph and the input is not one."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` holds normalized pairs (u < v), sorted and duplicate-free;
    ``adj`` is derived once at construction. Connectivity is deliberately not
    an invariant of the type: operations that need it check it themselves.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[str, ...] | None = None
    adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise GraphError(f"need at least one node, got n={n}")
        _check_size("graph", n, len(self.edges))
        if self.labels is not None and len(self.labels) != n:
            raise GraphError("labels must cover every node id")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        prev: Edge = (-1, -1)
        for e in self.edges:
            u, v = e
            if not (prev < e and 0 <= u < v < n):
                if u == v:
                    raise GraphError(f"self-loop at node {u}")
                if not 0 <= u < v < n:
                    raise GraphError(f"edge {e} not normalized or out of range for n={n}")
                raise GraphError("edges must be sorted and unique")
            prev = e
            nbrs[u].append(v)
            nbrs[v].append(u)
        # Each list arrives sorted: for a node x, every edge (u, x) with u < x
        # precedes every edge (x, v) in the lexicographic order checked above.
        object.__setattr__(self, "adj", tuple(map(tuple, nbrs)))

    @staticmethod
    def from_edges(n: int, edges) -> Graph:
        """Build a Graph, normalizing endpoint order and dropping duplicates."""
        # Pair by pair, so that no tuple per edge stays alive for the
        # collector to rescan while the lists grow.
        us, vs = [], []
        for u, v in edges:
            us.append(u)
            vs.append(v)
        if us and not 0 <= min(min(us), min(vs)) <= max(max(us), max(vs)) < n:
            raise GraphError(f"an endpoint is out of range for n={n}")
        return _graph(n, us, vs)

    @functools.cached_property
    def rev(self) -> tuple[tuple[int, ...], ...]:
        """rev[v][i] is the position of v in adj[adj[v][i]], built on first
        use: visiting the nodes in increasing order reaches each node's
        neighbours in the order of its sorted list, so one pointer per node
        gives every position in O(m)."""
        seen = [0] * self.n
        rows = []
        for nbrs in self.adj:
            rows.append(tuple(map(seen.__getitem__, nbrs)))
            for w in nbrs:
                seen[w] += 1
        return tuple(rows)

    @functools.cached_property
    def connected(self) -> bool:
        """Whether a BFS from node 0 reaches every node, run once per graph."""
        return -1 not in _bfs(self, 0)

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"node id {v} out of range for n={self.n}")

    def resolve(self, token: str) -> int:
        """Map a label or a numeric id string to a node id."""
        if self.labels is not None and token in self.labels:
            return self.labels.index(token)
        try:
            v = int(token)
        except ValueError:
            raise GraphError(f"unknown node {token!r}") from None
        self.check_node(v)
        return v


def _check_size(what: str, n: int, m: int) -> None:
    if n > MAX_NODES:
        raise GraphError(f"{what} has {n} nodes, over the limit of {MAX_NODES}")
    if m > MAX_EDGES:
        raise GraphError(f"{what} has {m} edges, over the limit of {MAX_EDGES}")


def _graph(n: int, us, vs, labels: tuple[str, ...] | None = None) -> Graph:
    """The Graph on n nodes with the edges {us[i], vs[i]}, ids the caller has
    checked lie in [0, n), as sorted, distinct pairs (u, v) with u < v, made
    from the integer keys u*n+v, which are one-to-one on that range. The node
    limit is checked before anything is built. Every endpoint of node v is the
    one int object ids[v], so edges and the adj made from them hold one object
    per node, and dict probes hit by identity. The cyclic collector is paused
    for the build and then restored, unless the caller had disabled it: the
    pairs and adjacency tuples, up to millions, form no cycle, so a full pass
    would rescan the heap to free nothing. The pause is process-wide."""
    _check_size("graph", n, 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # min*n + max as min*(n-1) + (u+v), which needs no max
        keys = sorted(set(map(add, map(mul, map(min, us, vs), repeat(n - 1)), map(add, us, vs))))
        ids = list(range(n))
        edges = tuple(zip(map(ids.__getitem__, map(floordiv, keys, repeat(n))),
                          map(ids.__getitem__, map(mod, keys, repeat(n)))))
        del keys, ids
        return Graph(n=n, edges=edges, labels=labels)
    finally:
        if enabled:
            gc.enable()


def _bfs(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        d = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = d
                q.append(w)
    return dist


@dataclass(frozen=True)
class DistanceProfile:
    """Hop distances from a source, ``dist[v]`` for node v, and their maximum."""

    dist: tuple[int, ...]
    eccentricity: int


def distance_profile(g: Graph, source: int) -> DistanceProfile:
    """BFS distances and eccentricity of ``source``. Rejects disconnected graphs."""
    g.check_node(source)
    dist = _bfs(g, source)
    if min(dist) < 0:
        raise DisconnectedGraphError("distance profile needs a connected graph")
    return DistanceProfile(tuple(dist), max(dist))


def diameter(g: Graph) -> int:
    """Maximum eccentricity over all sources. Rejects disconnected graphs."""
    if not g.connected:
        raise DisconnectedGraphError("diameter needs a connected graph")
    return max(max(_bfs(g, s)) for s in range(g.n))


@dataclass(frozen=True)
class BipartiteResult:
    bipartite: bool
    coloring: tuple[int, ...] | None      # side 0/1 per node when bipartite
    odd_cycle: tuple[int, ...] | None     # odd closed walk (node sequence) otherwise


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    # u and v share a colour, so they sit at the same BFS depth: a BFS edge
    # joins depths at most one apart, and the colour is the depth's parity.
    # Climbing both tree paths in lockstep meets at the common ancestor; the
    # two paths plus the edge {u, v} close a cycle of odd length.
    pu, pv = [u], [v]
    while pu[-1] != pv[-1]:
        pu.append(parent[pu[-1]])
        pv.append(parent[pv[-1]])
    return tuple(pu + pv[-2::-1])


def is_bipartite(g: Graph) -> BipartiteResult:
    """BFS 2-coloring over every component.

    Returns the coloring on success, or an odd cycle as counter-witness.
    This is the oracle that flooding-based classification is checked against,
    so it shares no code with the engines.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    q.append(w)
                elif color[w] == color[u]:
                    return BipartiteResult(False, None, _odd_cycle(parent, u, w))
    return BipartiteResult(True, tuple(color), None)


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a Graph.

    Lines starting with '#' and blank lines are skipped. Numeric endpoint
    tokens are taken as literal node ids (n = max id + 1, at most
    MAX_NODES), which keeps render/parse round trips id-stable. If any
    endpoint is a bare word the whole file switches to label mode and ids are
    assigned in order of first appearance, with the labels retained.
    """
    # Once each line holds 0 or 2 tokens, the text's tokens pair up as edges:
    # every splitlines boundary is whitespace to split. del keeps the peak low.
    lines = text.splitlines()
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    if not {0, 2}.issuperset(map(len, map(str.split, lines))):
        raise _bad_line(text, lambda toks: len(toks) != 2
                        and f"expected two endpoints, got {len(toks)}")
    body = " ".join(lines) if "#" in text else text
    del lines
    ends = body.split()
    if not ends:
        raise GraphError("empty edge list")
    # isdecimal, not isdigit: a digit such as "²" is not a decimal int() reads
    if all(map(str.isdecimal, ends)):
        try:
            ends, labels = list(map(int, ends)), None
        except ValueError:  # an id of more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise _bad_line(text, lambda toks: (k := max(map(len, toks))) > limit
                            and f"a node id of {k} digits is over the limit of {MAX_NODES} nodes"
                            ) from None
    else:
        first_seen = dict(zip(dict.fromkeys(ends), count()))
        ends, labels = list(map(first_seen.__getitem__, ends)), tuple(first_seen)
    n = max(ends) + 1 if labels is None else len(labels)
    us, vs = ends[::2], ends[1::2]
    if not all(map(ne, us, vs)):
        ident = int if labels is None else str
        raise _bad_line(text, lambda toks: ident(toks[0]) == ident(toks[1]) and "self-loop")
    del ends
    return _graph(n, us, vs, labels)


def _bad_line(text: str, why) -> GraphError:
    """The error for the first line of ``text`` whose tokens ``why`` faults:
    it returns the fault, or something false for a good line."""
    for lineno, toks in enumerate(map(str.split, text.splitlines()), start=1):
        if toks and not toks[0].startswith("#") and (fault := why(toks)):
            return GraphError(f"line {lineno}: {fault}")
    raise AssertionError("no bad line in the text")


def render_edge_list(g: Graph) -> str:
    """Emit the edge-list format parse_edge_list reads, with '#' header comments."""
    lines = [f"# n={g.n} m={g.m}"]
    if g.labels is not None:
        lines.extend(f"# label {i} {name}" for i, name in enumerate(g.labels))
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def gen_named(kind: str, param: int | None = None) -> Graph:
    """Build a named graph: hypercube:k, petersen, cycle:n, path:n, complete:n.

    Sizes past MAX_NODES or MAX_EDGES are rejected before any edge is made."""
    if kind not in ("hypercube", "petersen", "cycle", "path", "complete"):
        raise GraphError(f"unknown named graph {kind!r}")
    if kind == "petersen":
        if param is not None:
            raise GraphError("petersen takes no parameter")
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return Graph.from_edges(10, outer + inner + spokes)
    if param is None:
        raise GraphError(f"{kind} needs a parameter, e.g. {kind}:4")
    if kind == "hypercube":
        if param < 1:
            raise GraphError("hypercube needs k >= 1")
        if param >= MAX_NODES.bit_length():
            raise GraphError(f"hypercube:{param} has 2^{param} nodes, "
                             f"over the limit of {MAX_NODES}")
        n = 1 << param
        return Graph.from_edges(
            n, ((v, v | (1 << b)) for v in range(n) for b in range(param)
                if not v >> b & 1))
    if kind == "cycle":
        if param < 3:
            raise GraphError("cycle needs n >= 3")
        _check_size(f"cycle:{param}", param, param)
        return Graph.from_edges(param, ((i, (i + 1) % param) for i in range(param)))
    if kind == "path":
        if param < 2:
            raise GraphError("path needs n >= 2")
        _check_size(f"path:{param}", param, param - 1)
        return Graph.from_edges(param, ((i, i + 1) for i in range(param - 1)))
    # complete
    if param < 2:
        raise GraphError("complete needs n >= 2")
    _check_size(f"complete:{param}", param, param * (param - 1) // 2)
    return Graph.from_edges(param, combinations(range(param), 2))


def _splitmix64(state: int) -> tuple[int, int]:
    # One step of the splitmix64 stream: (next_state, 64-bit output).
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) drawn from a splitmix64 stream.

    The stream state starts at ``seed`` (masked to 64 bits) and yields one
    draw per unordered pair in lexicographic order, so a given (n, p, seed)
    reproduces the same graph bit for bit on every platform. More than
    MAX_RANDOM_DRAWS draws (n > 4,472) are rejected before the first.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"need 0 <= p <= 1, got {p}")
    draws = n * (n - 1) // 2
    if draws > MAX_RANDOM_DRAWS:
        raise GraphError(f"G({n}, p) takes {draws} pair draws, "
                         f"over the limit of {MAX_RANDOM_DRAWS}")
    threshold = int(p * float(1 << 64))
    state = seed & _MASK64
    edges = []
    ids = list(range(n))  # one int object per node id, as in _graph
    for u in ids:
        for v in ids[u + 1:]:
            state, draw = _splitmix64(state)
            if draw < threshold:
                edges.append((u, v))
    return Graph(n=n, edges=tuple(edges))
