"""The benchmark's workloads: seeded inputs, the calls into amflood that
produce a verdict, and the oracle checks of what was emitted.

Each workload has
  make_input(seed)        the input, built by the benchmark alone;
  setup(am, rec, inp)     turn the input into amflood objects;
  verdict(am, rec, st)    the timed pipeline, returning every emitted text;
  traced(am, rec, st)     the pipeline as public calls, for the traced run;
  check(inp, texts)       oracle checks, raising oracle.CheckFailed.
``am`` is a freshly imported amflood package and ``rec`` a span recorder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle
from oracle import CheckFailed


@dataclass(frozen=True)
class EdgeInput:
    """The edge-list text amflood reads, its node count and the source."""

    n: int
    source: int
    text: str


def _emit(rng: random.Random, n: int, edges: set[tuple[int, int]],
          source: int) -> EdgeInput:
    # Relabel the nodes and shuffle line order and endpoint order, so the
    # program sees no structure that the seed did not put there.
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
            for u, v in sorted(edges)]
    rng.shuffle(arcs)
    text = "".join(f"{u} {v}\n" for u, v in arcs)
    return EdgeInput(n, perm[source], text)


def sparse_graph(seed: int, n: int, degree: int) -> EdgeInput:
    """Connected, non-bipartite graph with n nodes and n*degree/2 edges: a
    triangle, a random recursive tree over the other nodes, then uniform
    random extra edges."""
    rng = random.Random(seed)
    edges = {(0, 1), (1, 2), (0, 2)}
    for v in range(3, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < n * degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return _emit(rng, n, edges, 0)


def triangulated_ladder(seed: int, n: int) -> EdgeInput:
    """Ladder of n/2 rungs, every square split by a diagonal whose direction
    the seed picks; the source is a corner node at one end."""
    rng = random.Random(seed)
    edges = set()
    for i in range(n // 2):
        top, bot = 2 * i, 2 * i + 1
        edges.add((top, bot))
        if 2 * i + 2 < n:
            edges.update(((top, top + 2), (bot, bot + 2)))
            edges.add((top, bot + 2) if rng.random() < 0.5 else (bot, top + 2))
    return _emit(rng, n, edges, 0)


def _sync_run(am, rec, g, source):
    """run_sync, with the traced run's counts and replay of every recorded
    configuration through the public step."""
    trace = rec.call("sync_engine.run_sync", am.sync_engine.run_sync, g, source)
    if rec.on:
        rec.count("sync_engine.runs", 1)
        rec.count("sync_engine.rounds", len(trace.rounds))
        rec.count("sync_engine.sends", trace.total_sends)
        rounds = trace.rounds
        for i, config in enumerate(rounds):
            nxt = rec.call("sync_engine.step", am.sync_engine.step, g, config)
            if nxt != (rounds[i + 1] if i + 1 < len(rounds) else frozenset()):
                raise CheckFailed(f"step replay of round {i + 1} differs from the trace")
    return trace


def _dumps(am, rec, obj) -> str:
    text = rec.call("jsonio.dumps_stable", am.jsonio.dumps_stable, obj)
    if rec.on:
        rec.count("jsonio.bytes", len(text))
    return text


class Exhaustive:
    """sweep(n_max, jobs=1) and its summary JSON."""

    name = "exhaustive_n6"

    def __init__(self, n_max: int = 6):
        self.n_max = n_max

    def make_input(self, seed: int) -> None:
        return None  # the sweep enumerates its own graphs; the seed is unused

    def setup(self, am, rec, inp) -> None:
        return None

    def verdict(self, am, rec, st) -> dict[str, str]:
        summary = rec.call("analysis.sweep", am.analysis.sweep, self.n_max, jobs=1)
        return {"summary": _dumps(am, rec, summary.to_json_obj())}

    def traced(self, am, rec, st) -> dict[str, str]:
        """The sweep rebuilt from public calls; its summary must come out
        byte-identical to sweep's."""
        graphs = runs = max_j = 0
        hist: dict[int, int] = {}
        violations = []
        for n in range(2, self.n_max + 1):
            for g in rec.iterate("analysis.connected_graphs",
                                 am.analysis.connected_graphs(n)):
                graphs += 1
                d = rec.call("graph.diameter", am.graph.diameter, g)
                bip = rec.call("graph.is_bipartite", am.graph.is_bipartite, g).bipartite
                for s in range(g.n):
                    runs += 1
                    e = rec.call("graph.distance_profile", am.graph.distance_profile,
                                 g, s).eccentricity
                    trace = _sync_run(am, rec, g, s)
                    j = trace.termination_round
                    max_j = max(max_j, j)
                    hist[j - e] = hist.get(j - e, 0) + 1
                    window = j == e if bip else e < j <= e + d + 1
                    audit = rec.call("analysis.audit_trace", am.analysis.audit_trace,
                                     g, s, trace)
                    if not (window and audit.all_ok):
                        violations.append({"edges": g.edges, "source": s})
        rec.count("analysis.graphs", graphs)
        summary = {"n_max": self.n_max, "graphs": graphs, "runs": runs, "max_j": max_j,
                   "j_minus_e_histogram": {str(k): v for k, v in sorted(hist.items())},
                   "violations": violations}
        return {"summary": _dumps(am, rec, summary)}

    def check(self, inp, texts: dict[str, str]) -> None:
        obj = oracle.check_stable(texts["summary"], "sweep summary")
        oracle.check_sweep_summary(obj, self.n_max, oracle.exhaustive_summary(self.n_max))


class LargeSparse:
    """run_sync, audit_trace and the trace JSON on one large sparse graph."""

    name = "large_sparse"

    def __init__(self, n: int = 50_000, degree: int = 8):
        self.n, self.degree = n, degree

    def make_input(self, seed: int) -> EdgeInput:
        return sparse_graph(seed, self.n, self.degree)

    def setup(self, am, rec, inp: EdgeInput):
        g = rec.call("graph.parse_edge_list", am.graph.parse_edge_list, inp.text)
        return g, inp.source

    def verdict(self, am, rec, st) -> dict[str, str]:
        g, source = st
        trace = _sync_run(am, rec, g, source)
        audit = rec.call("analysis.audit_trace", am.analysis.audit_trace, g, source, trace)
        if not audit.all_ok:
            raise CheckFailed(f"amflood's own audit failed: {audit.failures[0]}")
        obj = rec.call("sync_engine.Trace.to_json_obj", trace.to_json_obj)
        return {"trace": _dumps(am, rec, obj)}

    traced = verdict

    def check(self, inp: EdgeInput, texts: dict[str, str]) -> None:
        obj = oracle.check_stable(texts["trace"], "sync trace")
        adj = oracle.adjacency(inp.n, oracle.edge_list(inp.text))
        oracle.check_sync_trace(obj, adj, inp.source)


class LongStrip:
    """run_sync and a zero-delay run_async from one end of a long ladder,
    with both JSON documents."""

    name = "long_strip"

    def __init__(self, n: int = 40_000):
        self.n = n

    def make_input(self, seed: int) -> EdgeInput:
        return triangulated_ladder(seed, self.n)

    setup = LargeSparse.setup

    def verdict(self, am, rec, st) -> dict[str, str]:
        g, source = st
        trace = _sync_run(am, rec, g, source)
        sync_text = _dumps(am, rec, rec.call("sync_engine.Trace.to_json_obj",
                                             trace.to_json_obj))
        del trace  # free the sync trace before the async run, as separate CLI runs would
        ae = am.async_engine
        verdict = rec.call("async_engine.run_async", ae.run_async, g, source,
                           ae.ZeroDelayAdversary(), max_rounds=2 * g.n + 2)
        if rec.on:
            rec.count("async_engine.rounds", len(verdict.rounds))
            rec.count("async_engine.messages", sum(len(r.delivered) for r in verdict.rounds))
        async_text = _dumps(am, rec, rec.call("async_engine.AsyncVerdict.to_json_obj",
                                              verdict.to_json_obj))
        return {"sync": sync_text, "async": async_text}

    traced = verdict

    def check(self, inp: EdgeInput, texts: dict[str, str]) -> None:
        sync_obj = oracle.check_stable(texts["sync"], "sync trace")
        adj = oracle.adjacency(inp.n, oracle.edge_list(inp.text))
        oracle.check_sync_trace(sync_obj, adj, inp.source)
        async_obj = oracle.check_stable(texts["async"], "async verdict")
        oracle.check_async_zero_delay(async_obj, sync_obj)


WORKLOADS = {w.name: w for w in (Exhaustive(), LargeSparse(), LongStrip())}
