"""Trace-level verification.

Classifies each run's termination round against the predicted window
(bipartite graphs stop exactly at the source eccentricity e, all others in
e < j <= e+d+1), audits recorded traces against the structural facts that
make the window hold, sweeps every small connected graph exhaustively, and
searches for runs attaining the worst-case bound e+d+1.
"""

from __future__ import annotations

import multiprocessing
import os
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from itertools import combinations

from .graph import DisconnectedGraphError, Edge, Graph, _bfs, diameter, gen_named, is_bipartite
from .jsonio import Encoded, dumps_stable
from .sync_engine import (Inbox, InternalInvariantError, Receipts, Trace, _flood, _receipts,
                          run_sync)

BIPARTITE_EXACT = "bipartite_exact"
NONBIPARTITE_WINDOW = "nonbipartite_window"

_SWEEP_BLOCK = 4096  # masks per parallel work unit; fixed so output never depends on jobs


@dataclass(frozen=True)
class ClassificationReport:
    """Where one run's termination round lands relative to the predicted window."""

    source: int
    bipartite: bool
    eccentricity: int
    diameter: int
    termination_round: int
    window_ok: bool
    theorem_applied: str

    def to_json_obj(self) -> dict:
        return asdict(self)


def _window_ok(j: int, e: int, diam: int, bipartite: bool) -> bool:
    return j == e if bipartite else e < j <= e + diam + 1


def classify(g: Graph, source: int) -> ClassificationReport:
    """Run the synchronous engine and place the outcome in its termination window."""
    return analyze(g, source)[0]


@dataclass(frozen=True)
class AuditCheck:
    name: str
    ok: bool
    node: int | None = None
    round: int | None = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        return asdict(self)


AUDIT_CHECKS = ("layer_containment", "frontier_sends", "ec_second_receipt",
                "single_visit_iff_no_ec", "neighbor_echo_window")
# A passing check carries nothing but its name, so every audit shares these.
_PASSED = {name: AuditCheck(name, True) for name in AUDIT_CHECKS}


@dataclass(frozen=True)
class TraceAudit:
    """Structural checks of one trace against the distance layering.

    A failing check on any connected graph is a bug in the engine or in the
    audit, never acceptable output; failures are reported, not raised.
    """

    checks: tuple[AuditCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[AuditCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json_obj(self) -> dict:
        return {"all_ok": self.all_ok,
                "checks": [c.to_json_obj() for c in self.checks]}


# The audit of a run that passes every check.
_ALL_PASSED = TraceAudit(tuple(_PASSED.values()))


def audit_trace(g: Graph, source: int, trace: Trace) -> TraceAudit:
    """Audit a trace produced by run_sync(g, source). Raises ValueError for
    a trace of another graph or from another source."""
    if trace.graph != g:
        raise ValueError("trace was recorded on another graph")
    if trace.source != source:
        raise ValueError(f"trace was recorded from source {trace.source}, not {source}")
    g.check_node(source)
    dist = _bfs(g, source)
    if -1 in dist:
        raise DisconnectedGraphError("the audit needs a connected graph")
    return _audit(g, trace.inboxes, _receipts(g.n, trace.inboxes), dist)


def _audit(g: Graph, inboxes: Sequence[Inbox], receipts: Receipts,
           dist: list[int]) -> TraceAudit:
    """The five checks of a run against the BFS distances ``dist`` around its
    source: ``inboxes[t]`` holds the inbox of round t of every node at
    distance t. Each failing check names its first counterexample in the
    order the check reads."""
    n, adj = g.n, g.adj
    first, second, count = receipts
    last = len(inboxes)
    # One pass over the edges (u < w) finds each edge-local check's first
    # counterexample: the frontier edge, in edge order, whose nearer end is
    # missing from its farther end's inbox in the round of that end's
    # distance; the smallest ec node (a node with a neighbour at its own
    # distance) and the smallest one without its second receipt one round
    # after its distance; and the smallest (node, neighbour) pair whose
    # second receipts are not within one round of each other.
    missed = ec_min = ec_late = echo = None
    for u, w in g.edges:
        du, dw = dist[u], dist[w]
        if du == dw:
            if ec_min is None:
                ec_min = u
            if second[u] != du + 1 or second[w] != du + 1:
                late = u if second[u] != du + 1 else w
                if ec_late is None or late < ec_late:
                    ec_late = late
        elif missed is None:
            # a's bit in b's mask is a's position in b's sorted list
            a, b, db = (u, w, dw) if du < dw else (w, u, du)
            if db >= last or not inboxes[db].get(b, 0) >> bisect_left(adj[b], a) & 1:
                missed = a, b
        su, sw = second[u], second[w]
        if su is None:
            if sw is None:
                continue
            pair = w, u
        elif sw is None or not -1 <= su - sw <= 1:
            pair = u, w
        else:
            continue
        if echo is None or pair < echo:
            echo = pair
    # Each failing check's (node, round, detail).
    failed = {}

    # Every node's first receipt happens exactly at its BFS distance: the
    # layer at distance j is fully covered by round j and never touched earlier.
    if first != dist:
        v = next(v for v in range(n) if first[v] != dist[v])
        failed["layer_containment"] = (
            v, first[v], f"first receipt of {v} at {first[v]}, distance {dist[v]}")

    # Every edge from layer j to layer j+1 carries a send in round j+1.
    if missed is not None:
        a, b = missed
        failed["frontier_sends"] = (
            a, dist[b], f"edge ({a},{b}) carried no send in round {dist[b]}")

    # An equidistantly-connected node at distance j receives again exactly in
    # round j+1.
    if ec_late is not None:
        v = ec_late
        failed["ec_second_receipt"] = (
            v, second[v],
            f"ec node {v} second receipt at {second[v]}, expected {dist[v] + 1}")

    # All nodes receive exactly once if and only if there are no ec nodes.
    if (count.count(1) == n) != (ec_min is None):
        if ec_min is not None:
            failed["single_visit_iff_no_ec"] = (
                ec_min, None,
                f"ec nodes exist ({ec_min}) but every node received exactly once")
        else:
            v = next(v for v in range(n) if count[v] != 1)
            failed["single_visit_iff_no_ec"] = (
                v, second[v], f"no ec nodes but node {v} received {count[v]} times")

    # If a node receives a second time in round j, each neighbour's second
    # receipt falls in round j-1, j, or j+1. Nodes with a single receipt do
    # not trigger the check.
    if echo is not None:
        h, w = echo
        j = second[h]
        failed["neighbor_echo_window"] = (
            w, second[w], f"neighbour {w} of {h} has second receipt {second[w]}, "
                          f"outside rounds {j - 1}..{j + 1}")

    if not failed:
        return _ALL_PASSED
    return TraceAudit(tuple(AuditCheck(name, False, *failed[name]) if name in failed
                            else check for name, check in _PASSED.items()))


def analyze(g: Graph, source: int) -> tuple[ClassificationReport, TraceAudit]:
    """Classification plus audit for one (graph, source), running the engine and
    a BFS from the source once each; d and bipartiteness come from the oracles."""
    trace, dist = run_sync(g, source), _bfs(g, source)
    audit = _audit(g, trace.inboxes, _receipts(g.n, trace.inboxes), dist)
    e, d = max(dist), diameter(g)
    bip, j = is_bipartite(g).bipartite, trace.termination_round
    return (ClassificationReport(source, bip, e, d, j, _window_ok(j, e, d, bip),
                                 BIPARTITE_EXACT if bip else NONBIPARTITE_WINDOW),
            audit)


def _graphs(n: int, lo: int = 0, hi: int | None = None):
    """Yield, in mask order, each connected graph on 0..n-1 with edge mask in
    [lo, hi), by default every mask, with its BFS row from node 0, the row
    that proved it connected; bit i of a mask is pair i of ``combinations(range(n), 2)``."""
    pairs = tuple(combinations(range(n), 2))
    for mask in range(lo, 1 << len(pairs) if hi is None else hi):
        g = Graph(n=n, edges=tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
        row = _bfs(g, 0)
        if min(row) >= 0:
            yield g, row


def connected_graphs(n: int):
    """Yield every connected simple graph on the labeled vertex set 0..n-1."""
    return (g for g, _ in _graphs(n))


@dataclass(frozen=True)
class SweepViolation:
    n: int
    edges: tuple[Edge, ...]
    source: int
    check: str
    detail: str
    trace: Trace | None

    def to_json_obj(self, trace_json=None) -> dict:
        """``trace_json``, given, writes the trace in place of Trace.to_json_obj."""
        return {"n": self.n, "edges": [list(e) for e in self.edges],
                "source": self.source, "check": self.check, "detail": self.detail,
                "trace": None if self.trace is None
                else (trace_json or Trace.to_json_obj)(self.trace)}


@dataclass(frozen=True)
class SweepSummary:
    n_max: int
    graphs: int
    runs: int
    max_termination_round: int
    j_minus_e_histogram: dict[int, int]
    bipartite_runs: int
    violations: tuple[SweepViolation, ...]

    def to_json_obj(self) -> dict:
        # The violations of one run share its Trace: write each distinct one
        # once, keyed by identity. Equal traces of different runs give equal
        # text, so the bytes do not depend on which worker found them.
        written: dict[int, dict] = {}

        def trace_json(trace: Trace) -> dict:
            if id(trace) not in written:
                written[id(trace)] = trace.to_json_obj()
            return written[id(trace)]

        return {
            "n_max": self.n_max,
            "graphs": self.graphs,
            "runs": self.runs,
            "max_j": self.max_termination_round,
            "j_minus_e_histogram": {str(k): v for k, v in
                                    sorted(self.j_minus_e_histogram.items())},
            "violations": Encoded.array(dumps_stable(v.to_json_obj(trace_json)).rstrip("\n")
                                        for v in self.violations),
        }


@dataclass
class _Tally:
    """The sweep totals of one block of masks. sweep sums the blocks' tallies
    in mask order, so the totals never depend on how the work was split."""

    graphs: int = 0
    runs: int = 0
    bipartite_runs: int = 0
    max_j: int = 0
    hist: Counter[int] = field(default_factory=Counter)
    violations: list[SweepViolation] = field(default_factory=list)


def _examine_graph(g: Graph, row0: list[int], tally: _Tally) -> None:
    """All-sources verification of one connected graph, whose BFS row from
    node 0 is ``row0``, added to ``tally``."""
    rows = [row0, *(_bfs(g, s) for s in range(1, g.n))]
    diam = max(map(max, rows))
    bip = is_bipartite(g).bipartite
    tally.graphs += 1
    tally.runs += g.n
    if bip:
        tally.bipartite_runs += g.n
    for source, row in enumerate(rows):
        e = max(row)
        try:
            inboxes, receipts = _flood(g, source)
        except InternalInvariantError as exc:
            trace, found = exc.trace, [("engine_invariant", str(exc))]
        else:
            trace = None
            j = len(inboxes) - 1
            tally.max_j = max(tally.max_j, j)
            tally.hist[j - e] += 1
            found = []
            # j <= 2n-3 for n >= 2. A connected graph with d = n-1 is a path,
            # which is bipartite, so a non-bipartite one has d <= n-2 and
            # j <= e+d+1 <= 2d+1 <= 2n-3; a bipartite one has j = e <= n-1.
            if j > 2 * g.n - 3:
                found.append(("termination_bound", f"j={j} over 2n-3={2 * g.n - 3}"))
            if not _window_ok(j, e, diam, bip):
                found.append(("termination_window",
                              f"j={j} outside window for e={e} d={diam} "
                              f"bipartite={bip}"))
            found.extend((f"audit:{c.name}", c.detail)
                         for c in _audit(g, inboxes, receipts, row).failures)
            if found:
                trace = Trace(g, source, tuple(inboxes), j)
        if found:
            tally.violations.extend(SweepViolation(g.n, g.edges, source, check, detail,
                                                   trace) for check, detail in found)


def _sweep_block(block: tuple[int, int, int]) -> _Tally:
    tally = _Tally()
    for g, row0 in _graphs(*block):
        _examine_graph(g, row0, tally)
    return tally


def check_sweep_args(n_max: int, jobs: int = 1) -> None:
    """Raise ValueError unless sweep accepts ``n_max`` and ``jobs``."""
    if not 2 <= n_max <= 7:
        raise ValueError(f"n_max must be between 2 and 7, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def sweep(n_max: int, jobs: int = 1) -> SweepSummary:
    """Run every (connected graph, source) pair for 2 <= n <= n_max and verify
    the termination bound, the receipt-multiplicity bound, the termination
    window, and all trace audits. Any violation is recorded with the
    counterexample graph, source, and full trace.

    Work is split into fixed-size mask blocks merged in order, so the summary
    is byte-identical for any ``jobs``. The sweep starts min(jobs, blocks,
    CPUs) worker processes, and none when that is 1.
    """
    check_sweep_args(n_max, jobs)
    blocks = []
    for n in range(2, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        blocks.extend((n, lo, min(lo + _SWEEP_BLOCK, total))
                      for lo in range(0, total, _SWEEP_BLOCK))
    # Pool starts every worker up front, so start no more than can be busy.
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            parts = pool.map(_sweep_block, blocks, chunksize=1)
    else:
        parts = [_sweep_block(b) for b in blocks]

    hist = sum((p.hist for p in parts), Counter())
    return SweepSummary(n_max, sum(p.graphs for p in parts), sum(p.runs for p in parts),
                        max(p.max_j for p in parts), dict(sorted(hist.items())),
                        sum(p.bipartite_runs for p in parts),
                        tuple(v for p in parts for v in p.violations))


@dataclass(frozen=True)
class SharpWitness:
    """A (graph, source) whose run attains the upper bound e + d + 1."""

    graph: Graph
    source: int
    eccentricity: int
    diameter: int
    termination_round: int

    @property
    def is_sharp(self) -> bool:
        return self.termination_round == self.eccentricity + self.diameter + 1

    def to_json_obj(self) -> dict:
        return {
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.edges],
            "source": self.source,
            "eccentricity": self.eccentricity,
            "diameter": self.diameter,
            "termination_round": self.termination_round,
        }


def _witness_rank(w: SharpWitness):
    return (w.graph.n, w.graph.m, w.graph.edges, w.source)


@dataclass(frozen=True)
class SharpSearchResult:
    """Outcome of the sharpness search.

    ``frontier`` maps each attained (eccentricity, diameter) pair to its
    minimal witness (by node count, then edge count, then edge list, then
    source). ``smallest`` is the minimal witness with eccentricity strictly
    below diameter; ``target`` is the first witness matching the requested
    (eccentricity, diameter). ``canonical`` holds the triangle and 5-cycle
    runs, which attain the bound on every search.
    """

    n_searched: int
    target: SharpWitness | None
    smallest: SharpWitness | None
    frontier: dict[tuple[int, int], SharpWitness]
    canonical: tuple[SharpWitness, ...]

    def to_json_obj(self) -> dict:
        return {
            "n_searched": self.n_searched,
            "target": self.target.to_json_obj() if self.target else None,
            "smallest": self.smallest.to_json_obj() if self.smallest else None,
            "frontier": {f"{e},{d}": w.to_json_obj()
                         for (e, d), w in sorted(self.frontier.items())},
            "canonical": [w.to_json_obj() for w in self.canonical],
        }


def _canonical_witnesses() -> tuple[SharpWitness, ...]:
    out = []
    for g in (gen_named("cycle", 3), gen_named("cycle", 5)):
        r = classify(g, 0)
        w = SharpWitness(g, 0, r.eccentricity, r.diameter, r.termination_round)
        if not w.is_sharp:
            raise InternalInvariantError("odd-cycle run missed the sharp bound")
        out.append(w)
    return tuple(out)


def find_sharp_example(n_max: int, target: tuple[int, int] = (2, 4)) -> SharpSearchResult:
    """Search labeled connected graphs in order of size for runs attaining the
    worst-case termination round e + d + 1.

    Enumeration proceeds by increasing node count and stops after the first
    count where a witness with (eccentricity, diameter) == ``target`` has been
    seen, so everything reported as minimal really is minimal. If the target
    is never attained, the attained frontier up to ``n_max`` is the answer.
    A target with e < 1, e > d or d > 2e, which no source of a connected
    graph with n >= 2 attains (d(x, y) <= d(x, s) + d(s, y) <= 2e), is
    refused before any graph is built.
    """
    if not 2 <= n_max <= 8:
        raise ValueError(f"n_max must be between 2 and 8, got {n_max}")
    e, d = target
    if not 1 <= e <= d <= 2 * e:
        need = "diameter <= 2 * eccentricity" if 1 <= e <= d else "1 <= eccentricity <= diameter"
        raise ValueError(f"no graph has a source of eccentricity {e} and diameter {d}: "
                         f"need {need}")
    frontier: dict[tuple[int, int], SharpWitness] = {}
    n_searched = 0
    for n in range(2, n_max + 1):
        for g, row0 in _graphs(n):
            rows = [row0, *(_bfs(g, s) for s in range(1, n))]
            diam = max(map(max, rows))
            for source, row in enumerate(rows):
                e, j = max(row), len(_flood(g, source)[0]) - 1
                if j != e + diam + 1:
                    continue
                w = SharpWitness(g, source, e, diam, j)
                cur = frontier.get((e, diam))
                if cur is None or _witness_rank(w) < _witness_rank(cur):
                    frontier[e, diam] = w
        n_searched = n
        if target in frontier:
            break
    smallest = min((w for (e, d), w in frontier.items() if e < d),
                   key=_witness_rank, default=None)
    return SharpSearchResult(n_searched, frontier.get(target), smallest,
                             frontier, _canonical_witnesses())
