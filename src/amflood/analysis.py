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
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .graph import (EcReport, Edge, Graph, _bfs, _ec_report, distance_profile,
                    gen_named, is_bipartite, is_connected)
from .sync_engine import InternalInvariantError, Trace, _run, run_sync

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
        return {
            "source": self.source,
            "bipartite": self.bipartite,
            "eccentricity": self.eccentricity,
            "diameter": self.diameter,
            "termination_round": self.termination_round,
            "window_ok": self.window_ok,
            "theorem_applied": self.theorem_applied,
        }


def _window_ok(j: int, e: int, diam: int, bipartite: bool) -> bool:
    return j == e if bipartite else e < j <= e + diam + 1


def classify(g: Graph, source: int) -> ClassificationReport:
    """Run the synchronous engine and place the outcome in its termination window."""
    trace = run_sync(g, source)
    return _GraphContext(g, (source,)).classify(source, trace)


@dataclass(frozen=True)
class AuditCheck:
    name: str
    ok: bool
    node: int | None = None
    round: int | None = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ok": self.ok, "node": self.node,
                "round": self.round, "detail": self.detail}


AUDIT_CHECKS = ("layer_containment", "frontier_sends", "ec_second_receipt",
                "single_visit_iff_no_ec", "neighbor_echo_window")
# A passing check carries nothing but its name, so every audit shares these.
_PASSED = {name: AuditCheck(name, True) for name in AUDIT_CHECKS}


def _check(name: str, ok: bool, node: int | None, rnd: int | None,
           detail: str) -> AuditCheck:
    return _PASSED[name] if ok else AuditCheck(name, False, node, rnd, detail)


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


def audit_trace(g: Graph, source: int, trace: Trace) -> TraceAudit:
    """Audit a trace produced by run_sync(g, source)."""
    dist = distance_profile(g, source).dist
    return _audit_from_parts(g, trace, dist, _ec_report(g, source, dist))


def _audit_from_parts(g: Graph, trace: Trace, dist, ec: EcReport) -> TraceAudit:
    # One pass over the round-sets: each node's first and second receipt
    # round (None when missing) and its number of receipts.
    first: list[int | None] = [None] * g.n
    second: list[int | None] = [None] * g.n
    count = [0] * g.n
    for i, rs in enumerate(trace.round_sets):
        for v in rs:
            c = count[v]
            if c == 0:
                first[v] = i
            elif c == 1:
                second[v] = i
            count[v] = c + 1
    checks: list[AuditCheck] = []

    # Every node's first receipt happens exactly at its BFS distance: the
    # layer at distance j is fully covered by round j and never touched earlier.
    ok, node, rnd, detail = True, None, None, ""
    for v in range(g.n):
        if first[v] != dist[v]:
            ok, node, rnd = False, v, first[v]
            detail = f"first receipt of {v} at {rnd}, distance {dist[v]}"
            break
    checks.append(_check("layer_containment", ok, node, rnd, detail))

    # Every edge from layer j to layer j+1 carries a send in round j+1.
    ok, node, rnd, detail = True, None, None, ""
    for u, v in g.edges:
        a, b = (u, v) if dist[u] < dist[v] else (v, u)
        if dist[b] - dist[a] != 1:
            continue
        r = dist[a]  # sends of round r+1 are stored at rounds[r]
        if r >= len(trace.rounds) or (a, b) not in trace.rounds[r]:
            ok, node, rnd = False, a, r + 1
            detail = f"edge ({a},{b}) carried no send in round {r + 1}"
            break
    checks.append(_check("frontier_sends", ok, node, rnd, detail))

    # An equidistantly-connected node at distance j receives again exactly in
    # round j+1.
    ok, node, rnd, detail = True, None, None, ""
    for v in sorted(ec.ec_nodes):
        if second[v] != dist[v] + 1:
            ok, node, rnd = False, v, second[v]
            detail = f"ec node {v} second receipt at {rnd}, expected {dist[v] + 1}"
            break
    checks.append(_check("ec_second_receipt", ok, node, rnd, detail))

    # All nodes receive exactly once if and only if there are no ec nodes.
    single = all(c == 1 for c in count)
    ok = single == (not ec.ec_nodes)
    node, rnd, detail = None, None, ""
    if not ok:
        if ec.ec_nodes:
            node = min(ec.ec_nodes)
            detail = f"ec nodes exist ({node}) but every node received exactly once"
        else:
            node = next(v for v in range(g.n) if count[v] != 1)
            rnd = second[node]
            detail = f"no ec nodes but node {node} received {count[node]} times"
    checks.append(_check("single_visit_iff_no_ec", ok, node, rnd, detail))

    # If a node receives a second time in round j, each neighbour's second
    # receipt falls in round j-1, j, or j+1. Nodes with a single receipt do
    # not trigger the check.
    ok, node, rnd, detail = True, None, None, ""
    for h in range(g.n):
        j = second[h]
        if j is None:
            continue
        for w in g.adj[h]:
            sw = second[w]
            if sw is None or not j - 1 <= sw <= j + 1:
                ok, node, rnd = False, w, sw
                detail = (f"neighbour {w} of {h} has second receipt {rnd}, "
                          f"outside rounds {j - 1}..{j + 1}")
                break
        if not ok:
            break
    checks.append(_check("neighbor_echo_window", ok, node, rnd, detail))

    return TraceAudit(tuple(checks))


def analyze(g: Graph, source: int) -> tuple[ClassificationReport, TraceAudit]:
    """Classification plus audit for one (graph, source), running the engine once."""
    trace = run_sync(g, source)
    ctx = _GraphContext(g, (source,))
    return ctx.classify(source, trace), ctx.audit(source, trace)


class _GraphContext:
    """The facts the verdicts need about one connected graph, each computed
    once: one BFS row per node gives the diameter, and the rows of
    ``sources`` are kept for their eccentricities and ec sets; the other rows
    are dropped, so a single-source caller holds O(n+m), not an n x n table.
    Bipartiteness comes from the independent coloring oracle, once."""

    __slots__ = ("g", "rows", "diameter", "bipartite")

    def __init__(self, g: Graph, sources):
        keep = set(sources)
        self.g = g
        self.rows: dict[int, list[int]] = {}
        diam = 0
        for s in range(g.n):
            row = _bfs(g, s)
            diam = max(diam, max(row))
            if s in keep:
                self.rows[s] = row
        self.diameter = diam
        self.bipartite = is_bipartite(g).bipartite

    def eccentricity(self, source: int) -> int:
        return max(self.rows[source])

    def ec(self, source: int) -> EcReport:
        return _ec_report(self.g, source, self.rows[source])

    def classify(self, source: int, trace: Trace) -> ClassificationReport:
        e, j, bip = self.eccentricity(source), trace.termination_round, self.bipartite
        return ClassificationReport(source, bip, e, self.diameter, j,
                                    _window_ok(j, e, self.diameter, bip),
                                    BIPARTITE_EXACT if bip else NONBIPARTITE_WINDOW)

    def audit(self, source: int, trace: Trace) -> TraceAudit:
        return _audit_from_parts(self.g, trace, self.rows[source], self.ec(source))


def _graphs(n: int, lo: int, hi: int):
    """Yield, in mask order, the connected graphs on 0..n-1 with edge mask in
    [lo, hi); bit i of a mask is pair i of ``combinations(range(n), 2)``."""
    pairs = tuple(combinations(range(n), 2))
    for mask in range(lo, hi):
        g = Graph(n=n, edges=tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
        if is_connected(g):
            yield g


def connected_graphs(n: int):
    """Yield every connected simple graph on the labeled vertex set 0..n-1."""
    return _graphs(n, 0, 1 << (n * (n - 1) // 2))


@dataclass(frozen=True)
class SweepViolation:
    n: int
    edges: tuple[Edge, ...]
    source: int
    check: str
    detail: str
    trace: dict | None

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges],
                "source": self.source, "check": self.check,
                "detail": self.detail, "trace": self.trace}


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
        return {
            "n_max": self.n_max,
            "graphs": self.graphs,
            "runs": self.runs,
            "max_j": self.max_termination_round,
            "j_minus_e_histogram": {str(k): v for k, v in
                                    sorted(self.j_minus_e_histogram.items())},
            "violations": [v.to_json_obj() for v in self.violations],
        }


@dataclass
class _Tally:
    """Running sweep totals. A block of masks fills one; blocks merge in
    mask order, so the totals never depend on how the work was split."""

    graphs: int = 0
    runs: int = 0
    bipartite_runs: int = 0
    max_j: int = 0
    hist: Counter[int] = field(default_factory=Counter)
    violations: list[SweepViolation] = field(default_factory=list)

    def merge(self, other: "_Tally") -> None:
        self.graphs += other.graphs
        self.runs += other.runs
        self.bipartite_runs += other.bipartite_runs
        self.max_j = max(self.max_j, other.max_j)
        self.hist.update(other.hist)
        self.violations.extend(other.violations)


def _examine_graph(g: Graph, tally: _Tally) -> None:
    """All-sources verification of one connected graph, added to ``tally``."""
    ctx = _GraphContext(g, range(g.n))
    diam, bip = ctx.diameter, ctx.bipartite
    tally.graphs += 1
    tally.runs += g.n
    if bip:
        tally.bipartite_runs += g.n
    for source in range(g.n):
        e = ctx.eccentricity(source)
        try:
            trace = _run(g, source)
        except InternalInvariantError as exc:
            trace, found = exc.trace, [("engine_invariant", str(exc))]
        else:
            j = trace.termination_round
            tally.max_j = max(tally.max_j, j)
            tally.hist[j - e] += 1
            found = []
            if j >= 2 * g.n + 1:
                found.append(("termination_bound",
                              f"j={j} not below 2n+1={2 * g.n + 1}"))
            if not _window_ok(j, e, diam, bip):
                found.append(("termination_window",
                              f"j={j} outside window for e={e} d={diam} "
                              f"bipartite={bip}"))
            found.extend((f"audit:{c.name}", c.detail)
                         for c in ctx.audit(source, trace).failures)
        if found:
            dump = trace.to_json_obj() if trace is not None else None
            tally.violations.extend(SweepViolation(g.n, g.edges, source, check, detail,
                                                   dump) for check, detail in found)


def _sweep_block(block: tuple[int, int, int]) -> _Tally:
    tally = _Tally()
    for g in _graphs(*block):
        _examine_graph(g, tally)
    return tally


def sweep(n_max: int, jobs: int = 1) -> SweepSummary:
    """Run every (connected graph, source) pair for 2 <= n <= n_max and verify
    the termination bound, the receipt-multiplicity bound, the termination
    window, and all trace audits. Any violation is recorded with the
    counterexample graph, source, and full trace.

    Work is split into fixed-size mask blocks merged in order, so the summary
    is byte-identical for any ``jobs``. The sweep starts min(jobs, blocks,
    CPUs) worker processes, and none when that is 1.
    """
    if not 2 <= n_max <= 7:
        raise ValueError(f"n_max must be between 2 and 7, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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

    total = _Tally()
    for part in parts:
        total.merge(part)
    return SweepSummary(n_max, total.graphs, total.runs, total.max_j,
                        dict(sorted(total.hist.items())), total.bipartite_runs,
                        tuple(total.violations))


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
    """
    if not 2 <= n_max <= 8:
        raise ValueError(f"n_max must be between 2 and 8, got {n_max}")
    frontier: dict[tuple[int, int], SharpWitness] = {}
    n_searched = 0
    for n in range(2, n_max + 1):
        for g in connected_graphs(n):
            ctx = _GraphContext(g, range(g.n))
            diam = ctx.diameter
            for source in range(g.n):
                e, j = ctx.eccentricity(source), _run(g, source).termination_round
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
