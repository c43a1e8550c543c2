"""Synchronous amnesiac flooding.

Each round, every node that just received the token forwards it to all
neighbours except those it received it from, keeping no other state. A
configuration is the set of directed sends of one round; the empty
configuration is absorbing.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass

from .graph import DisconnectedGraphError, Graph, is_connected

Arc = tuple[int, int]
Configuration = frozenset[Arc]


def _acyclic(fn):
    """Run ``fn`` with the cyclic garbage collector paused, then restore it.

    The wrapped builders create up to millions of small containers that form
    no reference cycles, and each full collection they would trigger rescans
    the whole live heap to free nothing. Reference counting still frees
    everything they drop, so pausing loses no memory. A collector the caller
    has already disabled is left disabled. Not for code where another thread
    toggles ``gc``: the pause is process-wide.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return wrapper


class InternalInvariantError(RuntimeError):
    """The engine produced a state that contradicts its own guarantees."""

    def __init__(self, message: str, trace: "Trace | None" = None):
        super().__init__(message)
        self.trace = trace


class RoundBudgetError(InternalInvariantError):
    """A run was still active when its round budget ran out."""


@dataclass(frozen=True)
class Trace:
    """Complete record of one synchronous run.

    rounds[i] is the set of directed sends of round i+1. round_sets[i] is the
    set of nodes receiving in round i, with round_sets[0] the source alone.
    termination_round is the index of the last non-empty round-set, or None
    for the partial trace of a run that did not finish.
    """

    n: int
    source: int
    rounds: tuple[Configuration, ...]
    round_sets: tuple[frozenset[int], ...]
    termination_round: int | None

    @property
    def total_sends(self) -> int:
        return sum(len(c) for c in self.rounds)

    @_acyclic
    def to_json_obj(self) -> dict:
        return {
            "source": self.source,
            "rounds": [[[u, v] for u, v in sorted(c)] for c in self.rounds],
            "round_sets": [sorted(rs) for rs in self.round_sets],
            "termination_round": self.termination_round,
        }


def _forward(g: Graph, config) -> tuple[frozenset[int], Configuration]:
    """One round in a single pass over ``config``'s arcs: the nodes receiving
    this round and the sends they make next, each to every neighbour that did
    not just send to it. The one forward rule of the package; both engines
    call it."""
    edge_set = g.edge_set
    inbox: dict[int, set[int]] = {}
    for u, v in config:
        if ((u, v) if u < v else (v, u)) not in edge_set:
            raise InternalInvariantError(f"in-flight arc {(u, v)} is not an edge")
        senders = inbox.get(v)
        if senders is None:
            inbox[v] = {u}
        else:
            senders.add(u)
    adj = g.adj
    out = frozenset([(v, w) for v, senders in inbox.items()
                     for w in adj[v] if w not in senders])
    return frozenset(inbox), out


def step(g: Graph, config: Configuration) -> Configuration:
    """One synchronous round: receivers of ``config`` forward to everyone who
    did not just send to them. Pure; consults no state besides its arguments."""
    return _forward(g, config)[1]


@_acyclic
def run_sync(g: Graph, source: int, max_rounds: int | None = None) -> Trace:
    """Flood from ``source`` until no message is in flight.

    ``max_rounds`` defaults to 2n+2, one beyond the proven termination bound,
    so a run that would exceed it surfaces as an engine bug rather than being
    silently truncated. Running out of rounds raises RoundBudgetError, and an
    in-flight arc that is not an edge InternalInvariantError, each with the
    partial trace. A node landing in more than two round-sets is likewise a
    hard error.
    """
    _check_floodable(g, source)
    return _run(g, source, max_rounds)


def _check_floodable(g: Graph, source: int) -> None:
    """The precondition both engines check first: ``source`` is a node of a
    connected ``g``."""
    g.check_node(source)
    if not is_connected(g):
        raise DisconnectedGraphError("flooding needs a connected graph")


def _run(g: Graph, source: int, max_rounds: int | None = None) -> Trace:
    """run_sync on a graph the caller has already proved connected."""
    if max_rounds is None:
        max_rounds = 2 * g.n + 2

    cur: Configuration = frozenset((source, w) for w in g.adj[source])
    rounds: list[Configuration] = []
    round_sets: list[frozenset[int]] = [frozenset((source,))]
    counts = [0] * g.n
    counts[source] = 1
    while cur:
        if len(rounds) >= max_rounds:
            partial = Trace(g.n, source, tuple(rounds), tuple(round_sets), None)
            raise RoundBudgetError(
                f"still active after {max_rounds} rounds on n={g.n}", partial)
        rounds.append(cur)
        try:
            receivers, cur = _forward(g, cur)
        except InternalInvariantError as exc:
            exc.trace = Trace(g.n, source, tuple(rounds), tuple(round_sets), None)
            raise
        round_sets.append(receivers)
        for v in receivers:
            counts[v] += 1

    trace = Trace(g.n, source, tuple(rounds), tuple(round_sets), len(rounds))
    most = max(counts)
    if most > 2:
        raise InternalInvariantError(
            f"node {counts.index(most)} received in {most} distinct round-sets", trace)
    return trace


def round_multiplicity(trace: Trace) -> dict[int, int]:
    """Number of distinct round-sets containing each node."""
    counts = {v: 0 for v in range(trace.n)}
    for rs in trace.round_sets:
        for v in rs:
            counts[v] += 1
    return counts
