"""Synchronous amnesiac flooding.

Each round, every node that just received the token forwards it to all
neighbours except those it received it from, keeping no other state. A
configuration is the set of directed sends of one round; the empty
configuration is absorbing.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .graph import DisconnectedGraphError, Graph
from .jsonio import Encoded

Arc = tuple[int, int]
Configuration = frozenset[Arc]


class InternalInvariantError(RuntimeError):
    """The engine produced a state that contradicts its own guarantees."""

    def __init__(self, message: str, trace: "Trace | None" = None):
        super().__init__(message)
        self.trace = trace


class RoundBudgetError(InternalInvariantError):
    """A run was still active when its round budget ran out."""


# A round's inbox maps each node receiving in it to the mask of positions in
# its sorted adjacency list whose neighbours just sent to it. Round 0's inbox
# is {source: 0}: the source hears from nobody, so it sends to everyone.
Inbox = dict[int, int]


@dataclass(frozen=True)
class Trace:
    """Complete record of one synchronous run, kept as the kernel left it.

    inboxes[t] is the inbox of round t, with inboxes[0] = {source: 0}.
    rounds[i] is the set of directed sends of round i+1 and round_sets[i] the
    set of nodes receiving in round i; both are derived on first use.
    termination_round is the index of the last non-empty round-set, or None
    for the partial trace of a run that did not finish.
    """

    graph: Graph
    source: int
    inboxes: tuple[Inbox, ...]
    termination_round: int | None

    @functools.cached_property
    def rounds(self) -> tuple[Configuration, ...]:
        return tuple(frozenset(_arcs(self.graph, ib)) for ib in self.inboxes[1:])

    @functools.cached_property
    def round_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.inboxes))

    @property
    def total_sends(self) -> int:
        return sum(sum(map(int.bit_count, ib.values())) for ib in self.inboxes)

    def to_json_obj(self) -> dict:
        adj, rev = self.graph.adj, self.graph.rev
        rounds = []
        for prev, inbox in zip(self.inboxes, self.inboxes[1:]):
            # The senders of round t received in round t-1: walking them in
            # id order yields the sends sorted, written as text one block of
            # senders at a time. It beat decoding each receiver's mask and
            # sorting: 0.27 s against 0.37 s on perfbench's large_sparse.
            get = inbox.get
            senders = sorted(prev)
            texts, count = [], 0
            for i in range(0, len(senders), _SENDER_BLOCK):
                if sends := [f"[{u},{v}]" for u in senders[i:i + _SENDER_BLOCK]
                             for v, b in zip(adj[u], rev[u]) if get(v, 0) >> b & 1]:
                    texts.append(",".join(sends))
                    count += len(sends)
            if count < sum(map(int.bit_count, inbox.values())):
                # a send whose sender did not receive the round before: only
                # a broken kernel records one
                texts = [f"[{u},{v}]" for u, v in sorted(_arcs(self.graph, inbox))]
            rounds.append(f"[{','.join(texts)}]")
        return {
            "source": self.source,
            "rounds": Encoded.array(rounds),
            "round_sets": [sorted(ib) for ib in self.inboxes],
            "termination_round": self.termination_round,
        }


# Senders whose sends Trace.to_json_obj joins into one text at a time. A
# block bounds the send texts alive at once: joining a round's sends in one
# list peaks at 4.4-4.8x the trace text on perfbench's large_sparse
# (tracemalloc), blocks of 256 at 2.1x, and they run no slower.
_SENDER_BLOCK = 256


def _forward(g: Graph, inbox: Inbox) -> Inbox:
    """One round: each node in ``inbox`` sends to every neighbour outside its
    mask, and the result is the next round's inbox. The one forward rule of
    the package; both engines call it."""
    adj, rev = g.adj, g.rev
    nxt: Inbox = {}
    get = nxt.get
    for v, m in inbox.items():
        back = rev[v]
        for i, w in enumerate(adj[v]):
            if not m >> i & 1:
                nxt[w] = get(w, 0) | 1 << back[i]
    return nxt


def _inbox(g: Graph, arcs) -> Inbox:
    """The inbox receiving the sends ``arcs``: the boundary where arc sets
    enter the kernel, and so where an arc that is not an edge is caught."""
    adj, n = g.adj, g.n
    inbox: Inbox = {}
    for u, v in arcs:
        nbrs = adj[v] if 0 <= v < n else ()
        i = bisect_left(nbrs, u)
        if i == len(nbrs) or nbrs[i] != u:
            raise InternalInvariantError(f"in-flight arc {(u, v)} is not an edge")
        inbox[v] = inbox.get(v, 0) | 1 << i
    return inbox


def _arcs(g: Graph, inbox: Inbox) -> list[Arc]:
    """The sends an inbox receives, as (sender, receiver) arcs."""
    adj = g.adj
    arcs = []
    for v, m in inbox.items():
        nbrs = adj[v]
        while m:
            low = m & -m
            arcs.append((nbrs[low.bit_length() - 1], v))
            m ^= low
    return arcs


def step(g: Graph, config: Configuration) -> Configuration:
    """One synchronous round: receivers of ``config`` forward to everyone who
    did not just send to them. Pure; consults no state besides its arguments."""
    return frozenset(_arcs(g, _forward(g, _inbox(g, config))))


def run_sync(g: Graph, source: int, max_rounds: int | None = None) -> Trace:
    """Flood from ``source`` until no message is in flight.

    ``max_rounds`` defaults to 2n+2, one beyond the proven termination bound,
    so a run that would exceed it surfaces as an engine bug rather than being
    silently truncated; a budget below 1 is refused with ValueError. Running
    out of rounds raises RoundBudgetError with the partial trace, and a node
    landing in more than two round-sets InternalInvariantError with the full one.
    """
    _check_floodable(g, source, max_rounds)
    inboxes = _flood(g, source, max_rounds)[0]
    return Trace(g, source, tuple(inboxes), len(inboxes) - 1)


def _check_floodable(g: Graph, source: int, max_rounds: int | None) -> None:
    """The precondition both engines check first: ``source`` is a node of a
    connected ``g``, and a given round budget ``max_rounds`` is at least 1."""
    g.check_node(source)
    if not g.connected:
        raise DisconnectedGraphError("flooding needs a connected graph")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")


class Receipts(NamedTuple):
    """Each node's first and second receipt round (None when missing) and
    its number of receipts."""

    first: list[int | None]
    second: list[int | None]
    count: list[int]


def _receipts(n: int, round_sets) -> Receipts:
    """The Receipts of the nodes 0..n-1 over ``round_sets``, the nodes
    receiving in each round from round 0 on, in one pass."""
    first: list[int | None] = [None] * n
    second: list[int | None] = [None] * n
    count = [0] * n
    for t, nodes in enumerate(round_sets):
        for v in nodes:
            c = count[v]
            if c == 0:
                first[v] = t
            elif c == 1:
                second[v] = t
            count[v] = c + 1
    return Receipts(first, second, count)


def _flood(g: Graph, source: int,
           max_rounds: int | None = None) -> tuple[list[Inbox], Receipts]:
    """The inbox of every round of a run from ``source``, from round 0 to the
    termination round, and the run's receipts, on a graph the caller has
    already proved connected. The errors run_sync documents carry the Trace,
    built only then."""
    if max_rounds is None:
        max_rounds = 2 * g.n + 2
    inboxes: list[Inbox] = [{source: 0}]
    while inbox := _forward(g, inboxes[-1]):
        if len(inboxes) > max_rounds:
            raise RoundBudgetError(f"still active after {max_rounds} rounds on n={g.n}",
                                   Trace(g, source, tuple(inboxes), None))
        inboxes.append(inbox)
    receipts = _receipts(g.n, inboxes)
    most = max(receipts.count)
    if most > 2:
        raise InternalInvariantError(
            f"node {receipts.count.index(most)} received in {most} distinct round-sets",
            Trace(g, source, tuple(inboxes), len(inboxes) - 1))
    return inboxes, receipts


def round_multiplicity(trace: Trace) -> dict[int, int]:
    """Number of distinct round-sets containing each node."""
    return dict(enumerate(_receipts(trace.graph.n, trace.inboxes).count))
