"""Round-asynchronous amnesiac flooding.

Computation still proceeds in global rounds, but an adversary decides, per
in-flight message, whether it arrives this round or waits. A message may wait
at most ``hold_cap`` rounds (eventual delivery); arrivals merged at a node in
one round count as a single receipt event, and the node answers everyone who
did not just reach it. For schedulers that are pure functions of the
configuration, an exact configuration recurrence certifies non-termination.
"""

from __future__ import annotations

import functools
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

from .graph import Graph
from .jsonio import ArrayWriter
from .sync_engine import (Arc, Inbox, InternalInvariantError, Trace, _arcs, _check_floodable,
                          _forward, _inbox)

Message = tuple[int, int, int]  # (sender, receiver, rounds already held)
AsyncConfiguration = frozenset[Message]

OUTCOME_TERMINATED = "terminated"
OUTCOME_CYCLE = "cycle"
OUTCOME_EXHAUSTED = "exhausted"


class UnfairScheduleError(ValueError):
    """The adversary tried to hold a message past the fairness cap."""


class Adversary:
    """Per-round delivery scheduler.

    decide() sees the round-start configuration alone, a read-only set of
    messages, and returns the arcs (sender, receiver) to hold this round;
    every other message arrives. ``deterministic`` declares it to be a pure
    function of that configuration; only then can a repeated configuration
    certify non-termination. ``bind`` is called once at the start of each run.
    """

    deterministic = False

    def bind(self, g: Graph) -> None:
        pass

    def decide(self, config: Set[Message]) -> frozenset[Arc]:
        raise NotImplementedError


class ZeroDelayAdversary(Adversary):
    """Delivers everything immediately, reducing the run to the synchronous one."""

    deterministic = True

    def decide(self, config):
        return frozenset()


class HoldSecondSenderAdversary(Adversary):
    """On a triangle, whenever exactly two messages converge on one node, the
    lower-id sender gets through and the other message waits one round. That
    keeps a two-node exchange alive forever, so flooding never drains. On any
    other graph it makes no holds at all."""

    deterministic = True
    _active = False

    def bind(self, g: Graph) -> None:
        self._active = g.n == 3 and g.m == 3

    def decide(self, config):
        if not self._active or len(config) != 2:
            return frozenset()
        (u1, v1, _a1), (u2, v2, a2) = sorted(config)
        if v1 == v2 and u1 != u2 and a2 == 0:
            return frozenset(((u2, v2),))
        return frozenset()


# The adversaries the CLI offers as ``--mode async:NAME``.
ADVERSARIES = {"zero": ZeroDelayAdversary, "fig6": HoldSecondSenderAdversary}


class _Pool(Set):
    """A round-start pool: one inbox per message age, from 0 up to the oldest
    age in flight, no arc in two of them. As a set it holds the messages
    (sender, receiver, age), decoded on first read: decide() is handed it, so
    a scheduler that reads nothing costs no decoding."""

    __slots__ = ("graph", "inboxes", "_decoded")

    def __init__(self, g: Graph, inboxes: tuple[Inbox, ...]):
        self.graph, self.inboxes, self._decoded = g, inboxes, None

    @property
    def messages(self) -> AsyncConfiguration:
        if self._decoded is None:
            self._decoded = frozenset(_messages(self.graph, self.inboxes))
        return self._decoded

    def __contains__(self, msg) -> bool:
        return msg in self.messages

    def __iter__(self):
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __hash__(self) -> int:
        return hash(self.messages)


def _messages(g: Graph, inboxes: tuple[Inbox, ...]) -> list[Message]:
    """The messages (sender, receiver, age) of ``inboxes``."""
    return [(u, v, age) for age, inbox in enumerate(inboxes) for u, v in _arcs(g, inbox)]


def _messages_text(g: Graph, inboxes: tuple[Inbox, ...]) -> str:
    """The messages of ``inboxes`` as the JSON text of their sorted
    [sender, receiver, age] list."""
    return f"[{','.join(['[%d,%d,%d]' % m for m in sorted(_messages(g, inboxes))])}]"


@dataclass(frozen=True, slots=True)
class AsyncRound:
    """One executed round: its round-start inboxes and the inboxes it held, per
    age. The message sets pool, delivered and held, and the receipts, are
    derived."""

    graph: Graph = field(compare=False, repr=False)
    inboxes: tuple[Inbox, ...]
    held_inboxes: tuple[Inbox, ...]

    @property
    def pool(self) -> AsyncConfiguration:
        return frozenset(_messages(self.graph, self.inboxes))

    @property
    def held(self) -> AsyncConfiguration:
        return frozenset(_messages(self.graph, self.held_inboxes))

    @property
    def delivered(self) -> AsyncConfiguration:
        return self.pool - self.held

    @property
    def receipts(self) -> frozenset[int]:
        return frozenset(_union(_delivered(self.inboxes, self.held_inboxes)))

    def _json_text(self) -> tuple[str, str]:
        """The round's JSON record as text, and its sorted receipts as text."""
        g, inboxes, held = self.graph, self.inboxes, self.held_inboxes
        delivered = _delivered(inboxes, held)
        pool = _messages_text(g, inboxes)
        texts = (_messages_text(g, delivered), _messages_text(g, held)) if held else (pool, "[]")
        receipts = f"[{','.join(map(str, sorted(_union(delivered))))}]"
        return ('{"delivered":%s,"held":%s,"pool":%s,"receipts":%s}'
                % (*texts, pool, receipts), receipts)


@dataclass(frozen=True)
class AsyncVerdict:
    """Outcome of a round-asynchronous run plus its full per-round record;
    round_sets, the source then each round's receipts, is derived on first use."""

    graph: Graph = field(compare=False, repr=False)
    source: int
    outcome: str
    termination_round: int | None
    first_seen: int | None
    period: int | None
    rounds: tuple[AsyncRound, ...]

    @functools.cached_property
    def round_sets(self) -> tuple[frozenset[int], ...]:
        return (frozenset((self.source,)), *(rec.receipts for rec in self.rounds))

    def to_json_obj(self) -> dict:
        records, round_sets = ArrayWriter(), ArrayWriter()
        round_sets.add(f"[{self.source}]")
        for rec in self.rounds:
            record, receipts = rec._json_text()
            records.add(record)
            round_sets.add(receipts)
        return {
            "source": self.source,
            "verdict": {
                "outcome": self.outcome,
                "termination_round": self.termination_round,
                "first_seen": self.first_seen,
                "period": self.period,
            },
            "rounds": records.close(),
            "round_sets": round_sets.close(),
        }

    def to_sync_trace(self) -> Trace:
        """Reinterpret a hold-free terminated run as a synchronous trace."""
        if self.outcome != OUTCOME_TERMINATED:
            raise ValueError(f"run did not terminate (outcome={self.outcome})")
        if any(rec.held_inboxes for rec in self.rounds):
            raise ValueError("run used holds; it has no synchronous equivalent")
        inboxes = ({self.source: 0}, *(rec.inboxes[0] for rec in self.rounds))
        return Trace(self.graph, self.source, inboxes, self.termination_round)


def _minus(inbox: Inbox, other: Inbox) -> Inbox:
    """The arcs of ``inbox`` outside ``other``."""
    return {v: rest for v, m in inbox.items() if (rest := m & ~other.get(v, 0))}


def _union(inboxes: tuple[Inbox, ...]) -> Inbox:
    """The arcs of all ``inboxes``; a lone inbox is returned as it is."""
    if len(inboxes) == 1:
        return inboxes[0]
    out: Inbox = {}
    for inbox in inboxes:
        for v, m in inbox.items():
            out[v] = out.get(v, 0) | m
    return out


def _delivered(inboxes: tuple[Inbox, ...], held: tuple[Inbox, ...]) -> tuple[Inbox, ...]:
    """Per age, the arcs of ``inboxes`` outside ``held``, whose ages are a prefix of theirs."""
    return (*map(_minus, inboxes, held), *inboxes[len(held):])


def _execute_round(g: Graph, inboxes: tuple[Inbox, ...], hold: frozenset[Arc],
                   hold_cap: int) -> tuple[tuple[Inbox, ...], AsyncRound]:
    """Resolve one round from the round-start pool ``inboxes``, holding the
    messages on the arcs in ``hold`` and delivering the rest. Pure: returns
    the next round-start pool's inboxes and the round's record."""
    held = ()
    if hold:
        # checked on the messages, before any held arc enters a mask
        ages = {(u, v): age for u, v, age in _messages(g, inboxes)}
        for arc in hold:
            if arc not in ages:
                raise UnfairScheduleError(f"adversary held {arc} which is not in flight")
            if ages[arc] >= hold_cap:
                raise UnfairScheduleError(
                    f"message on {arc} held past the {hold_cap}-round cap")
        held = tuple(_inbox(g, [arc for arc in hold if ages[arc] == age])
                     for age in range(max(map(ages.get, hold)) + 1))
    sends = _forward(g, _union(_delivered(inboxes, held)))
    if held:
        # a fresh send on an arc that already carries a held copy collapses
        # into it; the token is a single indistinguishable M
        sends = _minus(sends, _union(held))
    return (sends, *held) if sends or held else (), AsyncRound(g, inboxes, held)


def run_async(g: Graph, source: int, adversary: Adversary,
              max_rounds: int | None = None, hold_cap: int = 1) -> AsyncVerdict:
    """Drive flooding with ``adversary`` choosing per-message delays.

    ``max_rounds`` defaults to max(64, 2n+2), so a zero-delay run, which ends
    by round 2n-3, never exhausts it. Terminates when nothing is in flight.
    For a scheduler declared deterministic, an exact repeat of a round-start
    configuration yields a cycle verdict, certified by replaying one full
    period and requiring the recorded segment to repeat exactly (the replayed
    rounds stay in the record). Otherwise the round budget runs out and the
    verdict is exhaustion.
    """
    _check_floodable(g, source, max_rounds)
    if max_rounds is None:
        max_rounds = max(64, 2 * g.n + 2)
    if hold_cap < 1:
        raise ValueError(f"hold_cap must be >= 1, got {hold_cap}")

    adversary.bind(g)
    inboxes: tuple[Inbox, ...] = (_forward(g, {source: 0}),)
    rounds: list[AsyncRound] = []

    def verdict(outcome: str, termination_round: int | None = None,
                first_seen: int | None = None, period: int | None = None):
        return AsyncVerdict(g, source, outcome, termination_round, first_seen,
                            period, tuple(rounds))

    def key(ibs):  # each age's (v, m) as the ints m*n+v, one-to-one as v < n
        return tuple([frozenset(map(add, ib, map(mul, ib.values(), repeat(g.n)))) for ib in ibs])

    # Pools are keyed from a deterministic adversary's first hold on: until
    # then the run is the synchronous one, which terminates, so none repeats.
    seen: dict[tuple[frozenset[int], ...], int] | None = None
    r = 0
    while inboxes:
        r += 1
        if r > max_rounds:
            return verdict(OUTCOME_EXHAUSTED)
        if seen is not None and seen.setdefault(key(inboxes), r) < r:
            break
        inboxes, record = _execute_round(g, inboxes, adversary.decide(_Pool(g, inboxes)),
                                         hold_cap)
        rounds.append(record)
        if seen is None and record.held_inboxes and adversary.deterministic:
            seen = {key(rec.inboxes): t for t, rec in enumerate(rounds, 1)}
    if not inboxes:
        return verdict(OUTCOME_TERMINATED, termination_round=r)

    first = seen[key(inboxes)]
    period = r - first
    # Certify: one more period must reproduce the recorded segment exactly.
    for k in range(period):
        if inboxes != rounds[first - 1 + k].inboxes:
            raise InternalInvariantError("configuration cycle failed to replay")
        inboxes, record = _execute_round(g, inboxes, adversary.decide(_Pool(g, inboxes)),
                                         hold_cap)
        rounds.append(record)
    if inboxes != rounds[first - 1].inboxes:
        raise InternalInvariantError("configuration cycle failed to close")
    return verdict(OUTCOME_CYCLE, first_seen=first, period=period)
