"""Round-asynchronous amnesiac flooding.

Computation still proceeds in global rounds, but an adversary decides, per
in-flight message, whether it arrives this round or waits. A message may wait
at most ``hold_cap`` rounds (eventual delivery); arrivals merged at a node in
one round count as a single receipt event, and the node answers everyone who
did not just reach it. For schedulers that are pure functions of the
configuration, an exact configuration recurrence certifies non-termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, _acyclic
from .sync_engine import (Arc, InternalInvariantError, Trace, _arcs, _check_floodable,
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

    decide() sees the round-start configuration alone and returns the arcs
    (sender, receiver) to hold this round; every other message arrives.
    ``deterministic`` declares it to be a pure function of that configuration;
    only then can a repeated configuration certify non-termination. ``bind``
    is called once at the start of each run.
    """

    deterministic = False

    def bind(self, g: Graph) -> None:
        pass

    def decide(self, config: AsyncConfiguration) -> frozenset[Arc]:
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


@dataclass(frozen=True)
class AsyncRound:
    """One executed round: the round-start pool and how it was resolved."""

    pool: AsyncConfiguration
    delivered: AsyncConfiguration
    held: AsyncConfiguration
    receipts: frozenset[int]

    def to_json_obj(self) -> dict:
        return {
            "pool": [list(msg) for msg in sorted(self.pool)],
            "delivered": [list(msg) for msg in sorted(self.delivered)],
            "held": [list(msg) for msg in sorted(self.held)],
            "receipts": sorted(self.receipts),
        }


@dataclass(frozen=True)
class AsyncVerdict:
    """Outcome of a round-asynchronous run plus its full per-round record."""

    graph: Graph = field(compare=False, repr=False)
    n: int
    source: int
    outcome: str
    termination_round: int | None
    first_seen: int | None
    period: int | None
    rounds: tuple[AsyncRound, ...]
    round_sets: tuple[frozenset[int], ...]

    @_acyclic
    def to_json_obj(self) -> dict:
        return {
            "source": self.source,
            "verdict": {
                "outcome": self.outcome,
                "termination_round": self.termination_round,
                "first_seen": self.first_seen,
                "period": self.period,
            },
            "rounds": [r.to_json_obj() for r in self.rounds],
            "round_sets": [sorted(rs) for rs in self.round_sets],
        }

    def to_sync_trace(self) -> Trace:
        """Reinterpret a hold-free terminated run as a synchronous trace."""
        if self.outcome != OUTCOME_TERMINATED:
            raise ValueError(f"run did not terminate (outcome={self.outcome})")
        if any(rec.held for rec in self.rounds):
            raise ValueError("run used holds; it has no synchronous equivalent")
        g = self.graph
        inboxes = ({self.source: 0},
                   *(_inbox(g, ((u, v) for u, v, _ in rec.delivered)) for rec in self.rounds))
        return Trace(g, self.source, inboxes, self.termination_round)


def _execute_round(g: Graph, pool: AsyncConfiguration, hold: frozenset[Arc],
                   hold_cap: int) -> tuple[AsyncConfiguration, AsyncRound]:
    """Resolve one round from the round-start ``pool``, holding the messages
    on the arcs in ``hold`` and delivering the rest. Pure: returns the next
    round-start pool and the round's record."""
    if hold:
        ages = {(u, v): age for u, v, age in pool}
        for arc in hold:
            if arc not in ages:
                raise UnfairScheduleError(f"adversary held {arc} which is not in flight")
            if ages[arc] >= hold_cap:
                raise UnfairScheduleError(
                    f"message on {arc} held past the {hold_cap}-round cap")
        held = frozenset([(u, v, ages[u, v]) for u, v in hold])
        delivered = pool - held
    else:
        delivered, held = pool, frozenset()
    inbox = _inbox(g, ((u, v) for u, v, _age in delivered))
    sends = _arcs(g, _forward(g, inbox))
    # a fresh send on an arc that already carries a held copy collapses into
    # it; the token is a single indistinguishable M
    nxt = frozenset([(u, v, age + 1) for u, v, age in held]
                    + [(u, v, 0) for u, v in sends if (u, v) not in hold])
    return nxt, AsyncRound(pool=pool, delivered=delivered, held=held,
                           receipts=frozenset(inbox))


def run_async(g: Graph, source: int, adversary: Adversary,
              max_rounds: int | None = None, hold_cap: int = 1) -> AsyncVerdict:
    """Drive flooding with ``adversary`` choosing per-message delays.

    ``max_rounds`` defaults to 64. Terminates when nothing is in flight. For a
    scheduler declared deterministic, an exact repeat of a round-start
    configuration yields a cycle verdict, certified by replaying one full
    period and requiring the recorded segment to repeat exactly (the replayed
    rounds stay in the record). Otherwise the round budget runs out and the
    verdict is exhaustion.
    """
    _check_floodable(g, source)
    if max_rounds is None:
        max_rounds = 64
    if hold_cap < 1:
        raise ValueError(f"hold_cap must be >= 1, got {hold_cap}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")

    adversary.bind(g)
    pool: AsyncConfiguration = frozenset((source, w, 0) for w in g.adj[source])
    rounds: list[AsyncRound] = []

    def verdict(outcome: str, termination_round: int | None = None,
                first_seen: int | None = None, period: int | None = None):
        round_sets = (frozenset((source,)), *(rec.receipts for rec in rounds))
        return AsyncVerdict(g, g.n, source, outcome, termination_round, first_seen,
                            period, tuple(rounds), round_sets)

    seen: dict[AsyncConfiguration, int] = {}
    r = 0
    while pool:
        r += 1
        if r > max_rounds:
            return verdict(OUTCOME_EXHAUSTED)
        if adversary.deterministic:
            if pool in seen:
                break
            seen[pool] = r
        pool, record = _execute_round(g, pool, adversary.decide(pool), hold_cap)
        rounds.append(record)
    if not pool:
        return verdict(OUTCOME_TERMINATED, termination_round=r)

    first = seen[pool]
    period = r - first
    # Certify: one more period must reproduce the recorded segment exactly.
    for k in range(period):
        if pool != rounds[first - 1 + k].pool:
            raise InternalInvariantError("configuration cycle failed to replay")
        pool, record = _execute_round(g, pool, adversary.decide(pool), hold_cap)
        rounds.append(record)
    if pool != rounds[first - 1].pool:
        raise InternalInvariantError("configuration cycle failed to close")
    return verdict(OUTCOME_CYCLE, first_seen=first, period=period)
