from __future__ import annotations

import gc
import json
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amflood.async_engine import (Adversary, HoldSecondSenderAdversary, OUTCOME_CYCLE,
                                  OUTCOME_EXHAUSTED, OUTCOME_TERMINATED,
                                  UnfairScheduleError, ZeroDelayAdversary,
                                  run_async)
from amflood.graph import Graph, gen_named, parse_edge_list
from amflood.jsonio import dumps_stable
from amflood.sync_engine import (InternalInvariantError, _arcs, _forward, _inbox,
                                 run_sync, step)

from conftest import connected_graph

TRIANGLE = parse_edge_list("a b\nb c\nc a")  # a=0, b=1, c=2

GOLDEN = [
    ("hypercube", 3, 0), ("petersen", None, 0), ("path", 4, 1),
    ("cycle", 3, 1), ("cycle", 5, 0), ("cycle", 6, 0),
]


def _named(kind, param):
    return gen_named(kind, param) if param else gen_named(kind)


# ----------------------------------------------------------- zero-delay runs

@pytest.mark.parametrize("kind,param,source", GOLDEN)
def test_zero_delay_equals_sync_byte_for_byte(kind, param, source):
    g = _named(kind, param)
    verdict = run_async(g, source, ZeroDelayAdversary())
    assert verdict.outcome == OUTCOME_TERMINATED
    sync_bytes = dumps_stable(run_sync(g, source).to_json_obj())
    async_bytes = dumps_stable(verdict.to_sync_trace().to_json_obj())
    assert async_bytes == sync_bytes


def test_zero_delay_cycle6_terminates_in_three():
    v = run_async(gen_named("cycle", 6), 1, ZeroDelayAdversary())
    assert (v.outcome, v.termination_round) == (OUTCOME_TERMINATED, 3)


def test_fig6_on_even_cycle_degenerates_to_zero_delay():
    v = run_async(gen_named("cycle", 6), 1, HoldSecondSenderAdversary())
    assert (v.outcome, v.termination_round) == (OUTCOME_TERMINATED, 3)
    assert all(not rec.held for rec in v.rounds)


# --------------------------------------------------------- triangle schedule

def test_fig6_triangle_first_rounds_match_schedule():
    b = TRIANGLE.resolve("b")
    v = run_async(TRIANGLE, b, HoldSecondSenderAdversary(), max_rounds=16)
    r = v.rounds
    # round 1: b floods both neighbours
    assert r[0].delivered == frozenset({(1, 0, 0), (1, 2, 0)})
    # round 2: a and c exchange
    assert r[1].delivered == frozenset({(0, 2, 0), (2, 0, 0)})
    # round 3: a's message reaches b, c's waits a round
    assert r[2].delivered == frozenset({(0, 1, 0)})
    assert r[2].held == frozenset({(2, 1, 0)})
    # round 4: b answers c while c's held message arrives
    assert r[3].pool == frozenset({(1, 2, 0), (2, 1, 1)})
    assert r[3].receipts == frozenset({1, 2})


def test_fig6_triangle_detects_cycle():
    v = run_async(TRIANGLE, 1, HoldSecondSenderAdversary(), max_rounds=16)
    assert v.outcome == OUTCOME_CYCLE
    assert v.first_seen == 3 and v.period == 4
    # independent first-repeat scan over the recorded round-start pools
    seen = {}
    for idx, rec in enumerate(v.rounds, start=1):
        if rec.pool in seen:
            assert (seen[rec.pool], idx - seen[rec.pool]) == (3, 7 - 3)
            break
        seen[rec.pool] = idx
    else:
        pytest.fail("no repeated configuration in the record")


def test_fig6_triangle_every_source_and_budget():
    for source in range(3):
        v = run_async(gen_named("cycle", 3), source, HoldSecondSenderAdversary(),
                      max_rounds=64)
        assert v.outcome == OUTCOME_CYCLE
        first_repeat = v.first_seen + v.period
        assert first_repeat <= 16
        # cycle for every budget at or past the first repeat, never terminated
        for budget in (first_repeat, 16, 64):
            again = run_async(gen_named("cycle", 3), source, HoldSecondSenderAdversary(),
                              max_rounds=budget)
            assert again.outcome == OUTCOME_CYCLE
        short = run_async(gen_named("cycle", 3), source, HoldSecondSenderAdversary(),
                          max_rounds=first_repeat - 1)
        assert short.outcome == OUTCOME_EXHAUSTED


def test_fig6_replay_segment_repeats_exactly():
    v = run_async(TRIANGLE, 1, HoldSecondSenderAdversary(), max_rounds=16)
    first, period = v.first_seen, v.period
    assert len(v.rounds) >= first - 1 + 2 * period
    for k in range(period):
        a = v.rounds[first - 1 + k]
        b = v.rounds[first - 1 + period + k]
        assert a.pool == b.pool and a.held == b.held


class _Fig6ThenSilent(HoldSecondSenderAdversary):
    """Declares itself deterministic, yet holds as fig6 only for its first
    five decisions and never after."""

    decisions = 0

    def decide(self, config):
        self.decisions += 1
        return super().decide(config) if self.decisions <= 5 else frozenset()


def test_cycle_certificate_catches_a_falsely_deterministic_adversary():
    # round 7 starts from round 3's pool, as under fig6, but the replay's
    # first decision no longer holds, so its next pool is not round 4's
    with pytest.raises(InternalInvariantError,
                       match="^configuration cycle failed to replay$"):
        run_async(TRIANGLE, 0, _Fig6ThenSilent())


class _Fig6SwervingAt(HoldSecondSenderAdversary):
    """Declares itself deterministic and decides as fig6, except at decision
    ``swerve``: there it holds the smallest age-0 message, or holds nothing
    where fig6 would hold."""

    def __init__(self, swerve: int):
        self.swerve, self.decisions = swerve, 0

    def decide(self, config):
        self.decisions += 1
        hold = super().decide(config)
        if self.decisions != self.swerve:
            return hold
        return frozenset() if hold else frozenset([min((u, v) for u, v, age in config
                                                       if age == 0)])


def test_cycle_certificate_catches_a_swerve_in_the_last_replayed_decision():
    # From node 0 fig6 first sees round 3's pool again in round 7 (period 4),
    # so decisions 7-10 replay rounds 3-6. Every replayed pool matches until
    # the 10th decision, whose round must hand back round 3's pool.
    assert run_async(TRIANGLE, 0, _Fig6SwervingAt(11)).outcome == OUTCOME_CYCLE
    with pytest.raises(InternalInvariantError,
                       match="^configuration cycle failed to close$"):
        run_async(TRIANGLE, 0, _Fig6SwervingAt(10))


def test_small_budget_exhausts_before_cycle():
    v = run_async(TRIANGLE, 1, HoldSecondSenderAdversary(), max_rounds=2)
    assert v.outcome == OUTCOME_EXHAUSTED
    assert v.termination_round is None


def test_zero_round_budget_is_rejected():
    with pytest.raises(ValueError, match="^max_rounds must be >= 1, got 0$"):
        run_async(TRIANGLE, 0, ZeroDelayAdversary(), max_rounds=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_both_engines_refuse_a_budget_below_one(budget):
    # a caller's bad budget is refused as bad input by the one precondition
    # both engines share, never reported as an engine fault, and ahead of a
    # bad hold cap
    message = f"^max_rounds must be >= 1, got {budget}$"
    with pytest.raises(ValueError, match=message):
        run_sync(TRIANGLE, 0, max_rounds=budget)
    with pytest.raises(ValueError, match=message):
        run_async(TRIANGLE, 0, ZeroDelayAdversary(), max_rounds=budget, hold_cap=0)


def test_zero_hold_cap_is_rejected():
    # the CLI refuses such a cap itself, before it opens --out
    with pytest.raises(ValueError, match="^hold_cap must be >= 1, got 0$"):
        run_async(TRIANGLE, 0, ZeroDelayAdversary(), hold_cap=0)


# ----------------------------------------------------------------- fairness

class _Stubborn(Adversary):
    deterministic = False

    def decide(self, config):
        # keep holding the lexicographically largest message forever
        if config:
            u, v, _ = max(config)
            return frozenset(((u, v),))
        return frozenset()


def test_holding_past_cap_is_rejected():
    with pytest.raises(UnfairScheduleError):
        run_async(TRIANGLE, 1, _Stubborn(), hold_cap=1)


def test_round_rejects_a_non_edge_message():
    # A pool of masks cannot hold an arc that is not an edge, so the check
    # sits where arcs still enter the masks: _inbox, which step calls on its
    # configuration and the async engine on the arcs an adversary holds once
    # they are known to be in flight.
    g = gen_named("path", 4)
    for enter in (lambda: step(g, frozenset({(0, 3)})), lambda: _inbox(g, [(0, 3)])):
        with pytest.raises(InternalInvariantError,
                           match=r"^in-flight arc \(0, 3\) is not an edge$"):
            enter()


def test_decide_sees_the_pool_as_a_frozen_set_of_messages():
    class Recording(Adversary):
        def decide(self, config):
            msgs = frozenset(config)
            views.append((config == msgs, hash(config) == hash(msgs),
                          all(m in config for m in msgs), len(config) == len(msgs)))
            pools.append(msgs)
            return frozenset()

    views, pools = [], []
    v = run_async(gen_named("petersen"), 0, Recording())
    assert set(views) == {(True, True, True, True)}
    assert pools == [rec.pool for rec in v.rounds]


def test_holding_unknown_arc_is_rejected():
    class Bad(Adversary):
        def decide(self, config):
            return frozenset(((7, 8),))

    with pytest.raises(UnfairScheduleError):
        run_async(TRIANGLE, 1, Bad())


# --------------------------------------------- every schedule ends on a tree

def _step(g, state, held):
    """Independent one-round transition: every message of ``state`` except the
    ``held`` ones arrives. Returns the receiving nodes and the next state."""
    heldset = set(held)
    inbox: dict[int, set[int]] = {}
    for (u, v, a) in state:
        if (u, v, a) not in heldset:
            inbox.setdefault(v, set()).add(u)
    nxt = {(u, v): a + 1 for (u, v, a) in heldset}
    for v, senders in inbox.items():
        for w in g.adj[v]:
            if w not in senders:
                nxt.setdefault((v, w), 0)
    return frozenset(inbox), frozenset((u, v, a) for (u, v), a in nxt.items())


def _explore_all_schedules(g, source, hold_cap=1):
    """Independent exhaustion of every delay choice.

    Returns True when every reachable schedule drains, False when any choice
    sequence can revisit a configuration (which an adversary could repeat
    forever).
    """
    status: dict[frozenset, str] = {}

    def explore(state: frozenset) -> bool:
        if not state:
            return True
        st = status.get(state)
        if st == "done":
            return True
        if st == "open":
            return False
        status[state] = "open"
        holdable = [m for m in state if m[2] < hold_cap]
        for k in range(len(holdable) + 1):
            for held in combinations(holdable, k):
                if not explore(_step(g, state, held)[1]):
                    return False
        status[state] = "done"
        return True

    start = frozenset((source, w, 0) for w in g.adj[source])
    return explore(start)


def test_every_schedule_terminates_on_path4():
    g = gen_named("path", 4)
    assert _explore_all_schedules(g, 1)


def test_some_schedule_recurs_on_triangle():
    assert not _explore_all_schedules(TRIANGLE, 1)


class _DrawnHolds(Adversary):
    """Holds a subset, drawn afresh each round, of the messages that may
    still wait."""

    def __init__(self, data, hold_cap):
        self.data, self.hold_cap = data, hold_cap

    def decide(self, config):
        holdable = sorted(m for m in config if m[2] < self.hold_cap)
        keep = self.data.draw(st.lists(st.booleans(), min_size=len(holdable),
                                       max_size=len(holdable)))
        return frozenset((u, v) for (u, v, _), k in zip(holdable, keep) if k)


@settings(max_examples=120, deadline=None)
@given(connected_graph(), st.integers(1, 2), st.data())
def test_every_recorded_round_is_one_step(g, hold_cap, data):
    source = data.draw(st.integers(0, g.n - 1))
    v = run_async(g, source, _DrawnHolds(data, hold_cap), max_rounds=10,
                  hold_cap=hold_cap)
    state = frozenset((source, w, 0) for w in g.adj[source])
    for rec in v.rounds:
        assert rec.pool == state
        assert rec.held <= state and rec.delivered == state - rec.held
        receipts, state = _step(g, state, rec.held)
        assert rec.receipts == receipts
    assert (v.outcome == OUTCOME_TERMINATED) == (not state)


# ------------------------------------- differential: the triple-based engine

def _reference_round(g, pool, hold, hold_cap):
    """The round the per-age inbox engine replaced, kept as its
    specification: the pool is a frozenset of (sender, receiver, age)."""
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
    # a fresh send on an arc that already carries a held copy collapses
    # into it; the token is a single indistinguishable M
    nxt = frozenset([(u, v, age + 1) for u, v, age in held]
                    + [(u, v, 0) for u, v in sends if (u, v) not in hold])
    return nxt, (pool, delivered, held, frozenset(inbox))


def _reference_run(g, source, adversary, max_rounds, hold_cap):
    """run_async over _reference_round: (outcome, termination_round,
    first_seen, period, records), a record being (pool, delivered, held,
    receipts)."""
    adversary.bind(g)
    pool = frozenset((source, w, 0) for w in g.adj[source])
    rounds, seen, r = [], {}, 0
    while pool:
        r += 1
        if r > max_rounds:
            return OUTCOME_EXHAUSTED, None, None, None, rounds
        if adversary.deterministic:
            if pool in seen:
                break
            seen[pool] = r
        pool, record = _reference_round(g, pool, adversary.decide(pool), hold_cap)
        rounds.append(record)
    if not pool:
        return OUTCOME_TERMINATED, r, None, None, rounds
    first = seen[pool]
    for _ in range(r - first):
        pool, record = _reference_round(g, pool, adversary.decide(pool), hold_cap)
        rounds.append(record)
    return OUTCOME_CYCLE, None, first, r - first, rounds


def _reference_json(source, outcome, termination_round, first_seen, period, rounds) -> str:
    def listed(msgs):
        return [list(msg) for msg in sorted(msgs)]

    return dumps_stable({
        "source": source,
        "verdict": {"outcome": outcome, "termination_round": termination_round,
                    "first_seen": first_seen, "period": period},
        "rounds": [{"pool": listed(pool), "delivered": listed(delivered),
                    "held": listed(held), "receipts": sorted(receipts)}
                   for pool, delivered, held, receipts in rounds],
        "round_sets": [[source], *(sorted(rec[3]) for rec in rounds)],
    })


class _SeededHolds(Adversary):
    """Holds each message that may still wait when a bit of ``seed`` picked by
    the message and the pool size is set: a pure function of the
    configuration, so repeats are detected. With ``unfair`` it also holds
    messages at the cap, which the engine must refuse."""

    def __init__(self, seed, hold_cap, deterministic, unfair):
        self.seed, self.deterministic = seed, deterministic
        self.limit = hold_cap + unfair

    def decide(self, config):
        k = len(config)
        return frozenset((u, v) for u, v, age in config if age < self.limit
                         and self.seed >> ((7 * u + 3 * v + 5 * age + k) % 64) & 1)


@settings(max_examples=200, deadline=None)
@given(connected_graph(), st.integers(1, 3), st.integers(0, 2**64 - 1), st.booleans(),
       st.integers(1, 40), st.data())
def test_engine_matches_the_triple_based_reference(g, hold_cap, seed, deterministic,
                                                   max_rounds, data):
    source = data.draw(st.integers(0, g.n - 1))
    unfair = data.draw(st.sampled_from([False] * 4 + [True]))
    runs = []
    for run in (run_async, _reference_run):
        try:
            runs.append(run(g, source, _SeededHolds(seed, hold_cap, deterministic, unfair),
                            max_rounds=max_rounds, hold_cap=hold_cap))
        except UnfairScheduleError as exc:
            runs.append(type(exc))
    v, ref = runs
    if UnfairScheduleError in (v, ref):
        assert v is ref
        return
    _assert_same_run(v, ref, source)


def _assert_same_run(v, ref, source):
    """``v`` from run_async equals ``ref`` from _reference_run field for
    field and in JSON bytes."""
    *fields, rounds = ref
    assert [v.outcome, v.termination_round, v.first_seen, v.period] == fields
    assert len(v.rounds) == len(rounds)
    for rec, (pool, delivered, held, receipts) in zip(v.rounds, rounds):
        assert (rec.pool, rec.delivered, rec.held, rec.receipts) == (pool, delivered, held,
                                                                    receipts)
    assert v.round_sets == (frozenset((source,)), *(rec[3] for rec in rounds))
    assert dumps_stable(v.to_json_obj()) == _reference_json(source, *ref)


def test_a_cycle_opening_before_the_first_hold_is_found():
    # Pools are keyed only from a deterministic adversary's first hold on, so
    # the pools before it are keyed then, from the record. Here the cycle's
    # first pool is round 2's and the first hold comes in round 3: a key
    # that skipped the rounds before the hold would find the cycle late.
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    v, ref = [run(paw, 0, _SeededHolds(17472, 2, True, False), max_rounds=60, hold_cap=2)
              for run in (run_async, _reference_run)]
    assert (v.outcome, v.first_seen, v.period) == (OUTCOME_CYCLE, 2, 8)
    assert [t for t, rec in enumerate(v.rounds, 1) if rec.held][0] == 3
    _assert_same_run(v, ref, 0)


def test_zero_delay_run_peak_memory_is_bounded():
    # A zero-delay run keys no pool, and each round keeps only its pool's
    # inboxes and two slotted records. The engine that keyed every pool and
    # kept each round's receipts peaked at about 1,040 B per round here.
    g = gen_named("path", 20000)
    run_async(g, 0, ZeroDelayAdversary())  # builds the graph's cached rev and BFS first
    tracemalloc.start()
    try:
        v = run_async(g, 0, ZeroDelayAdversary())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.outcome == OUTCOME_TERMINATED and len(v.rounds) == 19999
    assert peak < 512 * len(v.rounds), peak / len(v.rounds)


def test_engine_agrees_on_scripted_path_schedules():
    g = gen_named("path", 4)

    class HoldMax(Adversary):
        deterministic = True

        def decide(self, config):
            fresh = [m for m in config if m[2] == 0]
            if fresh and len(config) > 1:
                u, v, _ = max(fresh)
                return frozenset(((u, v),))
            return frozenset()

    v = run_async(g, 1, HoldMax(), max_rounds=64)
    assert v.outcome == OUTCOME_TERMINATED


# ------------------------------------------------------------------- export

def test_async_json_shape():
    v = run_async(TRIANGLE, 1, HoldSecondSenderAdversary(), max_rounds=16)
    obj = json.loads(dumps_stable(v.to_json_obj()))
    assert set(obj) == {"source", "verdict", "rounds", "round_sets"}
    assert obj["verdict"]["outcome"] == "cycle"
    assert obj["verdict"]["first_seen"] == 3
    assert obj["verdict"]["period"] == 4
    rec = obj["rounds"][2]
    assert rec["held"] == [[2, 1, 0]]
    assert rec["pool"] == sorted(rec["pool"])


def test_to_sync_trace_refuses_a_run_that_did_not_terminate():
    v = run_async(TRIANGLE, 1, HoldSecondSenderAdversary(), max_rounds=16)
    with pytest.raises(ValueError, match="^run did not terminate"):
        v.to_sync_trace()


def test_to_sync_trace_refuses_a_terminated_run_with_holds():
    class HoldFirstSend(Adversary):
        def decide(self, config):
            return frozenset({(0, 1)}) if (0, 1, 0) in config else frozenset()

    v = run_async(gen_named("path", 3), 0, HoldFirstSend())
    assert v.outcome == OUTCOME_TERMINATED and v.rounds[0].held == {(0, 1, 0)}
    with pytest.raises(ValueError, match="^run used holds; "):
        v.to_sync_trace()


def test_verdict_json_pauses_the_collector():
    # The collector need not be paused while the builder runs: it writes every
    # message and round-set as text, joined in blocks, so what it leaves for
    # the cyclic collector is a few objects whatever the messages and rounds.
    # The builder that made a list per message added thousands of tracked
    # objects on hypercube:10, and the one that kept a list per round-set
    # added one per round on path:20000.
    for g, rounds in ((gen_named("hypercube", 10), 10), (gen_named("path", 20000), 19999)):
        verdict = run_async(g, 0, ZeroDelayAdversary())
        assert len(verdict.rounds) == rounds
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            obj = verdict.to_json_obj()
            added = len(gc.get_objects()) - before
            del obj
        finally:
            gc.enable()
        assert added <= 8, (g.n, added)


def test_verdict_json_peak_memory_is_bounded():
    # The builder writes each round's record as text, so the run, the text it
    # becomes and its bytes together stay under three times the bytes. The
    # builder that made a list per message peaked at about 8 times.
    g = gen_named("hypercube", 12)
    dumps_stable(run_async(g, 0, ZeroDelayAdversary()).to_json_obj())  # warms the graph
    tracemalloc.start()
    try:
        text = dumps_stable(run_async(g, 0, ZeroDelayAdversary()).to_json_obj())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 700_000
    assert peak < 3 * len(text), peak / len(text)


def test_long_run_verdict_json_peak_memory_is_bounded():
    # One message per round: the builder joins the records and round-sets
    # into blocks as it goes, so its chunks and their join peak at about twice
    # the text. One string and one list per round peaked at 3.8 times here.
    verdict = run_async(gen_named("path", 20000), 0, ZeroDelayAdversary())
    dumps_stable(verdict.to_json_obj())  # builds the graph's cached rev first
    tracemalloc.start()
    try:
        text = dumps_stable(verdict.to_json_obj())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 1_500_000
    assert peak < 2.5 * len(text), peak / len(text)


def test_traces_verdicts_and_json_make_no_cycles():
    # What the engines, builders and writer drop, reference counting frees,
    # so a collection afterwards finds nothing.
    graphs = [gen_named("petersen"), gen_named("cycle", 5), gen_named("hypercube", 4)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            trace = run_sync(g, 0)
            dumps_stable(trace.to_json_obj())
        verdict = run_async(TRIANGLE, 0, HoldSecondSenderAdversary())
        assert verdict.outcome == OUTCOME_CYCLE
        dumps_stable(verdict.to_json_obj())
        del trace, verdict
        assert gc.collect() == 0
    finally:
        gc.enable()
