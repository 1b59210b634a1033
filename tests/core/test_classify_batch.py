"""Tests for batched classification: run grouping, decision sources,
and exact per-message counter parity with the per-message classifier.
"""

import pytest

from repro.core import (
    ClassifierStats,
    ClassifyResult,
    FlowCache,
    Msg,
    SOURCE_CACHE,
    SOURCE_DEMUX,
    SOURCE_GROUP,
    classify,
    classify_batch,
    classify_ex,
)
from repro.core.classify import classify_or_raise
from repro.multipath import PathGroup
from .test_classify import bound_chain


def first_byte_key(msg):
    return msg.peek(1) if len(msg) else None


def cache_of(capacity=8):
    return FlowCache(capacity=capacity, key_of=first_byte_key)


class TestClassifyResult:
    def test_defaults(self):
        result = ClassifyResult(None)
        assert result == (None, SOURCE_DEMUX, 1)

    def test_tuple_unpacking_shim(self):
        _, routers, path = bound_chain("A", bind_at="A")
        found, source, run = classify_ex(routers[0], Msg(b"A"))
        assert found is path and source == SOURCE_DEMUX and run == 1

    def test_path_only_shims_preserved(self):
        """classify()/classify_or_raise() still return the bare path."""
        _, routers, path = bound_chain("A", bind_at="A")
        assert classify(routers[0], Msg(b"A")) is path
        assert classify_or_raise(routers[0], Msg(b"A")) is path

    def test_source_cache_on_second_probe(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        assert classify_ex(routers[0], Msg(b"A1"), cache=cache) \
            == (path, SOURCE_DEMUX, 1)
        assert classify_ex(routers[0], Msg(b"A2"), cache=cache) \
            == (path, SOURCE_CACHE, 1)


class TestClassifyBatchRuns:
    def test_single_run_shares_one_decision(self):
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)  # warm the cache
        msgs = [Msg(b"A1"), Msg(b"A2"), Msg(b"A3")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.path for r in results] == [path] * 3
        assert [r.source for r in results] == [SOURCE_CACHE] * 3
        assert [r.run_length for r in results] == [3, 3, 3]
        assert all(m.meta["path"] is path for m in msgs)

    def test_runs_split_at_key_boundaries(self):
        graph, routers, path_a = bound_chain("A", "B", bind_at="A")
        path_b = bound_chain("X", "B")[2]  # unused; just for symmetry
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)
        msgs = [Msg(b"A1"), Msg(b"A2"), Msg(b"zB"), Msg(b"A3")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.run_length for r in results] == [2, 2, 1, 1]
        assert results[0].source == SOURCE_CACHE
        assert results[2].source == SOURCE_DEMUX  # different flow: own walk

    def test_cold_cache_head_decides_followers_hit(self):
        """The run head's chain walk populates the cache; followers in the
        same run resolve through the precomputed key."""
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()
        stats = ClassifierStats()
        results = classify_batch(routers[0],
                                 [Msg(b"A1"), Msg(b"A2"), Msg(b"A3")],
                                 stats=stats, cache=cache)
        assert [r.source for r in results] \
            == [SOURCE_DEMUX, SOURCE_CACHE, SOURCE_CACHE]
        assert stats.classified == 3
        assert stats.cache_hits == 2
        assert cache.hits == 2 and cache.misses == 1

    def test_no_cache_every_message_walks(self):
        _, routers, path = bound_chain("A", bind_at="A")
        stats = ClassifierStats()
        results = classify_batch(routers[0], [Msg(b"A1"), Msg(b"A2")],
                                 stats=stats)
        assert [r.source for r in results] == [SOURCE_DEMUX] * 2
        assert [r.run_length for r in results] == [1, 1]
        assert stats.classified == 2 and stats.cache_hits == 0

    def test_dropped_head_does_not_poison_followers(self):
        """A run whose head is discarded falls back to per-message walks;
        every message still gets a (drop) result and a reason."""
        _, routers, _ = bound_chain("A", "B", bind_at="B")
        cache = cache_of()
        msgs = [Msg(b"??1"), Msg(b"??2")]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.path for r in results] == [None, None]
        assert all("drop_reason" in m.meta for m in msgs)

    def test_empty_batch(self):
        _, routers, _ = bound_chain("A", bind_at="A")
        assert classify_batch(routers[0], [], cache=cache_of()) == []

    def test_keyless_messages_classify_individually(self):
        """Messages the cache deems ineligible (key None) never form
        runs — each takes its own walk, exactly as per-message would."""
        _, routers, path = bound_chain("A", bind_at="A")
        cache = cache_of()

        class NoKeys(FlowCache):
            pass

        nokeys = FlowCache(capacity=4, key_of=lambda m: None)
        results = classify_batch(routers[0], [Msg(b"A1"), Msg(b"A2")],
                                 cache=nokeys)
        assert [r.run_length for r in results] == [1, 1]
        assert [r.source for r in results] == [SOURCE_DEMUX] * 2


class TestRunFastPath:
    def test_precomputed_keys_are_used_as_given(self):
        """With *keys* supplied nothing re-derives a key: the missing
        head inserts under its key and the followers ride it."""
        _, routers, path = bound_chain("A", bind_at="A")

        def no_key_of(msg):
            raise AssertionError("key_of must not run")

        cache = FlowCache(capacity=8, key_of=no_key_of)
        msgs = [Msg(b"A1"), Msg(b"A2"), Msg(b"A3")]
        results = classify_batch(routers[0], msgs, cache=cache,
                                 keys=[b"A"] * 3)
        assert [r.source for r in results] \
            == [SOURCE_DEMUX, SOURCE_CACHE, SOURCE_CACHE]
        assert cache.hits == 2 and cache.misses == 1

    def test_observed_path_sees_every_demux(self):
        """An observed path's runs stay per-message: the observer gets
        one ``on_demux`` per message, not one per run."""
        _, routers, path = bound_chain("A", bind_at="A")
        seen = []

        class Observer:
            def on_demux(self, msg, hops):
                seen.append((msg.peek(2), hops))

        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)
        path.observer = Observer()
        classify_batch(routers[0], [Msg(b"A1"), Msg(b"A2")], cache=cache)
        assert seen == [(b"A1", 1), (b"A2", 1)]


class TestCounterParity:
    def counters(self, batched):
        """Classify six arrivals (two flows interleaved in runs) and
        return every observable counter."""
        graph, routers, path = bound_chain("A", "B", bind_at="A")
        graph.router("B").bound_path = bound_chain("B")[2]
        cache = cache_of()
        stats = ClassifierStats()
        payloads = [b"A1", b"A2", b"A3", b"zB1", b"zB2", b"A4"]
        msgs = [Msg(p) for p in payloads]
        if batched:
            results = classify_batch(routers[0], msgs, stats=stats,
                                     cache=cache)
            paths = [r.path for r in results]
        else:
            paths = [classify_ex(routers[0], m, stats=stats, cache=cache).path
                     for m in msgs]
        # Normalize pids (globally allocated) to first-appearance order so
        # the two fresh graphs compare structurally.
        order = {}
        for p in paths:
            order.setdefault(p.pid if p else None, len(order))
        return {
            "paths": [order[p.pid if p else None] for p in paths],
            "classified": stats.classified,
            "dropped": stats.dropped,
            "refinements": stats.refinements,
            "stats_cache_hits": stats.cache_hits,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "metas": [order[m.meta.get("path").pid] for m in msgs],
        }

    def test_batch_counters_equal_per_message_counters(self):
        assert self.counters(batched=True) == self.counters(batched=False)


class TestGroupDispatch:
    def group_setup(self):
        """A bound chain whose path joins a round-robin group with a
        second live member."""
        _, routers, anchor = bound_chain("A", bind_at="A")
        sibling = bound_chain("S", bind_at="S")[2]
        group = PathGroup("round_robin")
        group.add(anchor)
        group.add(sibling)
        return routers, anchor, sibling, group

    def test_followers_redispatch_through_policy(self):
        """A non-sticky cached anchor re-dispatches *every* follower, so
        round-robin spreads exactly as per-message classification."""
        routers, anchor, sibling, group = self.group_setup()
        cache = cache_of()
        classify_ex(routers[0], Msg(b"A0"), cache=cache)  # cache the anchor
        msgs = [Msg(b"A%d" % i) for i in range(4)]
        results = classify_batch(routers[0], msgs, cache=cache)
        assert [r.source for r in results] == [SOURCE_GROUP] * 4
        picked = [r.path for r in results]
        assert picked.count(anchor) == 2 and picked.count(sibling) == 2

    def test_dispatch_batch_matches_per_message_dispatch(self):
        """PathGroup.dispatch_batch yields ordered (member, run) splits
        whose concatenation equals N individual dispatch() calls."""
        _, anchor, sibling, group = self.group_setup()
        msgs = [{"frame": i} for i in range(5)]
        splits = group.dispatch_batch(msgs)
        flattened = [(member, msg) for member, run in splits
                     for msg in run]
        assert [m for _member, m in flattened] == msgs
        # Consecutive splits never share a member (maximal runs).
        members = [member for member, _run in splits]
        assert all(a is not b for a, b in zip(members, members[1:]))
