"""Tests for batched queue operations (DESIGN.md §13): one call moves a
run of items while statistics, listeners, and drop accounting stay exact
per item."""

import pytest

from repro.core import DeadlineOrderedQueue, PathQueue


class TestTryEnqueueBatch:
    def test_all_fit(self):
        q = PathQueue(maxlen=4)
        assert q.try_enqueue_batch(["a", "b", "c"]) == 3
        assert [q.dequeue() for _ in range(3)] == ["a", "b", "c"]

    def test_partial_fit_drops_tail(self):
        q = PathQueue(maxlen=2)
        assert q.try_enqueue_batch(["a", "b", "c", "d"]) == 2
        assert q.dropped == 2
        assert len(q) == 2

    def test_per_item_listeners_fire(self):
        q = PathQueue(maxlen=2)
        enq, dropped = [], []
        q.on_enqueue(lambda queue: enq.append(queue.last_enqueued))
        q.on_drop(lambda queue, item, why: dropped.append((item,
                                                                    why)))
        q.try_enqueue_batch(["a", "b", "c"])
        assert enq == ["a", "b"]
        assert dropped == [("c", "overflow")]

    def test_empty_batch_is_noop(self):
        q = PathQueue(maxlen=1)
        assert q.try_enqueue_batch([]) == 0
        assert q.enqueued == 0


    def test_listeners_see_the_queue_item_by_item(self):
        q = PathQueue(maxlen=3)
        q.enqueue("x")
        events = []
        q.on_enqueue(lambda queue: events.append(
            ("enq", queue.last_enqueued, len(queue), queue.enqueued)))
        q.on_drop(lambda queue, item, why: events.append(
            ("drop", item, len(queue), queue.dropped)))
        assert q.try_enqueue_batch(
            ["a", "b", "c"], lambda item: events.append(("offer", item))) == 2
        assert events == [("offer", "a"), ("enq", "a", 2, 2),
                          ("offer", "b"), ("enq", "b", 3, 3),
                          ("offer", "c"), ("drop", "c", 3, 1)]

    def test_batch_equals_repeated_try_enqueue(self):
        solo, batch = PathQueue(maxlen=5), PathQueue(maxlen=5)
        for q in (solo, batch):
            q.enqueue(0)
            q.overflow_reason = "full"
        dropped = {id(solo): [], id(batch): []}
        for q in (solo, batch):
            q.on_drop(lambda queue, item, why: dropped[id(queue)].append(
                (item, why)))
        items = list(range(1, 8))
        accepted = sum(solo.try_enqueue(item) for item in items)
        assert batch.try_enqueue_batch(items) == accepted == 4
        assert list(batch) == list(solo)
        for name in ("enqueued", "dropped", "high_watermark",
                     "last_enqueued"):
            assert getattr(batch, name) == getattr(solo, name)
        assert dropped[id(batch)] == dropped[id(solo)] == [
            (5, "full"), (6, "full"), (7, "full")]

    def test_unbounded_queue_takes_everything(self):
        q = PathQueue(maxlen=None)
        assert q.try_enqueue_batch(list(range(100))) == 100
        assert q.high_watermark == 100


class TestDequeueBatch:
    def test_drains_everything_by_default(self):
        q = PathQueue(maxlen=8)
        for item in "abcd":
            q.enqueue(item)
        assert q.dequeue_batch() == list("abcd")
        assert q.is_empty()

    def test_limit_caps_the_run(self):
        q = PathQueue(maxlen=8)
        for item in "abcd":
            q.enqueue(item)
        assert q.dequeue_batch(2) == ["a", "b"]
        assert len(q) == 2

    def test_empty_queue_yields_empty_list(self):
        assert PathQueue().dequeue_batch() == []

    def test_stats_and_listeners_exact_per_item(self):
        q = PathQueue(maxlen=8)
        seen = []
        q.on_dequeue(lambda queue: seen.append(queue.last_dequeued))
        for item in "abc":
            q.enqueue(item)
        q.dequeue_batch()
        assert seen == ["a", "b", "c"]
        assert q.dequeued == 3

    def test_batch_equals_repeated_dequeue(self):
        solo, batch = PathQueue(maxlen=8), PathQueue(maxlen=8)
        for q in (solo, batch):
            for i in range(5):
                q.enqueue(i)
        assert batch.dequeue_batch(5) == [solo.dequeue() for _ in range(5)]

    def test_deadline_queue_drains_in_deadline_order(self):
        q = DeadlineOrderedQueue(maxlen=8)
        for deadline in (30.0, 10.0, 20.0):
            q.enqueue((deadline, f"frame@{deadline:.0f}"))
        assert [d for d, _item in q.dequeue_batch()] == [10.0, 20.0, 30.0]
