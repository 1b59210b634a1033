"""A shard worker keeps no delivered message once its fate has shipped.

The TEST sink appends every delivered message to its router's
``received`` list.  A worker ships each one as a fate and then empties
the list, so worker memory stays flat over a long run, while the books
it closes with still count every delivery.
"""

from repro.faults.adversary import DELIVERED
from repro.shard import ShardedKernel

from .conftest import fabric_ports, interleaved_workload


def test_worker_keeps_no_delivered_messages_and_books_still_count():
    flows, offers = 6, 5
    fabric = ShardedKernel(shards=2, mode="threads",
                           ports=fabric_ports(flows), batch=8)
    delivered = []
    for i in range(offers):
        fates = fabric.offer(interleaved_workload(flows, 4, start=i * 24))
        delivered += [payload for _serial, category, payload in fates
                      if category == DELIVERED]
        for worker in fabric.workers.values():
            assert worker.kernel.test.received == []
    assert len(delivered) == offers * flows * 4
    books = fabric.finish()
    assert books.ok
    assert books.ledger.counts() == {DELIVERED: len(delivered)}
    accounts = [shard.account for shard in books.shards.values()]
    assert sum(a["delivered"] for a in accounts) == len(delivered)
    assert sum(a["delivered_bytes"] for a in accounts) \
        == sum(len(payload) for payload in delivered)
    assert all(a["delivered"] > 0 for a in accounts)
