"""The demux flow cache: O(1) classification for established flows.

Section 3.5 requires the classifier to be "efficient enough that it can
be used even under the highest loads".  The incremental demux chain is a
handful of dictionary probes, but it is *per-router* work: every arriving
frame walks ETH -> IP -> UDP -> ... even when thousands of identical
frames belong to the same long-lived video flow.  The flow cache collapses
the common case to a single dictionary probe keyed on the exact header
bytes that determine the routing decision — the "flow caching" fast path
surveyed for programmable routers (see PAPERS.md).

Correctness rules (enforced here, exercised by the chaos test):

* the cache **never** returns a path whose state is not ESTABLISHED: a
  stale entry (the path was deleted behind the cache's back) is treated
  as a miss and evicted on the spot;
* inserting a path registers the cache with the path, so
  :meth:`~repro.core.path.Path.delete` invalidates every key pointing at
  it *synchronously* — a watchdog rebuild or ``stop_video`` can never
  leave a dangling entry;
* capacity is bounded; insertion beyond capacity evicts the
  least-recently-used entry (lookups refresh recency).

The cache is policy-free about what constitutes a flow: the owner supplies
``key_of(msg) -> Optional[bytes]`` (return ``None`` for ineligible
traffic, which bypasses the cache entirely) and an optional
``annotate(msg, key)`` hook that builds, once per entry, the annotator
reproducing whatever ``msg.meta`` annotations the demux chain would have
stashed on a hit (the SHELL's reply path reads ``meta["ip_src"]``, so a
cache hit must not lose it).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from .path import ESTABLISHED, Path

#: Frame layout offsets for :func:`flow_key_frame` (ETH 14 + IP 20 +
#: UDP 8 — the minimum frame that can carry a keyable flow).
_FLOW_KEY_BYTES = 42
#: Ethertype IPv4 followed by version 4, IHL 5 (no IP options).
_IPV4_NO_OPTIONS = b"\x08\x00\x45"
_IPPROTO_UDP = 17

#: The validated-fast-receive ``msg.meta`` stamps (DESIGN.md §13) an
#: entry's annotator installs on a flow-cache hit.  A stamp asserts the
#: corresponding layer's checks already passed during classification, so
#: the stage may skip validation; the specialized execution tier
#: (DESIGN.md §15) additionally requires *all* of them per message before
#: running a fused ETH/IP/UDP body.  Kernel and benchmarks share this
#: tuple so the stamp names can never drift apart.
VALIDATED_STAMPS = ("eth_validated", "ip_validated", "udp_validated")

#: Default of the *key* arguments of :class:`FlowCache`: derive the key
#: from the message with ``key_of``.
DERIVE_KEY = object()


def flow_key_frame(frame: bytes) -> Optional[bytes]:
    """Exact-match flow key for non-fragmented IPv4/UDP frames.

    The key covers every header byte the demux chain's routing decision
    depends on — eth dst, IP protocol, IP source/destination, UDP ports —
    and deliberately excludes the bytes that vary per packet of the same
    flow (total length, ident, TTL, checksums, UDP length).  Anything
    else (ARP, ICMP, TCP, fragments, IP options) returns ``None`` and
    takes the full refinement chain, so correctness never depends on the
    cache understanding a protocol.

    This is the single source of truth for "what is a flow": the
    :class:`FlowCache` keys its entries on it, the kernel keys each
    received frame with it once before any ``Msg`` exists, and the shard
    fabric's dispatcher (:mod:`repro.shard.dispatch`) hashes exactly the
    same bytes to pin a flow to a shard — so a flow-cache entry and a
    shard pinning can never disagree about flow identity.  The key is
    always ``bytes``, whatever bytes-like *frame* is.
    """
    if (len(frame) < _FLOW_KEY_BYTES
            or frame[12:15] != _IPV4_NO_OPTIONS
            or frame[23] != _IPPROTO_UDP
            or frame[20] & 0x3F or frame[21]):  # MF flag or fragment offset
        return None
    return b"".join((frame[0:6], frame[23:24], frame[26:38]))


def flow_key(msg: Any) -> Optional[bytes]:
    """:func:`flow_key_frame` over a :class:`~repro.core.message.Msg`."""
    if len(msg) < _FLOW_KEY_BYTES:
        return None
    return flow_key_frame(msg.peek(_FLOW_KEY_BYTES))


#: Historical name for :func:`flow_key`, kept for existing callers.
flow_key_ipv4_udp = flow_key


class FlowCache:
    """Bounded LRU map from flow keys to established paths.

    Parameters
    ----------
    capacity:
        Maximum number of cached flows; the least recently used entry is
        evicted to admit a new one.
    key_of:
        ``key_of(msg) -> Optional[bytes]``; ``None`` marks the message
        ineligible (the lookup is a miss and the classification result is
        not inserted).  Defaults to :func:`flow_key`.
    annotate:
        Optional ``annotate(msg, key) -> annotator`` run once when an
        entry is installed, with the message that installed it.  The
        returned ``annotator(msgs)`` (or ``None``) is kept in the entry
        and run on the messages of every hit to reproduce the
        ``msg.meta`` annotations the skipped demux chain would have made;
        whatever it precomputes lives and dies with the entry.

    Every method that needs a message's key takes it precomputed as
    *key* (``None`` for an ineligible message); left out, the key is
    derived with *key_of*.
    """

    def __init__(self, capacity: int = 128,
                 key_of: Optional[Callable[[Any], Optional[bytes]]] = None,
                 annotate: Optional[Callable[[Any, bytes],
                                             Optional[Callable]]] = None):
        if capacity < 1:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self.key_of = key_of if key_of is not None else flow_key
        self.annotate = annotate
        #: key -> (path, annotator or None)
        self._entries: "OrderedDict[bytes, Tuple[Path, Optional[Callable]]]" \
            = OrderedDict()
        self._keys_of_path: Dict[int, Set[bytes]] = {}
        #: group id -> {pid: path} for entries whose path belongs to a
        #: :class:`~repro.multipath.PathGroup`, so a group re-spread or a
        #: pool drain can drop every pinned member in one call instead of
        #: looping over members it may not even know about.
        self._group_members: Dict[int, Dict[int, Path]] = {}
        # counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_hits = 0
        # optional metric mirrors (pre-created Counter objects)
        self._metric_hits = None
        self._metric_misses = None
        self._metric_evictions = None
        self._metric_invalidations = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path ------------------------------------------------------

    def lookup(self, msg: Any, key: Any = DERIVE_KEY) -> Optional[Path]:
        """Return the established path for *msg*, or ``None`` on a miss.

        A hit refreshes the entry's recency and runs the entry's
        annotator.  An entry whose path is no longer ESTABLISHED is
        evicted and reported as a miss — the cache never returns a dead
        path.  An ineligible message (``None`` key) is not counted.
        """
        if key is DERIVE_KEY:
            key = self.key_of(msg)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            return None
        path, annotator = entry
        if path.state != ESTABLISHED:
            # Stale: the path died without invalidating (defense in depth;
            # Path.delete normally purges its keys synchronously).
            self._discard_key(key)
            self.stale_hits += 1
            self.misses += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._metric_hits is not None:
            self._metric_hits.inc()
        if annotator is not None:
            annotator((msg,))
        return path

    def peek(self, key: bytes) -> Optional[Path]:
        """The path cached under *key*, with no accounting, recency or
        liveness check — the probe a run of same-key messages makes
        before deciding whether it can share one decision."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def hit_run(self, key: bytes, msgs: Sequence[Any]) -> None:
        """Account a run of same-key *msgs* as hits on the live entry
        under *key* (the caller has just checked it with :meth:`peek`).

        One recency refresh, one bulk counter bump and one annotator call
        cover the run, which annotates every message.  Counters, metric
        mirror and LRU order end exactly where ``len(msgs)`` successive
        :meth:`lookup` hits would leave them.
        """
        self._entries.move_to_end(key)
        count = len(msgs)
        self.hits += count
        if self._metric_hits is not None:
            self._metric_hits.inc(count)
        annotator = self._entries[key][1]
        if annotator is not None:
            annotator(msgs)

    # -- population ---------------------------------------------------------

    def insert(self, msg: Any, path: Path, key: Any = DERIVE_KEY) -> bool:
        """Cache *path* as the classification of *msg*'s flow.

        Only ESTABLISHED paths are admitted.  Returns True when an entry
        was installed (or refreshed).
        """
        if path.state != ESTABLISHED:
            return False
        if key is DERIVE_KEY:
            key = self.key_of(msg)
        if key is None:
            return False
        previous = self._entries.get(key)
        if previous is not None and previous[0] is not path:
            self._discard_key(key)
        annotator = (self.annotate(msg, key) if self.annotate is not None
                     else None)
        self._entries[key] = (path, annotator)
        self._entries.move_to_end(key)
        self._keys_of_path.setdefault(path.pid, set()).add(key)
        gid = getattr(path, "group_id", None)
        if gid is not None:
            self._group_members.setdefault(gid, {})[path.pid] = path
        path.register_flow_cache(self)
        while len(self._entries) > self.capacity:
            old_key, (old_path, _) = self._entries.popitem(last=False)
            self._keys_of_path.get(old_path.pid, set()).discard(old_key)
            self.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
        return True

    # -- invalidation -------------------------------------------------------

    def invalidate_path(self, path: Path) -> int:
        """Remove every entry pointing at *path*; returns how many."""
        gid = getattr(path, "group_id", None)
        if gid is not None:
            members = self._group_members.get(gid)
            if members is not None:
                members.pop(path.pid, None)
                if not members:
                    self._group_members.pop(gid, None)
        keys = self._keys_of_path.pop(path.pid, None)
        if not keys:
            return 0
        removed = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                removed += 1
        self.invalidations += removed
        if removed and self._metric_invalidations is not None:
            self._metric_invalidations.inc(removed)
        return removed

    def invalidate_key(self, key: bytes) -> bool:
        """Remove the single entry for *key*, if present.

        The shard fabric's ``rebalance`` protocol uses this: migrating a
        flow's pinning must unpin exactly that flow on the old shard so
        its next packet re-walks the refinement chain there, without
        disturbing other flows that happen to share the same path.
        """
        if key not in self._entries:
            return False
        self._discard_key(key)
        self.invalidations += 1
        if self._metric_invalidations is not None:
            self._metric_invalidations.inc()
        return True

    def invalidate_group(self, gid: int) -> int:
        """Bulk-drop every entry pinned to a member of path group *gid*.

        This is the re-spread primitive: one call unpins every flow the
        group's selection policy placed, so the next packet of each flow
        re-walks the refinement chain and is re-dispatched.  Pool drains
        use it the same way.  Returns how many entries were removed.
        """
        members = self._group_members.pop(gid, None)
        if not members:
            return 0
        removed = 0
        for path in members.values():
            removed += self.invalidate_path(path)
        return removed

    def clear(self) -> int:
        """Drop every entry (watchdog rebuild / reconfiguration sledge)."""
        removed = len(self._entries)
        self._entries.clear()
        self._keys_of_path.clear()
        self._group_members.clear()
        self.invalidations += removed
        if removed and self._metric_invalidations is not None:
            self._metric_invalidations.inc(removed)
        return removed

    def _discard_key(self, key: bytes) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._keys_of_path.get(entry[0].pid, set()).discard(key)

    # -- observability ------------------------------------------------------

    def bind_metrics(self, registry: Any, name: str = "flow_cache") -> None:
        """Mirror the counters into a metrics registry (``repro.observe``).

        Pre-creates the counter series so the per-packet cost of the
        mirror is a single bound-method call.
        """
        self._metric_hits = registry.counter(f"{name}_hits_total")
        self._metric_misses = registry.counter(f"{name}_misses_total")
        self._metric_evictions = registry.counter(f"{name}_evictions_total")
        self._metric_invalidations = registry.counter(
            f"{name}_invalidations_total")

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_hits": self.stale_hits,
        }

    def __repr__(self) -> str:
        return (f"<FlowCache {len(self._entries)}/{self.capacity} "
                f"hits={self.hits} misses={self.misses}>")
