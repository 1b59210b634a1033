"""Packet classification: mapping data to the path that processes it.

Section 3.5: "each Scout router provides a demux operation that maps the
data into a path that can be used to process that data ... Any given
router typically implements only a small portion of the entire
classification process.  If a router cannot make a unique classification
decision, it may ask the next router to refine that decision.  This
continues until either a unique path is found or until it is determined
that no appropriate path exists.  In the latter case the offending data is
simply discarded."

The Scout classifier's requirements (both honored here):

* **efficient enough for peak loads** — the chain is a handful of
  dictionary probes over peeked header bytes, and established flows skip
  it entirely via the :class:`~repro.core.flowcache.FlowCache` consulted
  before the first demux (benchmarked in
  ``benchmarks/bench_path_micro.py`` and
  ``benchmarks/bench_classify_cache.py``; machine-readable numbers land
  in ``benchmarks/results/BENCH_fastpath.json``);
* **relaxed (best-effort) accuracy** — a router may return a path that is
  merely "good enough" (e.g. the short/fat reassembly path for IP
  fragments); the IP router later *reruns* the classifier on the
  reassembled datagram to find the next path.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from .errors import ClassificationError
from .flowcache import DERIVE_KEY
from .message import Msg
from .path import DELETED, ESTABLISHED, Path
from .router import DemuxResult, Router, Service

#: Refinement-hop cap: a demux cycle is a router bug, not a data property.
MAX_REFINEMENTS = 32

#: Decision sources recorded in :class:`ClassifyResult`.
SOURCE_DEMUX = "demux"              # the refinement chain decided
SOURCE_CACHE = "cache"              # a flow-cache probe decided (incl. sticky pins)
SOURCE_GROUP = "group-redispatch"   # a cached group anchor was re-dispatched


class ClassifyResult(NamedTuple):
    """The outcome of one classification decision.

    ``path`` is ``None`` for a discard (the reason is in
    ``msg.meta["drop_reason"]``).  ``source`` says who decided:
    :data:`SOURCE_DEMUX` (the refinement chain ran), :data:`SOURCE_CACHE`
    (a flow-cache probe, including sticky group pins), or
    :data:`SOURCE_GROUP` (a cached group anchor whose selection policy
    re-dispatched the message).  ``run_length`` is 1 for per-message
    classification; :func:`classify_batch` sets it to the length of the
    same-flow run the message belonged to.

    Being a ``NamedTuple``, it unpacks like the plain tuple older
    call sites expect: ``path, source, run = classify_ex(...)``.
    """

    path: Optional[Path]
    source: str = SOURCE_DEMUX
    run_length: int = 1


class _Respread:
    """Sentinel: a sticky group's pins were just invalidated; re-classify."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<respread>"


_RESPREAD = _Respread()


def _dispatch_group(group, cached, msg, cache, stats):
    """Resolve a flow-cache hit whose path belongs to a path group.

    Returns the member to use, ``None`` for a discard, or
    :data:`_RESPREAD` when the policy asked for its pins to be dropped
    (the caller re-walks the refinement chain).
    """
    if group.policy.sticky:
        if group.take_respread():
            cache.invalidate_group(group.gid)
            return _RESPREAD
        member = cached  # the pin itself is the policy's placement
    else:
        member = group.dispatch(msg)
        if member is None:
            msg.meta["drop_reason"] = (
                f"path group #{group.gid} has no live member")
            group.note_dispatch_failure()
            if stats is not None:
                stats.dropped += 1
            return None
    if stats is not None:
        stats.classified += 1
        stats.cache_hits += 1
    msg.meta["path"] = member
    observer = member.observer
    if observer is not None:
        observer.on_demux(msg, 1)
    return member


class ClassifierStats:
    """Counters for classification outcomes, used by experiments."""

    __slots__ = ("classified", "dropped", "refinements", "cache_hits")

    def __init__(self) -> None:
        self.classified = 0
        self.dropped = 0
        self.refinements = 0
        self.cache_hits = 0


def classify_ex(router: Router, msg: Msg, service: Optional[Service] = None,
                stats: Optional[ClassifierStats] = None,
                cache=None, key=DERIVE_KEY) -> ClassifyResult:
    """Run the incremental demux chain starting at *router*.

    This is the canonical classifier; :func:`classify` and
    :func:`classify_or_raise` are path-only shims over it.  Returns a
    :class:`ClassifyResult` whose ``path`` is ``None`` when no
    appropriate path exists (the data is to be discarded; the reason is
    recorded in ``msg.meta["drop_reason"]`` for observability).

    When a *cache* (:class:`~repro.core.flowcache.FlowCache`) is
    supplied it is consulted before the refinement chain — an established
    flow classifies in one probe — and successful chain classifications
    populate it.  The cache itself guarantees it never returns a path
    that is not ESTABLISHED.  A caller that already holds the message's
    flow key passes it as *key* (``None`` for an unkeyable message), so
    neither the probe nor the insert slices the header again.

    **Multipath dispatch happens here, at the demux boundary.**  When the
    classified path belongs to a :class:`~repro.multipath.PathGroup`, the
    group's selection policy picks the member that actually processes the
    message.  A *sticky* policy pins the flow by inserting the selected
    member into the cache (subsequent packets hit the pin directly, until
    the policy asks for a re-spread and the group's pins are bulk
    invalidated); a non-sticky policy caches the demuxed anchor instead,
    so every packet still classifies in one probe but is re-dispatched
    through the policy.

    The chain runs at interrupt time in Scout; callers that model CPU cost
    account for it separately (see :mod:`repro.sim.cpu`).
    """
    if cache is not None:
        cached = cache.lookup(msg, key)
        if cached is not None:
            group = cached.group
            if group is not None:
                resolved = _dispatch_group(group, cached, msg, cache, stats)
                if resolved is not _RESPREAD:
                    source = (SOURCE_CACHE if group.policy.sticky
                              else SOURCE_GROUP)
                    return ClassifyResult(resolved, source)
                # fall through: the pins were just invalidated; re-walk
                # the chain so the flow is re-placed by the policy.
            else:
                if stats is not None:
                    stats.classified += 1
                    stats.cache_hits += 1
                msg.meta["path"] = cached
                observer = cached.observer
                if observer is not None:
                    observer.on_demux(msg, 1)
                return ClassifyResult(cached, SOURCE_CACHE)
    offset = 0
    current: Router = router
    current_service = service
    hops = 1
    for _ in range(MAX_REFINEMENTS):
        result: DemuxResult = current.demux(msg, current_service, offset)
        if result.path is not None:
            chosen = result.path
            group = getattr(chosen, "group", None)
            if group is not None:
                # Demux landed on a group member (typically the anchor
                # holding the port/flow binding): the selection policy
                # decides which member actually serves the message.
                member = group.dispatch(msg)
                if member is None:
                    msg.meta["drop_reason"] = (
                        f"path group #{group.gid} has no live member")
                    group.note_dispatch_failure()
                    if stats is not None:
                        stats.dropped += 1
                    return ClassifyResult(None, SOURCE_DEMUX)
                if cache is not None:
                    # Sticky policies pin the flow to the chosen member;
                    # others cache the demux anchor so later packets hit
                    # in one probe but are still re-dispatched above.
                    cache.insert(msg, member if group.policy.sticky
                                 else chosen, key)
                chosen = member
            elif getattr(chosen, "state", None) == DELETED:
                # Liveness guard: a demux map entry can outlive its path
                # (e.g. across a watchdog rebuild).  A dead path is no
                # path — treat it as a refinement miss and discard.
                msg.meta["drop_reason"] = (
                    f"{current.name}: stale demux entry for deleted "
                    f"path #{chosen.pid}")
                if stats is not None:
                    stats.dropped += 1
                return ClassifyResult(None, SOURCE_DEMUX)
            if stats is not None:
                stats.classified += 1
            msg.meta["path"] = chosen
            observer = getattr(chosen, "observer", None)
            if observer is not None:
                observer.on_demux(msg, hops)
            if cache is not None and group is None:
                cache.insert(msg, chosen, key)
            return ClassifyResult(chosen, SOURCE_DEMUX)
        if result.forward is not None:
            offset += result.consumed
            current, current_service = result.forward
            hops += 1
            if stats is not None:
                stats.refinements += 1
            continue
        msg.meta["drop_reason"] = result.reason or f"{current.name}: no path"
        if stats is not None:
            stats.dropped += 1
        return ClassifyResult(None, SOURCE_DEMUX)
    raise ClassificationError(
        f"classification did not converge after {MAX_REFINEMENTS} "
        f"refinements (last router: {current.name})")


def classify(router: Router, msg: Msg, service: Optional[Service] = None,
             stats: Optional[ClassifierStats] = None,
             cache=None, key=DERIVE_KEY) -> Optional[Path]:
    """Path-only shim over :func:`classify_ex` (the historical surface).

    Returns the path to use, or ``None`` when no appropriate path exists
    (the data is to be discarded; the reason is recorded in
    ``msg.meta["drop_reason"]``).  Callers that care *how* the decision
    was made — demux chain, flow-cache probe, or group re-dispatch — use
    :func:`classify_ex` and read :class:`ClassifyResult`.
    """
    return classify_ex(router, msg, service, stats, cache, key).path


def classify_or_raise(router: Router, msg: Msg,
                      service: Optional[Service] = None) -> Path:
    """Like :func:`classify` but raises on discard, for callers that treat
    unclassifiable data as an error (tests, mostly)."""
    path = classify(router, msg, service)
    if path is None:
        raise ClassificationError(msg.meta.get("drop_reason", "no path"))
    return path


def classify_batch(router: Router, msgs: Iterable[Msg],
                   service: Optional[Service] = None,
                   stats: Optional[ClassifierStats] = None,
                   cache=None, keys=None) -> List[ClassifyResult]:
    """Classify a batch of arrivals, amortizing decisions over runs.

    Consecutive messages sharing a flow-cache key form a *run*.  Each
    message is keyed exactly once — by the caller, who passes *keys* in
    arrival order, or here with the cache's ``key_of`` — and a run costs
    one flow-cache probe when its entry is *plain*: ESTABLISHED, not in
    a path group and not observed.  Such a run is accounted in bulk
    (:meth:`FlowCache.hit_run <repro.core.flowcache.FlowCache.hit_run>`
    plus ``stats.classified``/``stats.cache_hits`` by the run length),
    and each message gets only ``meta["path"]`` and the entry's
    annotation.  A run head that misses walks the refinement chain with
    its precomputed key and installs the entry its followers then ride.

    Everything else — no cache, unkeyable messages, path groups (whose
    policy must see every message), observed (``PA_TRACE``) paths and
    stale entries — is classified one message at a time by
    :func:`classify_ex`.  Either way the counters, cache state, drop
    ledgers and ``meta`` end exactly as classifying the batch one
    message at a time would leave them.

    Returns one :class:`ClassifyResult` per message, in arrival order,
    each carrying the length of the run it belonged to.
    """
    arrivals = list(msgs)
    n = len(arrivals)
    if cache is None:
        return [classify_ex(router, msg, service, stats) for msg in arrivals]
    if keys is None:
        key_of = cache.key_of
        keys = [key_of(msg) for msg in arrivals]
    results: List[ClassifyResult] = []
    i = 0
    while i < n:
        key = keys[i]
        j = i + 1
        if key is not None:
            while j < n and keys[j] == key:
                j += 1
        run = j - i
        if key is not None:
            path = cache.peek(key)
            if path is None:
                # Miss: the head walks the chain and installs the entry.
                result = classify_ex(router, arrivals[i], service, stats,
                                     cache, key)
                results.append(result if run == 1
                               else result._replace(run_length=run))
                i += 1
                path = cache.peek(key) if i < j else None
            if (path is not None and path.state == ESTABLISHED
                    and path.group is None and path.observer is None):
                riders = arrivals[i:j]
                cache.hit_run(key, riders)
                for msg in riders:
                    msg.meta["path"] = path
                if stats is not None:
                    stats.classified += len(riders)
                    stats.cache_hits += len(riders)
                results.extend([ClassifyResult(path, SOURCE_CACHE, run)]
                               * len(riders))
                i = j
                continue
        for msg in arrivals[i:j]:
            result = classify_ex(router, msg, service, stats, cache, key)
            results.append(result if run == 1
                           else result._replace(run_length=run))
        i = j
    return results
