"""Stages: a path's fixed routing decisions.

Section 3.2: "Scout paths consist of a sequence of stages.  Each router
that is crossed by a path creates one such stage.  Since a path enters a
router at one service and leaves it through another, a stage effectively
connects a pair of services.  That is, it represents a fixed routing
decision."

A stage owns up to two interfaces (the paper's ``Iface end[2]``): one that
processes messages traveling in the forward direction and one for the
backward direction.  Extreme-end stages own only the interface for the
direction that actually enters the path there ("these extreme stages are,
strictly speaking, not part of the path but they are used to connect to
the routers that manage the path queues").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .attributes import Attrs
from .interfaces import Iface, NetIface

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for hints only
    from .path import Path
    from .router import Router, Service

#: Direction constants (Section 2.4.1): FWD is the direction in which the
#: path was created, BWD the reverse.
FWD, BWD = 0, 1

DIRECTION_NAMES = ("FWD", "BWD")


def opposite(direction: int) -> int:
    """Return the other direction."""
    return 1 - direction


class Stage:
    """One router's contribution to a path (the paper's ``struct Stage``).

    Parameters
    ----------
    router:
        The router that created this stage.
    enter_service, exit_service:
        The services through which the path enters and leaves the router
        (either may be ``None`` at the extreme ends of the path).
    iface_factory:
        Interface class instantiated for each direction (default
        :class:`NetIface`).
    """

    #: Modeled C footprint (Section 3.6: stages are "on the order of 150
    #: bytes ... including all the interfaces"): two interface pointers,
    #: path and router pointers, two function pointers, the service-pair
    #: record, and per-stage scratch state.
    MODELED_BYTES = 2 * 8 + 2 * 8 + 2 * 8 + 2 * 8 + 40

    def __init__(self, router: "Router",
                 enter_service: Optional["Service"] = None,
                 exit_service: Optional["Service"] = None,
                 iface_factory: Callable[..., Iface] = NetIface):
        self.router = router
        self.path: Optional["Path"] = None
        self.enter_service = enter_service
        self.exit_service = exit_service
        self.end = [iface_factory(stage=self), iface_factory(stage=self)]
        #: Arbitrary per-stage state (reassembly buffers, sequence numbers).
        self.state: dict = {}

    # -- hooks ----------------------------------------------------------------

    def establish(self, attrs: Attrs) -> None:
        """Initialization that depends on the existence of the entire path.

        Called once the whole path object exists, in stage-creation order
        (phase 3 of path creation).  Default: nothing.
        """

    def destroy(self) -> None:
        """Tear down per-stage resources when the path is deleted."""

    # -- deliver plumbing ---------------------------------------------------------

    def set_deliver(self, direction: int, fn: Callable[..., Any]) -> None:
        """Install the processing function for *direction*.

        This is the mutable function pointer that path transformations
        overwrite: "if a path contains a sequence of interfaces for which
        there is optimized code available, then the function pointers in
        the interfaces can be updated to point to this optimized code."

        Overwriting a pointer invalidates any compiled flattening of the
        chain, so the owning path's generation counter is bumped and the
        next traversal recompiles transparently.
        """
        self.end[direction].deliver = fn
        if self.path is not None:
            self.path.chain_generation += 1

    def deliver_fn(self, direction: int) -> Optional[Callable[..., Any]]:
        return getattr(self.end[direction], "deliver", None)

    def has_pristine_deliver(self, direction: int,
                             func: Callable[..., Any]) -> bool:
        """True when the installed deliver function for *direction* is the
        un-interposed bound method whose underlying function is *func*.

        This is the recognition test the specialized execution tier runs
        before fusing a stage's body into generated code: any wrapper or
        replacement — probes, fault injectors, transformations — fails
        it, so the fused function can only ever contain semantics that
        are actually installed.  Interposition *after* generation is
        caught separately by the ``chain_generation`` bump the setters
        above perform (the deopt protocol, DESIGN.md §15).
        """
        installed = self.deliver_fn(direction)
        return getattr(installed, "__func__", None) is func

    def wrap_deliver(self, direction: int,
                     wrapper: Callable[[Callable[..., Any]],
                                       Callable[..., Any]]) -> bool:
        """Wrap the installed deliver function for *direction*.

        The profiling probes use this to interpose spans around stage
        processing without knowing anything about interface internals.
        Returns False (and does nothing) when no deliver function is
        installed for that direction — e.g. the unused side of an extreme
        stage.
        """
        inner = self.deliver_fn(direction)
        if inner is None:
            return False
        self.end[direction].deliver = wrapper(inner)
        if self.path is not None:
            self.path.chain_generation += 1
        return True

    # -- accounting -----------------------------------------------------------------

    def note_drop(self, msg: Any, reason: str, category: str = "drop") -> None:
        """Uniform discard bookkeeping for stage deliver functions: stamps
        ``msg.meta["drop_reason"]`` and, when the stage belongs to a live
        path, bumps the path's per-category drop counters."""
        if self.path is not None:
            self.path.note_drop(msg, reason, category)
        else:
            meta = getattr(msg, "meta", None)
            if meta is not None:
                meta["drop_reason"] = reason

    def modeled_size(self) -> int:
        """Modeled byte footprint of this stage including its interfaces."""
        total = self.MODELED_BYTES
        for iface in self.end:
            if iface is not None:
                total += type(iface).modeled_size()
        return total

    def __repr__(self) -> str:
        enter = self.enter_service.name if self.enter_service else "-"
        leave = self.exit_service.name if self.exit_service else "-"
        return f"<Stage {self.router.name} {enter}->{leave}>"


def brackets_downstream(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a deliver function as *bracketing* its downstream call.

    A deliver function is flatten-safe when it tail-returns
    ``forward(...)`` — nothing of it remains on the stack while later
    stages run.  A function that does work *after* the downstream call
    returns, or holds a try/except around it (fault containment,
    whole-traversal probes), relies on the recursive nesting and must not
    be flattened past: :meth:`Path.compile_chains` stops compiling at a
    marked function and lets it recurse through the rest of the chain.

    Wrappers that re-wrap a marked function must propagate the mark
    (see :func:`propagate_bracket`).
    """
    fn._brackets_downstream = True  # type: ignore[attr-defined]
    return fn


def propagate_bracket(inner: Callable[..., Any],
                      outer: Callable[..., Any]) -> Callable[..., Any]:
    """Copy the bracketing mark from *inner* onto *outer* — for wrappers
    (fault injectors, probes) that interpose on an arbitrary deliver
    function and must not let a marked one be flattened."""
    if getattr(inner, "_brackets_downstream", False):
        outer._brackets_downstream = True  # type: ignore[attr-defined]
    return outer


class _Trampoline:
    """Thread-of-control state for compiled chain execution.

    The compiled fast path (:func:`run_compiled`) executes a path's
    deliver functions in a tight loop instead of letting each stage
    recurse through :func:`forward`.  Stage code is unchanged — it still
    calls ``forward(iface, msg, d)`` — so the loop and ``forward``
    cooperate through this module-level state: while the loop is running
    stage *k*, a forward from stage *k*'s interface is *deferred* (the
    message is parked and a sentinel returned) and the loop picks it up
    as the input to stage *k+1*.  Any other forward (turn-arounds,
    cross-path delivery, nested traversals) misses the identity check and
    takes the normal recursive route.

    The simulation is single-threaded, so one module-level instance
    suffices; nested compiled traversals save and restore it.
    """

    __slots__ = ("expected", "direction", "pending")

    def __init__(self) -> None:
        self.expected: Optional[Iface] = None  # iface whose forward defers
        self.direction = -1
        self.pending: Optional[tuple] = None   # parked (msg, kwargs)


_TRAMPOLINE = _Trampoline()


class _Deferred:
    def __repr__(self) -> str:  # pragma: no cover
        return "<forward deferred to compiled loop>"


#: Sentinel returned by :func:`forward` when the compiled loop will carry
#: the message to the next stage instead of recursing.
DEFERRED = _Deferred()


def forward(iface: Iface, msg: Any, direction: int,
            **kwargs: Any) -> Any:
    """Forward *msg* from *iface* to the next interface in its direction.

    When there is no next interface the message has reached the path's
    end; the caller (normally an extreme stage's deliver function) is
    responsible for enqueueing it, so reaching this case from an interior
    stage is a wiring bug and raised as such.

    Under compiled execution (:func:`run_compiled`) a forward from the
    currently executing stage is deferred to the tight loop rather than
    recursing — stage code cannot tell the difference.
    """
    t = _TRAMPOLINE
    if iface is t.expected and direction == t.direction:
        if t.pending is None:
            t.pending = (msg, kwargs)
            return DEFERRED
        # Fan-out: the stage forwards more than one message per call
        # (e.g. IP emitting several fragments).  Flush the earlier one
        # down the rest of the chain recursively so wire order is
        # preserved, then defer the newest.
        earlier_msg, earlier_kwargs = t.pending
        t.pending = None
        t.expected = None
        try:
            nxt = iface.next
            if nxt is not None:
                nxt.deliver(nxt, earlier_msg, direction, **earlier_kwargs)
        finally:
            t.expected = iface
        t.pending = (msg, kwargs)
        return DEFERRED
    nxt = iface.next
    if nxt is None:
        raise RuntimeError(
            f"{iface!r} has no next interface; interior stages must be "
            f"chained before delivery")
    return nxt.deliver(nxt, msg, direction, **kwargs)


def run_compiled(chain: tuple, msg: Any, direction: int,
                 kwargs: dict) -> Any:
    """Execute a precompiled ``((iface, fn, intercept), ...)`` chain as a
    tight loop.

    Each stage's deliver function runs exactly as it would recursively;
    its own ``forward`` call is intercepted (see :class:`_Trampoline`)
    and the parked message becomes the next iteration's input.  A stage
    that does *not* forward — absorb, drop, turn-around — terminates the
    loop and its return value is the traversal's result, matching the
    recursive semantics of delivery functions that tail-return
    ``forward(...)``.

    An entry with ``intercept`` false is always last: its function
    brackets the rest of the chain (see :func:`brackets_downstream`) and
    is executed without interception, so its downstream forward recurses
    through the remaining stages inside its dynamic extent.
    """
    t = _TRAMPOLINE
    saved = (t.expected, t.direction, t.pending)
    t.direction = direction
    # The outer finally restores all trampoline state even when a stage
    # function raises mid-loop, so the loop body itself stays bare — on
    # the hot path every statement is paid once per stage.
    try:
        for iface, fn, intercept in chain:
            if not intercept:
                # Bracketing stage: run it recursively so downstream
                # stages execute inside its frame (containment, probes).
                t.expected = None
                return fn(iface, msg, direction, **kwargs)
            t.expected = iface
            t.pending = None
            result = fn(iface, msg, direction, **kwargs)
            parked = t.pending
            if parked is None:
                t.expected = None
                return result  # absorbed / dropped / turned around / end
            msg, kwargs = parked
        # Only reachable when the final stage forwarded: mirror the
        # recursive path's wiring-bug diagnosis.
        raise RuntimeError(
            f"{chain[-1][0]!r} has no next interface; interior stages must "
            f"be chained before delivery")
    finally:
        t.expected, t.direction, t.pending = saved


def run_compiled_batch(chain: tuple, msgs: Any, direction: int,
                       kwargs: dict) -> list:
    """Execute a precompiled chain for a whole run of messages.

    The trampoline state is saved and restored **once per batch** instead
    of once per message — the batched analogue of :func:`run_compiled`.
    Each message runs to completion through the chain, one at a time, in
    arrival order, so absorption, turn-arounds, fan-out flushes and drop
    accounting are exactly those of delivering each message individually.

    A stage that cannot be flattened (``intercept`` false: fault
    containment, whole-chain probes) falls back to per-message recursion
    exactly as in :func:`run_compiled`.

    Returns the list of per-message traversal results, in order.
    """
    t = _TRAMPOLINE
    saved = (t.expected, t.direction, t.pending)
    t.direction = direction
    results = []
    try:
        for msg in msgs:
            kw = kwargs
            for iface, fn, intercept in chain:
                if not intercept:
                    # Bracketing stage: recurse so downstream stages run
                    # inside its frame (containment, probes).
                    t.expected = None
                    results.append(fn(iface, msg, direction, **kw))
                    break
                t.expected = iface
                t.pending = None
                result = fn(iface, msg, direction, **kw)
                parked = t.pending
                if parked is None:
                    t.expected = None
                    results.append(result)  # absorbed / dropped / turned
                    break
                msg, kw = parked
            else:
                raise RuntimeError(
                    f"{chain[-1][0]!r} has no next interface; interior "
                    f"stages must be chained before delivery")
    finally:
        t.expected, t.direction, t.pending = saved
    return results


def turn_around(iface: Iface, msg: Any, direction: int,
                **kwargs: Any) -> Any:
    """Send *msg* back in the opposite direction (Section 2.4.1).

    Follows the interface's ``back`` pointer — "the next interface in the
    opposite direction" — so processing resumes at the neighbouring stage
    on the side the message came from, now traveling the other way.
    """
    back = iface.back
    if back is None:
        raise RuntimeError(f"{iface!r} has no back interface; cannot turn around")
    return back.deliver(back, msg, opposite(direction), **kwargs)
