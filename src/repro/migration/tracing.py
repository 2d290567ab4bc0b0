"""Structured event tracing for the SOD runtime.

Attach a :class:`Tracer` to a :class:`~repro.migration.sodee.SODEngine`
to record every migration, object fault, write-back and class fetch with
simulated timestamps — the observability layer a production middleware
would ship with, and what the examples use to print timelines.

Events are plain records; :func:`format_timeline` renders them as an
aligned textual trace::

    t=  0.000 ms  migrate       node0 -> node1  frames=1 state=187B
    t=  9.601 ms  fault         node1 <- node0  oid=3 bytes=24
    t= 11.205 ms  writeback     node1 -> node0  bytes=88
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.migration.sodee import Host, MigrationRecord, SODEngine
from repro.vm.values import RemoteRef


@dataclass(frozen=True)
class TraceEvent:
    """One runtime event on the engine timeline."""

    at: float          # engine timeline, seconds
    kind: str          # migrate / fault / prefetch / writeback / class
    src: str
    dst: str
    detail: Dict[str, Any]


class Tracer:
    """Engine instrumentation: wraps the hot entry points and records
    events.  Attach with :meth:`attach`; detach restores the originals.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._engine: Optional[SODEngine] = None
        self._orig: Dict[str, Callable] = {}

    # -- attachment --------------------------------------------------------

    def attach(self, engine: SODEngine) -> "Tracer":
        """Instrument ``engine`` (idempotent per tracer)."""
        if self._engine is not None:
            raise ValueError("tracer already attached")
        self._engine = engine
        self._orig["migrate"] = engine.migrate
        self._orig["fetch_remote"] = engine.fetch_remote
        self._orig["complete_segment"] = engine.complete_segment

        def migrate(src_host, thread, dst_node, nframes=1):
            out = self._orig["migrate"](src_host, thread, dst_node, nframes)
            rec: MigrationRecord = out[2]
            self._push("migrate", rec.src, rec.dst, frames=rec.nframes,
                       state_bytes=rec.state_bytes,
                       latency_ms=rec.latency * 1e3)
            return out

        def fetch_remote(requester: str, ref: RemoteRef):
            payload, nbytes, owner = self._orig["fetch_remote"](requester,
                                                                ref)
            # Faults happen mid-run; the engine timeline syncs at run
            # boundaries, so carry the requester's own clock too.
            req = engine.hosts.get(requester)
            vm_clock = req.machine.clock if req is not None else 0.0
            self._push("fault", owner, requester, oid=ref.home_oid,
                       bytes=nbytes, vm_clock_ms=vm_clock * 1e3)
            return payload, nbytes, owner

        def complete_segment(worker, worker_thread, home, home_thread,
                             nframes):
            dt = self._orig["complete_segment"](worker, worker_thread,
                                                home, home_thread, nframes)
            self._push("writeback", worker.node_name, home.node_name,
                       seconds=dt)
            return dt

        engine.migrate = migrate  # type: ignore[method-assign]
        engine.fetch_remote = fetch_remote  # type: ignore[method-assign]
        engine.complete_segment = complete_segment  # type: ignore[method-assign]
        return self

    def detach(self) -> None:
        """Restore the engine's original entry points."""
        if self._engine is None:
            return
        for name, fn in self._orig.items():
            setattr(self._engine, name, fn)
        self._engine = None
        self._orig.clear()

    # -- recording -----------------------------------------------------------

    def _push(self, kind: str, src: str, dst: str, **detail: Any) -> None:
        assert self._engine is not None
        self.events.append(TraceEvent(self._engine.timeline, kind, src,
                                      dst, detail))

    # -- queries ----------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def format_timeline(tracer: Tracer) -> str:
    """Render a tracer's events as an aligned textual timeline."""
    lines = []
    for e in tracer.events:
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in e.detail.items())
        lines.append(f"t={e.at * 1e3:10.3f} ms  {e.kind:<10s} "
                     f"{e.src} -> {e.dst}  {detail}")
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)
