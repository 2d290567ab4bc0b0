"""Span tracing for the serving benchmark, installed from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces a layer's public functions (a class method or a module
attribute) with a wrapper that records one span per call and restores
the originals on :meth:`Tracer.uninstall`.  Spans stay in memory as
``[name, start, end, parent, request]`` rows (``parent`` is the index
of the enclosing span or -1; ``request`` is the guest thread's name,
which the serving layers set to the request label) and are written
out once, at the end.

Every wrapped call site runs on one host thread per process (the
virtual kernel is generator-driven; real workers are single-threaded),
so a plain stack gives each span its parent.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: a span's name -> the per-layer self-time metric it feeds
SELF_TIME_METRIC = {
    "serve.env_run": "serve.self_s",
    "serve.loadindex.pick": "serve.loadindex.pick_s",
    "vm.run.clean": "vm.run.clean_s",
    "vm.run.hooked": "vm.run.hooked_s",
    "vm.jit.compile": "vm.jit.compile_s",
    "vm.namespace": "vm.namespace_s",
    "migration.ship": "migration.ship_s",
    "migration.complete": "migration.complete_s",
    "migration.fault_fetch": "migration.fault_fetch_s",
    "migration.writeback": "migration.writeback_s",
    "real.send": "real.send_s",
    "real.recv": "real.recv_s",
    "real.wait": "real.wait_s",
    "pass": "other_s",
}


def self_times(spans: List[list], first: int = 0) -> Dict[str, float]:
    """Self time per span name over ``spans[first:]``: each span's
    duration minus the durations of its direct children (children nest
    strictly inside their parent on a single thread)."""
    child: Dict[int, float] = {}
    for _name, t0, t1, parent, _req in spans[first:]:
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out: Dict[str, float] = {}
    for i, (name, t0, t1, _p, _r) in enumerate(spans[first:], first):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child.get(i, 0.0)
    return out


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        #: run instructions per Machine.run class ("clean"/"hooked")
        self.instrs: Dict[str, int] = {"clean": 0, "hooked": 0}
        #: qualified names of code objects tier-2 compiled (with repeats)
        self.compiled: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, request: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "instrs": self.instrs, "compiled": self.compiled,
                       **extra}, f)

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(self, owner: Any, attr: str, name: str,
             request: Optional[Callable[..., Optional[str]]] = None,
             counter: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` so each call records a ``name`` span
        (``request(*args)`` names its request; else it inherits the
        enclosing span's) and bumps ``counter``."""
        tr = self

        def make(orig: Callable) -> Callable:
            def wrapper(*args: Any, **kw: Any) -> Any:
                if counter is not None:
                    tr.count(counter)
                idx = tr.open(name, request(*args) if request else None)
                try:
                    return orig(*args, **kw)
                finally:
                    tr.close(idx)
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _thread_name(_self: Any, thread: Any, *_a: Any) -> Optional[str]:
    return getattr(thread, "name", None)


def install_setup_layers(tr: Tracer) -> None:
    """``lang`` and ``preprocess``: the compile and MSP build behind
    ``serve_compiled`` (patched where ``repro.workloads.mixes`` binds
    them)."""
    from repro.workloads import mixes
    tr.span(mixes, "compile_source", "lang.compile")
    tr.span(mixes, "preprocess_program", "preprocess")


def install_vm_layers(tr: Tracer) -> None:
    """``vm``: ``Machine.run`` split clean/hooked, tier-2 compiles and
    namespace creation."""
    from repro.vm import jit
    from repro.vm.machine import Machine

    def make_run(orig: Callable) -> Callable:
        def run(m: Any, thread: Any, stop: Any = None,
                max_instrs: Any = None, quantum: Any = None) -> str:
            # The machine state visible at entry decides the loop: any
            # hook forces the hook-aware legacy loop for the whole call.
            hooked = (stop is not None or max_instrs is not None
                      or m.dispatch != "fast" or bool(m.breakpoints)
                      or m.on_breakpoint is not None
                      or m.on_write is not None)
            kind = "hooked" if hooked else "clean"
            before = m.instr_count
            idx = tr.open("vm.run." + kind, thread.name)
            try:
                return orig(m, thread, stop=stop, max_instrs=max_instrs,
                            quantum=quantum)
            finally:
                tr.close(idx)
                tr.instrs[kind] += m.instr_count - before
        return run
    tr.patch(Machine, "run", make_run)

    def make_compile(orig: Callable) -> Callable:
        def compile_into(machine: Any, code: Any, jm: Any) -> Any:
            idx = tr.open("vm.jit.compile")
            try:
                out = orig(machine, code, jm)
            finally:
                tr.close(idx)
            if out is False:
                tr.count("vm.jit.refused")
            else:
                tr.compiled.append(code.qualname)
            return out
        return compile_into
    # The fast loop imports ``compile_into`` lazily from the module on
    # every run, so patching the module attribute reaches it.
    tr.patch(jit, "compile_into", make_compile)

    def make_namespace(orig: Callable) -> Callable:
        def namespace(m: Any, tag: Any, create: bool = True) -> Any:
            # Only creating calls get a span: lookups of an existing tag
            # happen on every quantum of a namespaced thread.
            if tag is None or not create or m.has_namespace(tag):
                return orig(m, tag, create)
            tr.count("vm.namespace.created")
            idx = tr.open("vm.namespace")
            try:
                return orig(m, tag, create)
            finally:
                tr.close(idx)
        return namespace
    tr.patch(Machine, "namespace", make_namespace)


def install_virtual_layers(tr: Tracer) -> None:
    """The virtual backend: kernel + scheduler, load index, migration
    engine and object faults, on top of the ``vm`` layer."""
    from repro.migration.object_manager import WorkerObjectManager
    from repro.migration.sodee import SODEngine
    from repro.serve.loadindex import LoadIndex
    from repro.sim.kernel import Environment

    install_vm_layers(tr)
    tr.span(Environment, "run", "serve.env_run")
    tr.span(LoadIndex, "pick_underloaded", "serve.loadindex.pick")
    tr.span(SODEngine, "migrate", "migration.ship", _thread_name)
    tr.span(SODEngine, "rehop_segment", "migration.ship", _thread_name)
    tr.span(SODEngine, "migrate_many", "migration.ship")
    tr.span(SODEngine, "complete_segment", "migration.complete",
            _thread_name)
    tr.span(WorkerObjectManager, "fetch", "migration.fault_fetch",
            counter="migration.fault_fetches")
    tr.span(WorkerObjectManager, "build_writeback", "migration.writeback")


def install_real_parent_layers(tr: Tracer, worker_dir: str) -> None:
    """The real backend's control plane (pipe sends, receives and idle
    waits) plus a worker entry that traces the ``vm`` layer inside each
    forked worker and writes its spans to ``worker_dir`` on a clean
    ``stop``."""
    from multiprocessing import connection

    from repro.runtime import real

    tr.span(real, "_send", "real.send")
    tr.span(real, "_recv", "real.recv")
    tr.span(connection, "wait", "real.wait")

    def make_entry(orig: Callable) -> Callable:
        def worker_main(conn_: Any, name: str, mix: str,
                        quantum: int) -> None:
            # Runs in the forked child: drop the parent's patches and
            # spans, then trace this worker's VM only.
            tr.uninstall()
            wtr = Tracer()
            install_vm_layers(wtr)
            loop = real._Worker.loop

            def traced_loop(self: Any) -> None:
                loop(self)  # returns only on a clean ``stop``
                wtr.dump(os.path.join(worker_dir, f"{name}.json"),
                         worker=name)
            real._Worker.loop = traced_loop
            orig(conn_, name, mix, quantum)
        return worker_main
    tr.patch(real, "_worker_main", make_entry)
