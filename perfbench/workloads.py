"""The serving benchmark's four workloads and one serving pass of each.

All four are batch runs as seen from the host: every request is queued
at virtual time 0 (the virtual backend plays it in virtual time) or
handed to the workers at once (``serve_real`` ignores arrival times),
so the host-side figure is the work done per host second at a stated
request count.

The two workloads on mixed-size catalogues (``paper``, ``offload``)
serve the catalogue in exact weight proportions, in blocks shuffled by
the seed (:class:`FixedShareMix`).  A plain weighted draw moves the
share of heavy requests (FFT next to TSP(5) is ~8x the instructions) by
~20% between seeds at these request counts, which would swamp every
host-side comparison.  The two ``scale`` workloads keep the public
draw: the mix's four programs are within ~1.4x of each other in size,
and ``serve_real`` takes a mix name.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.runtime.crosscheck import crosscheck_real_vs_virtual
from repro.runtime.real import available_cores, serve_real
from repro.serve.loadgen import LoadGenerator
from repro.serve.policies import QueueDepthPolicy
from repro.serve.scheduler import build_serving
from repro.workloads.mixes import (MIXES, RequestMix, expected_request_result,
                                   serve_classpath)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str             # "virtual" or "real"
    mix: str
    requests: int            # per serving pass
    nodes: int = 0           # virtual nodes (real: one worker per core)
    placement: str = "round-robin"
    max_seg_hops: int = 0    # QueueDepthPolicy(max_seg_hops=...)
    fixed_shares: bool = False  # FixedShareMix instead of the plain draw

    def procs(self) -> int:
        """Worker processes of the real backend: one per usable core,
        capped at 4 (the ``RealRuntime`` default)."""
        return min(4, available_cores())

    def config(self) -> Dict[str, Any]:
        cfg: Dict[str, Any] = {"backend": self.backend, "mix": self.mix,
                               "requests": self.requests}
        if self.backend == "virtual":
            cfg.update(nodes=self.nodes, placement=self.placement,
                       offload=f"QueueDepthPolicy(max_seg_hops="
                               f"{self.max_seg_hops})")
        else:
            cfg["procs"] = self.procs()
        cfg["composition"] = ("exact weight shares, seeded order"
                              if self.fixed_shares else "seeded draw")
        cfg["virt_tail_pct"] = round(100.0 * (self.requests - 10)
                                     / self.requests, 2)
        return cfg


#: why each workload was chosen is stated in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-isolated", "virtual", "paper", requests=50, nodes=4,
             max_seg_hops=2, fixed_shares=True),
    Workload("offload-deep", "virtual", "offload", requests=48, nodes=8,
             placement="front-door", max_seg_hops=2, fixed_shares=True),
    Workload("scale-light", "virtual", "scale", requests=2000, nodes=32),
    Workload("real-light", "real", "scale", requests=500),
)}


class FixedShareMix(RequestMix):
    """A mix's catalogue in exact weight proportions, in seeded order.

    The stream is a run of blocks, each holding every catalogue entry
    ``weight`` times, shuffled within the block by the seed: any window
    of consecutive requests (what placement spreads over the nodes at
    once) then keeps the mix's proportions, and only the order inside
    a block depends on the seed."""

    def draw(self, n: int, seed: Any = 0) -> List[Any]:
        block: List[Any] = []
        for spec, w in self.choices:
            if w != int(w):
                raise ValueError(f"{self.name}: weight {w} is not whole")
            block += [spec] * int(w)
        if n % len(block):
            raise ValueError(f"{n} requests are not whole blocks of "
                             f"{len(block)} for {self.name}")
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        specs: List[Any] = []
        for _ in range(n // len(block)):
            rng.shuffle(block)
            specs += block
        return specs


def load_for(wl: Workload, seed: int) -> LoadGenerator:
    """The request stream of ``wl`` at ``seed`` (what the backend sees)."""
    mix = MIXES[wl.mix]
    if wl.fixed_shares:
        mix = FixedShareMix(mix.name, mix.choices, mix.description)
    return LoadGenerator(mix, wl.requests, seed=seed)


def compile_classpath(wl: Workload) -> None:
    """Compile and preprocess every program of the mix (cached)."""
    serve_classpath(MIXES[wl.mix].programs())


def warm_oracle(wl: Workload, seed: int) -> float:
    """Run the solo-run oracle for every distinct drawn request, so no
    timed pass pays for it (the oracle is cached per spec).  Returns
    the seconds it took."""
    t0 = time.perf_counter()
    for spec in set(load_for(wl, seed).specs()):
        expected_request_result(spec)
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall_s: float
    submitted: int
    ok: int                  # served and equal to the solo oracle
    instrs: int
    counts: Dict[str, Any]   # exact counts: identical on every pass
    info: Dict[str, Any]     # everything else the metrics need
    #: host speed around the pass relative to the reference host (set
    #: by the caller that times the reference loop)
    speed: float = 1.0

    def ms_per_req(self) -> float:
        """Host ms per request at the reference host's speed."""
        return 1e3 * self.wall_s * self.speed / self.submitted


def _virt(sched: Any, rep: Any) -> Dict[str, float]:
    """The model's latency and throughput (deterministic)."""
    done = [r for r in sched.requests
            if r.kind == "request" and r.state == "done"]
    lat = sorted(r.finished_at - r.arrival for r in done)
    tail = lat[max(0, len(lat) - 11)]   # ten samples beyond it
    return {"virt_p50_ms": rep.latency_p50 * 1e3,
            "virt_tail_ms": tail * 1e3,
            "virt_rps": rep.throughput}


def virtual_pass(wl: Workload, seed: int) -> PassResult:
    t0 = time.perf_counter()
    sched, _load = build_serving(
        mix=wl.mix, n_nodes=wl.nodes, n_requests=wl.requests, seed=seed,
        placement=wl.placement,
        offload=QueueDepthPolicy(max_seg_hops=wl.max_seg_hops))
    rep = sched.serve(load_for(wl, seed))
    wall = time.perf_counter() - t0
    hosts = list(sched.engine.hosts.values())
    instrs = sum(h.machine.instr_count for h in hosts)
    virt = _virt(sched, rep)
    waits = [r.started_at - r.arrival for r in sched.requests
             if r.kind == "request" and r.state == "done"]
    counts = {
        "instrs": instrs,
        "tier2_compiles": rep.stats["tier2_compiles"],
        "offloads": rep.stats["sod_offloads"],
        "fault_fetches": sum(h.objman.stats.faults for h in hosts
                             if h.objman is not None),
        "net_bytes": sched.network.total_bytes(),
        "net_saved": sched.network.total_saved(),
        **{k: repr(v) for k, v in virt.items()},
    }
    info = {"virt": virt, "stats": rep.stats,
            "queue_wait_ms": statistics.median(waits) * 1e3}
    ok = rep.correct if rep.served == rep.submitted else 0
    return PassResult(wall, rep.submitted, ok, instrs, counts, info)


def real_pass(wl: Workload, seed: int) -> PassResult:
    t0 = time.perf_counter()
    rep = serve_real(mix=wl.mix, n_requests=wl.requests, seed=seed,
                     procs=wl.procs())
    wall = time.perf_counter() - t0
    ok = rep["correct"] if rep["served"] == rep["submitted"] else 0
    # Instruction totals and steals depend on where the control plane
    # moved work at run time, so only the results are exact here.
    counts = {"served": rep["served"], "correct": rep["correct"]}
    return PassResult(wall, rep["submitted"], ok, rep["sched"]["instrs"],
                      counts, {"report": rep})


def serving_pass(wl: Workload, seed: int) -> PassResult:
    return (virtual_pass if wl.backend == "virtual" else real_pass)(wl, seed)


def real_model(wl: Workload, seed: int,
               report: Dict[str, Any]) -> Dict[str, Any]:
    """The virtual model of ``real-light``'s exact request stream on as
    many nodes as there are workers: cross-checks the real report
    request by request and supplies the ``virt_*`` metrics."""
    sched, load = build_serving(mix=wl.mix, n_nodes=wl.procs(),
                                n_requests=wl.requests, seed=seed)
    rep = sched.serve(load)
    rows = [{"rid": r.rid, "program": r.spec.program,
             "args": list(r.spec.args), "tenant": r.tenant,
             "state": r.state, "result": r.result}
            for r in sched.requests if r.kind == "request"]
    crosscheck_real_vs_virtual(report, virtual_rows=rows)
    virt = _virt(sched, rep)
    return {"virt": virt, "counts": {k: repr(v) for k, v in virt.items()}}
