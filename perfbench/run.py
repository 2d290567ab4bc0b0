"""The serving benchmark: host cost per served request, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

``NAME`` is one of the workloads in ``perfbench/workloads.py``.  With
``--trace 0`` a run warms the solo-run oracle, serves untraced passes
for about ``S`` seconds, checks every response, and reports the
end-to-end metrics named in ``BENCHMARK.json`` (host times scaled to a
reference host speed, see ``REFERENCE_S``); with ``--trace 1`` it
serves one warm-up pass, untraced passes for half the time and then one
traced pass, and reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit.  ``all`` runs every
workload in its own process and prints a table.

The exit code is nonzero when a response is missing or differs from its
solo oracle, when ``real-light`` disagrees with its virtual model, or
when an exact count (guest instructions, tier-2 compiles, offloads,
fault fetches, network bytes, ``virt_*``) differs between passes of a
run or between runs of the same seed on the same code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: passes a run serves even when they overrun ``--seconds``
MIN_PASSES = 3
#: fresh processes timed per run for ``setup_s``
SETUP_PROBES = 5

#: Host-time metrics are scaled to a reference host speed: each timed
#: interval is multiplied by REFERENCE_S (about the loop's time on an
#: idle 2-core Xeon VM) over the median time of ``reference_loop`` timed
#: LOOP_SAMPLES times just before and just after it.  On a shared host
#: the CPU speed can drift by 20-50% over minutes, longer than a pass,
#: so more passes do not average it away.  The loop uses no program
#: code, so it cannot hide a change to the program; the unscaled times
#: are printed beside the scaled ones.
REFERENCE_S = 0.004
LOOP_SAMPLES = 5

#: per-layer metrics of the layers one backend never enters: reported
#: as 0 there, so every workload prints every declared metric
VIRTUAL_ONLY = ("migration.offloads", "migration.fault_fetches",
                "net.bytes_moved", "net.bytes_saved", "serve.quanta",
                "serve.decisions", "serve.loadindex.ops_per_decision",
                "serve.virt_queue_wait_ms")
REAL_ONLY = ("real.control_bytes", "real.image_bytes", "real.steals",
             "real.migrations", "real.worker.vm_s",
             "real.worker.jit_compiles_per_req",
             "real.worker.namespaces_per_req")


def declared() -> Dict[str, Dict[str, str]]:
    """From BENCHMARK.json: each workload's reason and the units of the
    end-to-end and per-layer metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"why": {w["name"]: w["why"] for w in spec["workloads"]},
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def reference_loop(n: int = 40_000) -> int:
    """Fixed pure-Python arithmetic.  It creates no objects the garbage
    collector tracks, so its time does not depend on the size of the
    heap the passes left behind."""
    s = 0
    for i in range(n):
        s += (i * i) % 7 + (i >> 3)
    return s


def loop_times() -> List[float]:
    out = []
    for _ in range(LOOP_SAMPLES):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def speed(before: List[float], after: List[float]) -> float:
    """Host speed relative to the reference host, from the loop times
    around an interval (below 1 on a slower host)."""
    return REFERENCE_S / statistics.median(before + after)


def source_digest() -> str:
    """Digest of the program and benchmark sources: exact counts are
    recorded per digest, so a code change starts a fresh record."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for d, dirs, files in os.walk(base):
            dirs.sort()
            for fn in sorted(files):
                if fn.endswith(".py"):
                    p = os.path.join(d, fn)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_recorded_counts(key: str, counts: Dict[str, Any]) -> List[str]:
    """Compare ``counts`` with an earlier run's under ``key`` (same
    workload, seed and code), recording them if this is the first."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "counts.json")
    record: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    if key in record:
        if record[key] != counts:
            return [f"exact counts differ from an earlier run of {key}: "
                    f"{record[key]} vs {counts}"]
        return []
    record[key] = counts
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, wl: Any, seed: int, seconds: float):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.problems: List[str] = []
        self.passes: List[Any] = []

    # -- serving ---------------------------------------------------------

    def serve(self, seconds: float, min_passes: int) -> List[Any]:
        """Untraced passes until the next one would overrun
        ``seconds`` (at least ``min_passes``)."""
        from workloads import serving_pass
        out: List[Any] = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if len(out) >= min_passes and \
                    elapsed + elapsed / len(out) > seconds:
                break
            gc.collect()
            before = loop_times()
            p = serving_pass(self.wl, self.seed)
            p.speed = speed(before, loop_times())
            out.append(p)
        self.passes += out
        return out

    def check(self) -> None:
        """Every pass served every request correctly, with exact counts
        identical across passes and across runs of this seed."""
        first = self.passes[0].counts
        for i, p in enumerate(self.passes):
            if p.ok != p.submitted:
                self.problems.append(
                    f"pass {i}: {p.ok} of {p.submitted} requests served "
                    f"and equal to their solo oracle")
            if p.counts != first:
                self.problems.append(
                    f"pass {i}: exact counts {p.counts} differ from "
                    f"pass 0's {first}")
        self.problems += check_recorded_counts(
            f"{self.wl.name}:{self.seed}:{source_digest()}", first)

    def real_model(self) -> Dict[str, float]:
        """Cross-check ``real-light`` against its virtual model (outside
        timing); returns the model's ``virt_*`` metrics."""
        from repro.runtime.crosscheck import CrosscheckError

        from workloads import real_model
        try:
            model = real_model(self.wl, self.seed,
                               self.passes[-1].info["report"])
        except CrosscheckError as e:
            self.problems.append(str(e))
            return {}
        self.problems += check_recorded_counts(
            f"{self.wl.name}:{self.seed}:{source_digest()}:model",
            model["counts"])
        return model["virt"]

    def outcome(self, metrics: Dict[str, float]) -> Dict[str, Any]:
        attempted = sum(p.submitted for p in self.passes)
        failed = attempted - sum(p.ok for p in self.passes)
        return {"correct": not self.problems and failed == 0,
                "attempted": attempted, "failed": failed,
                "metrics": metrics}

    # -- the two kinds of run --------------------------------------------

    def end_to_end(self) -> Tuple[Dict[str, Any], List[str]]:
        from workloads import warm_oracle
        warm_oracle(self.wl, self.seed)
        passes = self.serve(self.seconds, MIN_PASSES)
        self.check()
        # Read before the set-up probes: on the real backend the
        # serving process's children are its workers.
        who = (resource.RUSAGE_SELF if self.wl.backend == "virtual"
               else resource.RUSAGE_CHILDREN)
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        virt = (passes[0].info["virt"] if self.wl.backend == "virtual"
                else self.real_model())
        setup = self.setup_seconds()
        ms = [p.ms_per_req() for p in passes]
        raw = [1e3 * p.wall_s / p.submitted for p in passes]
        mips = [p.instrs / (p.wall_s * p.speed) / 1e6 for p in passes]
        attempted = sum(p.submitted for p in passes)
        metrics = {
            "host_ms_per_req": statistics.median(ms),
            "guest_mips": statistics.median(mips),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": sum(p.ok for p in passes) / attempted,
            **virt,
        }
        notes = [f"{name}: q1 {q1:.4g}  median {q2:.4g}  q3 {q3:.4g}  "
                 f"n={len(v)} {what}"
                 for name, v, what in (("host_ms_per_req", ms, "passes"),
                                       ("unscaled ms per request", raw,
                                        "passes"),
                                       ("host speed", [p.speed for p in
                                                       passes], "passes"),
                                       ("guest_mips", mips, "passes"),
                                       ("setup_s", setup, "processes"))
                 for q1, q2, q3 in [quartiles(v)]]
        return metrics, notes

    def setup_seconds(self) -> List[float]:
        probe = os.path.join(HERE, "setup_probe.py")
        out = []
        for _ in range(SETUP_PROBES):
            before = loop_times()
            t0 = time.monotonic()
            res = subprocess.run(
                [sys.executable, probe, self.wl.name, str(self.seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            if res.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
            seconds = float(res.stdout.split()[-1]) - t0
            out.append(seconds * speed(before, loop_times()))
        return out

    def per_layer(self) -> Tuple[Dict[str, Any], List[str]]:
        from workloads import compile_classpath, serving_pass, warm_oracle

        tr = tracing.Tracer()
        tracing.install_setup_layers(tr)
        try:
            compile_classpath(self.wl)
        finally:
            tr.uninstall()
        setup_st = tracing.self_times(tr.spans)
        oracle_s = warm_oracle(self.wl, self.seed)
        # The first pass in a process also pays for lazy imports and cold
        # caches; keep it out of the baseline the traced pass is held to.
        self.serve(0, 1)
        base = self.serve(self.seconds / 2, 2)

        first = len(tr.spans)
        worker_dir = os.path.join(OUT, f"workers-{os.getpid()}")
        if self.wl.backend == "virtual":
            tracing.install_virtual_layers(tr)
        else:
            shutil.rmtree(worker_dir, ignore_errors=True)
            os.makedirs(worker_dir)
            tracing.install_real_parent_layers(tr, worker_dir)
        gc.collect()
        before = loop_times()
        root = tr.open("pass")
        try:
            p = serving_pass(self.wl, self.seed)
        finally:
            tr.close(root)
            tr.uninstall()
        p.speed = speed(before, loop_times())
        self.passes.append(p)
        self.check()

        st = tracing.self_times(tr.spans, first)
        wall = tr.spans[root][2] - tr.spans[root][1]
        m: Dict[str, Any] = {metric: st.get(name, 0.0)
                             for name, metric in
                             tracing.SELF_TIME_METRIC.items()}
        covered = sum(st.values())
        if abs(covered - wall) > 1e-6 * max(1.0, wall) or \
                set(st) - set(tracing.SELF_TIME_METRIC):
            self.problems.append(f"layer self times {st} do not sum to "
                                 f"the traced pass's {wall}s")
        m["trace.wall_s"] = wall
        m["trace.overhead_ms_per_req"] = (
            p.ms_per_req() - statistics.median(b.ms_per_req() for b in base))
        m["host.unscaled_ms_per_req"] = statistics.median(
            1e3 * b.wall_s / b.submitted for b in base)
        m["host.speed"] = statistics.median(b.speed for b in base)
        m["workloads.oracle_s"] = oracle_s
        m["lang.compile_s"] = setup_st.get("lang.compile", 0.0)
        m["preprocess.s"] = setup_st.get("preprocess", 0.0)

        traces = {"parent": tr.spans[first:]}
        vm_tracers = [tr]
        if self.wl.backend == "real":
            vm_tracers = self.worker_traces(worker_dir, traces)
            shutil.rmtree(worker_dir, ignore_errors=True)
        m.update(self.vm_metrics(vm_tracers))
        m.update(self.counted_metrics(tr, p))
        if self.wl.backend == "real":
            self.real_model()
            served = p.submitted
            m["real.worker.vm_s"] = sum(
                v for t in vm_tracers
                for k, v in tracing.self_times(t.spans).items()
                if k.startswith("vm."))
            m["real.worker.jit_compiles_per_req"] = sum(
                len(t.compiled) for t in vm_tracers) / served
            m["real.worker.namespaces_per_req"] = sum(
                t.counts.get("vm.namespace.created", 0)
                for t in vm_tracers) / served
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(
                OUT, f"trace-{self.wl.name}-{self.seed}.json"), "w") as f:
            json.dump({"workload": self.wl.name, "seed": self.seed,
                       "spans": traces}, f)
        notes = [f"traced pass {wall:.3f}s = layer self times + other_s; "
                 f"untraced passes n={len(base)}"]
        return m, notes

    def worker_traces(self, worker_dir: str,
                      traces: Dict[str, Any]) -> List[Any]:
        out = []
        for fn in sorted(os.listdir(worker_dir)):
            with open(os.path.join(worker_dir, fn)) as f:
                data = json.load(f)
            t = tracing.Tracer()
            t.spans, t.counts = data["spans"], data["counts"]
            t.instrs, t.compiled = data["instrs"], data["compiled"]
            traces[data["worker"]] = t.spans
            out.append(t)
        if len(out) != self.wl.procs():
            self.problems.append(f"{len(out)} of {self.wl.procs()} workers "
                                 f"wrote a trace on a clean stop")
        return out

    def vm_metrics(self, tracers: List[Any]) -> Dict[str, Any]:
        st: Dict[str, float] = {}
        for t in tracers:
            for k, v in tracing.self_times(t.spans).items():
                st[k] = st.get(k, 0.0) + v
        clean = sum(t.instrs["clean"] for t in tracers)
        hooked = sum(t.instrs["hooked"] for t in tracers)
        compiled = [q for t in tracers for q in t.compiled]
        return {
            "vm.run.clean_s": st.get("vm.run.clean", 0.0),
            "vm.run.hooked_s": st.get("vm.run.hooked", 0.0),
            "vm.run.clean_instrs": clean,
            "vm.run.hooked_instrs": hooked,
            "vm.hooked_instr_share": (hooked / (clean + hooked)
                                      if clean + hooked else 0.0),
            "vm.jit.compiles": len(compiled),
            "vm.jit.distinct_codes": len(set(compiled)),
            "vm.jit.refused": sum(t.counts.get("vm.jit.refused", 0)
                                  for t in tracers),
            "vm.jit.compile_s": st.get("vm.jit.compile", 0.0),
            "vm.namespace.created": sum(
                t.counts.get("vm.namespace.created", 0) for t in tracers),
            "vm.namespace_s": st.get("vm.namespace", 0.0),
        }

    def counted_metrics(self, tr: Any, p: Any) -> Dict[str, Any]:
        """Layer counts the serving reports keep themselves."""
        if self.wl.backend == "real":
            s = p.info["report"]["sched"]
            return {**dict.fromkeys(VIRTUAL_ONLY, 0),
                    **{f"real.{k}": s[k] for k in ("control_bytes",
                                                   "image_bytes", "steals",
                                                   "migrations")}}
        s = p.info["stats"]
        return {
            **dict.fromkeys(REAL_ONLY, 0),
            "migration.offloads": s["sod_offloads"],
            "migration.fault_fetches": tr.counts.get(
                "migration.fault_fetches", 0),
            "net.bytes_moved": p.counts["net_bytes"],
            "net.bytes_saved": p.counts["net_saved"],
            "serve.quanta": s["quanta"],
            "serve.decisions": s["decisions"],
            "serve.loadindex.ops_per_decision": (
                s["decision_ops"] / s["decisions"] if s["decisions"]
                else 0.0),
            "serve.virt_queue_wait_ms": p.info["queue_wait_ms"],
        }


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS
    results: Dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            status = 1
        if lines:
            try:
                results[name] = json.loads(lines[-1])
            except ValueError:
                status = 1
    print(json.dumps(results, sort_keys=True))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, args.seconds)
    spec = declared()
    metrics, notes = run.per_layer() if args.trace else run.end_to_end()
    units = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        run.problems.append(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json")
    print(f"# {wl.name} seed={args.seed} {json.dumps(wl.config())}")
    if wl.name in spec["why"]:
        print(f"# {spec['why'][wl.name]}")
    else:
        run.problems.append(f"{wl.name} is not declared in BENCHMARK.json")
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:>16.6f} {units.get(name, '?')}")
    for line in notes:
        print(f"# {line}")
    for line in run.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    out = run.outcome({k: {"value": metrics[k], "unit": units[k]}
                       for k in sorted(metrics) if k in units})
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
