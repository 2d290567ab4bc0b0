"""One set-up measurement: a fresh process until the first request.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``time.monotonic()`` (system-wide on Linux, so the parent can
subtract its own stamp taken before starting this process) at the
moment the first request is admitted.  That covers interpreter start,
imports, compile + preprocess of the mix, and building the cluster and
scheduler.  The real backend has no in-process admission point, so
there the stamp is taken once one request per worker has been served:
the workers build their own classpath after the fork.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS, virtual_pass  # noqa: E402


def main() -> None:
    wl = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    if wl.backend == "virtual":
        from repro.serve.scheduler import ClusterScheduler

        def submit(self, spec, tenant=None):
            print(repr(time.monotonic()), flush=True)
            os._exit(0)
        ClusterScheduler.submit = submit
        virtual_pass(wl, seed)
        sys.exit("no request was admitted")
    from repro.runtime.real import serve_real
    serve_real(mix=wl.mix, n_requests=wl.procs(), seed=seed,
               procs=wl.procs())
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    main()
