"""Execution backends.

``virtual`` — the discrete-event kernel, deterministic, the
correctness oracle and CI merge gate; its entry points are
:func:`repro.serve.scheduler.build_serving` and
:func:`repro.serve.scheduler.serve_mix`.  ``real`` — multiprocess
wall-clock mode (:func:`repro.runtime.real.serve_real`), every cluster
node an OS process, every migration actual serialized bytes over
pipes, cross-checked request-by-request against the oracle
(:mod:`repro.runtime.crosscheck`).
"""
