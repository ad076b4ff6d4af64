"""The repo's performance benchmark: six named workloads over both kernels.

``python -m benchmarks.perf run`` measures every workload end to end
(tracing off) and layer by layer (one separate traced repetition);
``python -m benchmarks.perf compare BASE.json NEW.json`` judges two
result files against the bounds fixed in ``/BENCHMARK.json``.
``benchmarks/perf/run.py`` is the single-workload entry point the
benchmark driver calls.  See README.md in this directory.
"""
