"""End-to-end benchmark of the EXTRA/EXCESS engine.

    python3 e2ebench/run.py --workload paper_queries --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the engine is imported from ``./src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``. The line before it is a JSON object with
the attempted and failed counts per statement class, the raw (not
speed-corrected) figures, sizes and the host speed factor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("paper_queries", "wire_oltp", "paged_cold")


def _source_root() -> str:
    """``./src`` of the checkout, or exit when there is none."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("e2ebench: no engine sources at ./src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        sys.exit(2)
    return src


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, prepare=None):
    """Run one workload; returns ``(run, tracer)``. ``prepare(tracer)``,
    when given, runs after tracing is installed and before set-up (the
    self-test uses it to slow one layer down)."""
    from layers import Tracer, install

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer, wire=workload == "wire_oltp")
    if prepare is not None:
        prepare(tracer)
    try:
        if workload == "wire_oltp":
            from wire import run_wire

            run = run_wire(seed, seconds, tracer=tracer, workdir=workdir)
        else:
            from inproc import run_inprocess

            run = run_inprocess(workload, seed, seconds, tracer=tracer,
                                workdir=workdir)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return run, tracer


def steady_process() -> None:
    """Fix what varies between processes but is not the engine's work.

    The process re-runs itself with ``PYTHONHASHSEED=0``: randomized
    string hashing gives each process its own dict and set layouts,
    which moved the same workload's medians by several percent between
    runs. It then pins itself, and so everything it starts (the server,
    the worker pool), to one CPU, so that the calibration slices time the
    CPU the measured work runs on and no request waits for a cross-CPU
    wake-up.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    steady_process()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    sys.path.insert(0, _source_root())
    workdir = os.path.join(os.getcwd(), ".e2ebench",
                           f"{options.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        run, tracer = run_workload(options.workload, options.seed,
                                   options.seconds, bool(options.trace),
                                   workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        from layers import layer_metrics

        metrics = layer_metrics(run, tracer)
        spans = os.path.join(os.getcwd(), ".e2ebench",
                             f"spans-{options.workload}-{options.seed}.jsonl")
        tracer.write_spans(spans)
    else:
        metrics = run.end_to_end()
    detail = run.detail(options.workload, options.seed)
    if tracer is not None:
        detail["self_ms"] = {f"{layer}|{tag}": seconds * 1000.0
                             for (layer, tag), seconds in tracer.self_s.items()}
    print(json.dumps(detail, sort_keys=True))
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    correct = not run.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
