"""Self-tests of the benchmark: its oracles and its sensitivity.

    python3 e2ebench/selftest.py oracle
    python3 e2ebench/selftest.py slowdown [--layers excess,storage,server]
                                          [--seeds 3] [--seconds 8]

Run from the root of a checkout.

``oracle`` checks that the plain-Python answers agree with the engine on
a small company, and that a deliberately altered engine result (a row
dropped, duplicated or changed, a float perturbed, a write left out of
the ledger, the forall shape run without its quantifier) makes the check
fail.

``slowdown`` makes one public layer function take 20% longer (a spin
after each call, worth a fifth of that call's own duration) and checks
that the end-to-end metric the README names for that layer moves past
its bound on the named workload, and stays within its bound on a
workload that bypasses the layer. A server-side function is slowed in
the server process, which ``serve`` starts in place of
``python -m repro.server``. Each run is a fresh process; the medians
over ``--seeds`` seeds are compared, baseline and slowed runs
alternating.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: layer -> (module, owner, attribute, moved (workload, metric),
#:           bypassed (workload, metric)); the ``server`` function runs
#: in the server process
LAYERS = {
    "excess": ("repro.excess.evaluator", "Evaluator", "run_retrieve",
               ("paper_queries", "over_p50_ms"),
               ("paged_cold", "write_p50_ms")),
    "storage": ("repro.storage.object_store", "PagedObjectStore", "fetch",
                ("paged_cold", "refchase_p50_ms"),
                ("paper_queries", "refchase_p50_ms")),
    "server": ("repro.server.server", "ExcessServer", "_respond",
               ("wire_oltp", "lookup_miss_p50_ms"),
               ("paper_queries", "lookup_miss_p50_ms")),
}
SERVER_SIDE = {"server"}

SLOWDOWN = 0.20


# -- oracle self-test --------------------------------------------------------

def oracle() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import Database

    from company import (FORALL_FLOOR, SCHEMA, OracleMismatch, check_rows,
                         generate)
    from inproc import lookup_text, replace_text, shape_texts

    # six departments: two on the forall floor, one of them an answer
    company = generate(7, employees=60, departments=6)
    db = Database()
    db.interpreter.parallel_mode = "off"
    db.execute(SCHEMA)
    depts = [db.insert("Departments", dname=n, floor=f, budget=b)
             for n, f, b in company.depts]
    for e in company.employees.values():
        db.insert("Employees", eno=e.eno, name=e.name, age=e.age,
                  salary=e.salary, dept=depts[e.dept],
                  kids=[{"name": n, "age": a} for n, a in e.kids])
    shapes = shape_texts(company)
    failures = []

    def expect_fail(label: str, got: list, want: list) -> None:
        try:
            check_rows(label, got, want)
        except OracleMismatch:
            return
        failures.append(f"{label}: altered result passed the oracle")

    for shape, (text, expect) in shapes.items():
        result = db.execute(text)
        rows, width = result.rows, len(result.columns)
        want = expect()
        check_rows(shape, rows, want)  # the engine agrees with the oracle
        if rows:
            expect_fail(f"{shape} row dropped", rows[1:], want)
            expect_fail(f"{shape} row duplicated", rows + rows[:1], want)
            first = list(rows[0])
            first[-1] = (first[-1] * 1.001 if isinstance(first[-1], float)
                         else f"{first[-1]}x")
            expect_fail(f"{shape} value changed", [tuple(first)] + rows[1:], want)
        expect_fail(f"{shape} row invented", rows + [("nobody",) * width], want)
    eno = next(iter(company.employees))
    db.execute(replace_text(eno, 123000.0))
    rows = db.execute(lookup_text(eno)).rows
    expect_fail("write missing from the ledger", rows, company.lookup_rows(eno))
    company.set_salary(eno, 123000.0)
    check_rows("ledger", rows, company.lookup_rows(eno))
    over = db.execute(shapes["over"][0]).rows
    nudged = [(over[0][0], over[0][1] * (1 + 1e-6))] + over[1:]
    expect_fail("average off by one part in a million", nudged,
                company.over_rows())
    # the forall shape with its quantifier read wrongly: a plain range
    # (``some``), and the quantified variable dropped altogether
    forall, expect = shapes["forall"]
    for label, text in (
            ("forall without every",
             forall.replace("E in every Employees", "E in Employees")),
            ("forall without E",
             f"retrieve (D.dname) from D in Departments "
             f"where D.floor = {FORALL_FLOOR}")):
        expect_fail(label, db.execute(text).rows, expect())
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"oracle self-test: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


# -- layer slowdown self-test ------------------------------------------------

def _spin(start: float) -> None:
    """Busy-wait for SLOWDOWN of the time since ``start``."""
    until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
    while time.perf_counter() < until:
        pass


def _install_slowdown(layer: str) -> None:
    import importlib

    module_name, owner_name, attr = LAYERS[layer][:3]
    owner = getattr(importlib.import_module(module_name), owner_name)
    original = getattr(owner, attr)

    if inspect.iscoroutinefunction(original):
        async def slowed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                _spin(start)
    else:
        def slowed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                _spin(start)

    setattr(owner, attr, slowed)


def serve(layer: str, argv: list) -> int:
    """``python -m repro.server`` with ``layer``'s function slowed."""
    _install_slowdown(layer)
    from repro.server import server

    return server.main(argv)


def _slow_server(layer: str) -> None:
    """Make ``wire_oltp`` start its server through :func:`serve`."""
    import wire

    def command(_traced: bool, _trace_out: str) -> list:
        return [sys.executable, "-u", os.path.abspath(__file__), "serve",
                layer]

    wire.server_command = command


def child(options: argparse.Namespace) -> int:
    """One benchmark run in this process, optionally with a slowed layer."""
    import shutil

    from run import run_workload, steady_process

    steady_process()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    workdir = os.path.join(os.getcwd(), ".e2ebench",
                           f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    prepare = None
    if options.slow in SERVER_SIDE:
        prepare = lambda _tracer: _slow_server(options.slow)  # noqa: E731
    elif options.slow:
        prepare = lambda _tracer: _install_slowdown(options.slow)  # noqa: E731
    try:
        run, _tracer = run_workload(options.workload, options.seed,
                                    options.seconds, False, workdir, prepare)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: value for name, (value, _unit) in run.end_to_end().items()}
    print(json.dumps({"correct": not run.mismatches, "metrics": metrics}))
    return 0


def _child_metric(workload: str, metric: str, seed: int, seconds: float,
                  slow: str) -> float:
    command = [sys.executable, os.path.abspath(__file__), "child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if slow:
        command += ["--slow", slow]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(command)}: incorrect results")
    return result["metrics"][metric]


def slowdown(options: argparse.Namespace) -> int:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    failed = False
    for layer in options.layers.split(","):
        module_name, owner, attr, moved, bypassed = LAYERS[layer]
        for role, (workload, metric) in (("moves", moved), ("bypass", bypassed)):
            base, slow = [], []
            for seed in range(1, options.seeds + 1):
                pair = [("", base), (layer, slow)]
                if seed % 2 == 0:
                    pair.reverse()
                for which, into in pair:
                    into.append(_child_metric(workload, metric, seed,
                                              options.seconds, which))
            change = statistics.median(slow) / statistics.median(base) - 1.0
            bound = bounds[metric]
            ok = change > bound if role == "moves" else abs(change) <= bound
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {layer}: {owner}.{attr} +20% -> "
                  f"{metric} on {workload} {100 * change:+.1f}% "
                  f"({'must exceed' if role == 'moves' else 'must stay within'} "
                  f"{100 * bound:.0f}%; base {statistics.median(base):.4g}, "
                  f"slowed {statistics.median(slow):.4g})", flush=True)
    print(f"slowdown self-test: {'FAILED' if failed else 'passed'}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("oracle")
    slow = sub.add_parser("slowdown")
    slow.add_argument("--layers", default=",".join(LAYERS))
    slow.add_argument("--seeds", type=int, default=3)
    slow.add_argument("--seconds", type=float, default=8.0)
    kid = sub.add_parser("child")
    kid.add_argument("--workload", required=True)
    kid.add_argument("--seed", type=int, required=True)
    kid.add_argument("--seconds", type=float, required=True)
    kid.add_argument("--slow", default="")
    if sys.argv[1:2] == ["serve"]:  # serve LAYER SERVER-ARGUMENTS...
        return serve(sys.argv[2], sys.argv[3:])
    options = parser.parse_args()
    if options.command == "oracle":
        return oracle()
    if options.command == "slowdown":
        return slowdown(options)
    return child(options)


if __name__ == "__main__":
    sys.exit(main())
