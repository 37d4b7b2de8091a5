"""Regenerate the reference figures of ``e2ebench/README.md``.

    python3 e2ebench/figures.py [--seeds 10] [--seconds 20]
                                [--workloads paper_queries,wire_oltp,paged_cold]

Run from the root of a checkout. For each workload it makes ``--seeds``
untraced runs (seeds 1..N) and one traced run (seed 1), exactly as the
benchmark command does, then prints Markdown: host, input sizes, every
end-to-end metric's median with its spread (quartile distance over the
median) speed-corrected and raw, the bound from ``BENCHMARK.json``, the
host speed factor, the tracing overhead and a "where the time goes"
table per workload. The runs are also kept in ``.e2ebench/figures.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
#: span tags of timed operations (the traced server tags all lookups
#: "lookup", since it cannot tell a plan-cache hit from its text)
OPERATION_TAGS = ("path", "refchase", "over", "forall", "join", "lookup_hit",
                  "lookup_miss", "lookup", "write", "txn")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - started}


def spread(values: list) -> float:
    """Quartile distance over the median, as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def _where_time_goes(traced: dict) -> list:
    detail = traced["detail"]
    ops = sum(c["samples"] for name, c in detail["classes"].items()
              if name in OPERATION_TAGS)
    busy_ms = detail["busy_s_raw"] * 1000.0
    per_layer: dict = {}
    for key, ms in detail["self_ms"].items():
        layer, tag = key.split("|", 1)
        if tag not in OPERATION_TAGS:
            continue
        per_layer[layer] = per_layer.get(layer, 0.0) + ms
    lines = ["| layer | self ms per op | share of traced op time |",
             "| --- | ---: | ---: |"]
    for layer, ms in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {_fmt(ms / ops)} | {100 * ms / busy_ms:.1f}% |")
    rest = busy_ms - sum(per_layer.values())
    lines.append(f"| outside any span (benchmark, asyncio, sockets, "
                 f"untraced engine code) | {_fmt(rest / ops)} | "
                 f"{100 * rest / busy_ms:.1f}% |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    options = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = options.seconds or spec["run_seconds"]
    workloads = (options.workloads.split(",") if options.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict = {}
    out = ["## Reference figures", "",
           f"Host: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
           f"{platform.system()} {platform.release()}. Runs of {seconds:g} s, "
           f"seeds 1-{options.seeds}, regenerated with "
           f"`python3 e2ebench/figures.py`.", ""]
    for workload in workloads:
        runs[workload] = {"untraced": [], "traced": None}
        for seed in range(1, options.seeds + 1):
            runs[workload]["untraced"].append(_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        runs[workload]["traced"] = _run(workload, 1, seconds, 1)
        os.makedirs(os.path.join(ROOT, ".e2ebench"), exist_ok=True)
        with open(os.path.join(ROOT, ".e2ebench", "figures.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(runs, handle)

        untraced = runs[workload]["untraced"]
        first = untraced[0]["detail"]
        info = first["info"]
        factors = [r["detail"]["host_speed_factor"] for r in untraced]
        run_walls = [r["wall_s"] for r in untraced]
        out += [f"### {workload}", "",
                f"Sizes: {info['employees']} employees, {info['departments']} "
                f"departments, {info['live_objects']} live objects at start, "
                f"{info['storage']} store"
                + (f", object cache {info['cache_capacity']}"
                   if info.get("cache_capacity") else "") + ". "
                f"Rounds per run: {min(r['detail']['info']['rounds'] for r in untraced)}"
                f"-{max(r['detail']['info']['rounds'] for r in untraced)}. "
                f"Host speed factor {min(factors):.3f}-{max(factors):.3f}. "
                f"Wall time per run {min(run_walls):.0f}-{max(run_walls):.0f} s. "
                f"Every run correct: "
                f"{all(r['result']['correct'] for r in untraced)}; failed "
                f"operations: {sum(r['result']['failed'] for r in untraced)} of "
                f"{sum(r['result']['attempted'] for r in untraced)}.", "",
                "| metric | unit | median | spread corrected | raw median | "
                "spread raw | bound |",
                "| --- | --- | ---: | ---: | ---: | ---: | ---: |"]
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in untraced]
            raw = [r["detail"]["raw"][name] for r in untraced]
            unit = untraced[0]["result"]["metrics"][name]["unit"]
            out.append(
                f"| {name} | {unit} | {_fmt(statistics.median(values))} | "
                f"{100 * spread(values):.1f}% | {_fmt(statistics.median(raw))} | "
                f"{100 * spread(raw):.1f}% | {100 * bound:.0f}% |")
        traced = runs[workload]["traced"]
        plain = statistics.median(
            r["result"]["metrics"]["ops_per_s"]["value"] for r in untraced)
        with_trace = traced["result"]["metrics"]["trace.ops_per_s"]["value"]
        out += ["", f"Tracing overhead: {with_trace:.1f} operations/s traced "
                f"against {plain:.1f} untraced "
                f"({100 * (plain / with_trace - 1):.0f}% more time per "
                f"operation).", "", "Where the time goes (traced run, seed 1):",
                ""]
        out += _where_time_goes(traced)
        out.append("")
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
