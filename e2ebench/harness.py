"""The closed-loop harness shared by the three workloads.

A workload calls :meth:`Run.op` once per statement (or transaction).
``op`` ticks the speed clock, times the call, counts it as attempted,
and counts it as failed when it raises; the caller checks the answer
against the oracle afterwards, outside the timed interval. Timed phases
run whole rounds of the same operations until the run's time is up, so
every run attempts the same mix. The one-off phases around them (set-up,
checkpoints, recovery after an unclean stop) are repeated a fixed number
of times by the helpers below, the same for every workload.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from company import Company, OracleMismatch, check_rows
from speed import SpeedClock

__all__ = ["Run", "SHAPES", "STATEMENT_CLASSES", "TAIL_WRITES",
           "close_database", "percentile", "recover", "repeat_checkpoints",
           "repeat_setup", "verify_recovered"]

#: the five paper query shapes, one latency metric each
SHAPES = ("path", "refchase", "over", "forall", "join")

#: statement classes whose latencies make up ``ops_per_s``
STATEMENT_CLASSES = SHAPES + ("lookup_hit", "lookup_miss", "write", "txn")

#: set-ups, checkpoints and recoveries per run; their medians are reported
SETUPS = 3
CHECKPOINTS = 12
RECOVERIES = 9
#: acknowledged writes before each measured checkpoint
CHECKPOINT_WRITES = 5
#: acknowledged point writes after the last checkpoint, which recovery
#: replays from the log
TAIL_WRITES = 40


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class GcTimer:
    """Seconds this process spent in cyclic garbage collection.

    A collection pauses whichever operation happens to allocate past the
    collector's threshold; with thousands of objects faulted in per scan
    that is most scans on some rounds and few on others, which makes
    per-statement medians jump between runs. Latencies therefore leave
    these pauses out, while ``ops_per_s`` keeps them (see ``Run``).
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


class Run:
    """One run of one workload: timings, counts, oracle verdicts.

    A statement's latency is its speed-corrected time minus the garbage
    collection pauses inside it; ``ops_per_s`` divides by the full
    corrected time, pauses included, so collection cost still shows end
    to end.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.clock = SpeedClock()
        self.gc = GcTimer()
        self.tracer = tracer
        #: (class, ((t0, t1), ...), gc seconds) of every successful timed
        #: operation; one interleaved with another one has several parts
        self.ops: list = []
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list = []
        self.mismatches: list = []
        #: named one-off phases: setup, checkpoint, recovery
        self.phases: dict = defaultdict(list)
        #: free-form per-class samples (e.g. wire time outside the engine)
        self.samples: dict = defaultdict(list)
        self.info: dict = {}
        #: plan-cache outcomes and executor counters over noted results
        self.cache: Counter = Counter()
        self.engine: Counter = Counter()
        self._stmt = 0

    # -- timing --------------------------------------------------------------

    def op(self, cls: str, fn: Callable[[], Any]) -> Any:
        """Time ``fn()`` as one operation of class ``cls``; returns its
        result, or None when it raised (counted as failed)."""
        self.clock.tick()
        self.attempted[cls] += 1
        tracer = self.tracer
        if tracer is not None:
            self._stmt += 1
            tracer.stmt = self._stmt
            tracer.tag = cls
        collected = self.gc.total
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed[cls] += 1
            self.errors.append(f"{cls}: {type(exc).__name__}: {exc}")
            return None
        t1 = time.perf_counter()
        self.ops.append((cls, ((t0, t1),), self.gc.total - collected))
        return result

    def record(self, cls: str, parts: list, gc_seconds: float) -> None:
        """Record an operation timed by the caller in several parts."""
        self.attempted[cls] += 1
        self.ops.append((cls, tuple(parts), gc_seconds))

    def fail(self, cls: str, exc: BaseException) -> None:
        self.attempted[cls] += 1
        self.failed[cls] += 1
        self.errors.append(f"{cls}: {type(exc).__name__}: {exc}")

    def note(self, cls: str, result: Any, round_trip: float = None) -> None:
        """Per-statement engine counters from ``Result.metrics``."""
        metrics = result.metrics or {}
        self.cache[metrics.get("cache", "")] += 1
        self.engine["statements"] += 1
        self.engine["rows_scanned"] += metrics.get("rows_scanned", 0)
        self.engine["hash_builds"] += metrics.get("hash_builds", 0)
        self.engine["hash_probes"] += metrics.get("hash_probes", 0)
        if cls in SHAPES:
            self.engine["shape_rows_scanned"] += metrics.get("rows_scanned", 0)
            self.engine["shape_rows"] += len(result.rows)
        if round_trip is not None and "wall_ms" in metrics:
            self.samples["outside_engine_ms"].append(
                round_trip * 1000.0 - metrics["wall_ms"])

    def phase(self, name: str, fn: Callable[[], Any]) -> Any:
        """Time a one-off phase (it may call ``clock.tick()`` inside).

        A full collection first, so that one-off phases do not pay for
        garbage that earlier operations left behind."""
        gc.collect()
        self.clock.tick()
        if self.tracer is not None:
            self.tracer.tag = name
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.phases[name].append((t0, t1))
        return result

    def check(self, label: str, fn: Callable[[], None]) -> None:
        """Run an oracle comparison; a mismatch makes the run incorrect."""
        try:
            fn()
        except OracleMismatch as exc:
            self.mismatches.append(str(exc))

    def until(self, seconds: float) -> Callable[[], bool]:
        deadline = time.perf_counter() + seconds

        def more() -> bool:
            return time.perf_counter() < deadline
        return more

    # -- results -------------------------------------------------------------

    def busy(self, cls: str, corrected: bool = True) -> list:
        """Seconds per operation of ``cls``, collection pauses included."""
        clock = self.clock
        if corrected:
            return [sum(clock.corrected(t0, t1) for t0, t1 in parts)
                    for c, parts, _gc in self.ops if c == cls]
        return [sum(t1 - t0 for t0, t1 in parts)
                for c, parts, _gc in self.ops if c == cls]

    def latencies(self, cls: str, corrected: bool = True) -> list:
        """Seconds per operation of ``cls``, collection pauses left out
        (scaled by the same correction as the rest of the operation)."""
        out = []
        for c, parts, collected in self.ops:
            if c != cls:
                continue
            raw = sum(t1 - t0 for t0, t1 in parts)
            total = (sum(self.clock.corrected(t0, t1) for t0, t1 in parts)
                     if corrected else raw)
            out.append(total * max(0.0, raw - collected) / raw if raw else 0.0)
        return out

    def gc_seconds(self) -> float:
        """Collection pauses inside timed statements."""
        return sum(g for c, _p, g in self.ops if c in STATEMENT_CLASSES)

    def phase_times(self, name: str, corrected: bool = True) -> list:
        clock = self.clock
        if corrected:
            return [clock.corrected(t0, t1) for t0, t1 in self.phases[name]]
        return [t1 - t0 - clock.slice_time_inside(t0, t1)
                for t0, t1 in self.phases[name]]

    def end_to_end(self, corrected: bool = True) -> dict:
        """Every end-to-end metric of BENCHMARK.json, as measured."""
        def p50_ms(cls: str) -> float:
            return statistics.median(self.latencies(cls, corrected)) * 1000.0

        out = {"setup_s": (statistics.median(self.phase_times("setup", corrected)), "s")}
        busy = sum(sum(self.busy(c, corrected)) for c in STATEMENT_CLASSES)
        count = sum(1 for c, _p, _g in self.ops if c in STATEMENT_CLASSES)
        out["ops_per_s"] = (count / busy, "1/s")
        for shape in SHAPES:
            out[f"{shape}_p50_ms"] = (p50_ms(shape), "ms")
        out["lookup_hit_p50_ms"] = (p50_ms("lookup_hit"), "ms")
        out["lookup_miss_p50_ms"] = (p50_ms("lookup_miss"), "ms")
        out["write_p50_ms"] = (p50_ms("write"), "ms")
        writes = self.latencies("write", corrected)
        out["write_p90_ms"] = (percentile(writes, 90) * 1000.0, "ms")
        out["txn_p50_ms"] = (p50_ms("txn"), "ms")
        out["checkpoint_ms"] = (
            statistics.median(self.phase_times("checkpoint", corrected)) * 1000.0,
            "ms")
        out["recovery_s"] = (
            statistics.median(self.phase_times("recovery", corrected)), "s")
        out["disk_bytes_per_obj"] = (self.info["disk_bytes_per_obj"], "B/obj")
        out["peak_rss_mb"] = (self.info["peak_rss_mb"], "MB")
        return out

    def detail(self, workload: str, seed: int) -> dict:
        """The per-class counts and reference figures printed before the
        result line."""
        classes = sorted(set(self.attempted) | set(self.failed))
        return {
            "workload": workload,
            "seed": seed,
            "classes": {
                c: {"attempted": self.attempted[c], "failed": self.failed[c],
                    "samples": len(self.latencies(c, False))}
                for c in classes
            },
            "raw": {k: v for k, (v, _u) in self.end_to_end(False).items()},
            "busy_s_raw": sum(sum(self.busy(c, False))
                              for c in STATEMENT_CLASSES),
            "gc_s_raw": self.gc_seconds(),
            "host_speed_factor": self.clock.speed_factor(),
            "info": self.info,
            "errors": self.errors[:10],
            "mismatches": self.mismatches[:10],
        }


def repeat_setup(run: Run, load: Callable[[], Any],
                 discard: Callable[[Any], None]) -> Any:
    """``setup_s``: load SETUPS times, discarding all but the last."""
    db = None
    for _attempt in range(SETUPS):
        if db is not None:
            discard(db)
            db = None  # let the phase's full collection free it
        db = run.phase("setup", load)
    return db


def repeat_checkpoints(run: Run, db: Any, write: Callable[[], None]) -> None:
    """``checkpoint_ms``: CHECKPOINTS times, CHECKPOINT_WRITES calls of
    ``write`` and then a checkpoint with compaction; the same work on
    every run, whatever the number of rounds."""
    for _ in range(CHECKPOINTS):
        for _ in range(CHECKPOINT_WRITES):
            write()
        run.phase("checkpoint", lambda: (db.checkpoint(), db.compact()))


def recover(run: Run, open_db: Callable[[], Any]) -> Any:
    """``recovery_s``: open the directory left by an unclean stop
    RECOVERIES times; returns the last database opened."""
    db = None
    for _attempt in range(RECOVERIES):
        if db is not None:
            close_database(db)
            db = None
        db = run.phase("recovery", open_db)
    return db


def verify_recovered(run: Run, db: Any, company: Company) -> None:
    """Every acknowledged write is readable, and nothing else is."""
    result = db.execute("retrieve (E.eno, E.name, E.salary) from E in Employees")
    run.check("recovered rows",
              lambda: check_rows("recovered rows", result.rows, company.all_rows()))
    live = len(db.objects)
    if live != company.live_objects():
        run.mismatches.append(
            f"recovered object count {live}, ledger {company.live_objects()}")


def close_database(db: Any) -> None:
    """Stop the worker pool, close the database and its file disk."""
    db.interpreter.shutdown_parallel()
    db.close()
    disk = getattr(db.store, "disk", None)
    if disk is not None and hasattr(disk, "close"):
        disk.close()


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of another process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def dir_bytes(directory: str) -> int:
    total = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            total += os.path.getsize(path)
    return total

