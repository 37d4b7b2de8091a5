"""Spans around the engine's public functions, for the traced run.

The benchmark never edits the engine. :func:`install` replaces public
functions of ``repro.excess``, ``repro.core``, ``repro.storage`` and
``repro.server`` with thin wrappers that record a span (name, start,
end, parent, statement id) and keep per-layer self time: a span's
duration minus the time its child spans cover. Spans of statement-level
layers are kept in memory and written out at the end of the run;
per-object layers (``identity.deref``, ``object_store.fetch``) are only
aggregated, since they run thousands of times per statement.

Wrappers that are installed but not enabled cost one attribute test, and
the untraced run installs none at all.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

__all__ = ["Tracer", "install", "layer_metrics"]


class Tracer:
    """In-memory spans plus per-(layer, tag) self time and call counts."""

    def __init__(self) -> None:
        self.enabled = False
        #: statement id and class tag stamped on the spans that follow
        self.stmt = 0
        self.tag = ""
        self.spans: list = []
        #: (layer, tag) -> seconds of self time / calls
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        #: free-form counters filled by ``after`` hooks
        self.counts: Counter = Counter()
        self._stack: list = []
        self._next_id = 0
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str, *, keep: bool = True,
             after: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args)`` runs on success and ``on_error(exc)`` on an
        exception (which is re-raised); both only while enabled.
        """
        original = getattr(owner, attr)
        tracer = self
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, child seconds
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                key = (layer, tracer.tag)
                tracer.self_s[key] += duration - frame[1]
                tracer.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    tracer.spans.append(
                        (span_id, layer, start, end, parent, tracer.stmt))
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def layer_self_s(self, layer: str, tag: Optional[str] = None) -> float:
        return sum(v for (name, t), v in self.self_s.items()
                   if name == layer and (tag is None or t == tag))

    def layer_calls(self, layer: str, tag: Optional[str] = None) -> int:
        return sum(v for (name, t), v in self.calls.items()
                   if name == layer and (tag is None or t == tag))

    def snapshot(self) -> dict:
        """Aggregates as JSON-safe data (for the traced server)."""
        return {
            "self_s": [[name, tag, v] for (name, tag), v in self.self_s.items()],
            "calls": [[name, tag, v] for (name, tag), v in self.calls.items()],
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def merge(self, snap: dict, retag: Callable[[str], str]) -> None:
        """Add another process's aggregates, mapping its tags."""
        for name, tag, value in snap["self_s"]:
            self.self_s[(name, retag(tag))] += value
        for name, tag, value in snap["calls"]:
            self.calls[(name, retag(tag))] += value
        self.counts.update(snap["counts"])

    def write_spans(self, path: str) -> None:
        """One JSON list per span: id, layer, start, end, parent, stmt."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def _count(tracer: Tracer, name: str) -> Callable:
    def after(_result: Any, _args: tuple) -> None:
        tracer.counts[name] += 1
    return after


def install(tracer: Tracer, *, wire: bool = False) -> None:
    """Wrap the engine's layer functions, and with ``wire`` the wire
    protocol's framing functions, in this process."""
    _install_engine(tracer)
    if wire:
        _install_wire(tracer)


def _install_engine(tracer: Tracer) -> None:
    from repro.core import identity, session, undo
    from repro.errors import SerializationError
    from repro.excess import binder, compile as compile_mod, evaluator
    from repro.excess import interpreter, optimizer, parallel
    from repro.storage import heap, object_store, recovery, wal

    # front end: lexer+parser, binder, optimizer, lowering, codegen
    tracer.wrap(interpreter, "parse_script", "parser.parse")
    for method in ("bind_retrieve", "bind_append", "bind_delete",
                   "bind_replace", "bind_set"):
        tracer.wrap(binder.Binder, method, "binder.bind")
    tracer.wrap(optimizer.Optimizer, "optimize", "optimizer.optimize")
    tracer.wrap(optimizer.Optimizer, "lower", "optimizer.lower")
    tracer.wrap(compile_mod, "fused_pipeline", "compile.codegen")

    # executor
    for method in ("run_retrieve", "run_append", "run_delete",
                   "run_replace", "run_set"):
        tracer.wrap(evaluator.Evaluator, method, "evaluator.execute")

    def dispatched(result: Any, _args: tuple) -> None:
        if result is not None:
            tracer.counts["parallel.dispatches"] += 1

    tracer.wrap(parallel.ParallelRunner, "run_exchange", "parallel.dispatch",
                after=dispatched)
    tracer.wrap(parallel.ParallelRunner, "run_aggregate", "parallel.dispatch",
                after=dispatched)
    tracer.wrap(parallel.WorkerPool, "__init__", "parallel.pool_start",
                after=_count(tracer, "parallel.pool_starts"))

    # object identity and the object stores
    tracer.wrap(identity.ObjectTable, "deref", "identity.deref", keep=False)
    tracer.wrap(identity.ObjectTable, "fetch", "identity.deref", keep=False)
    tracer.wrap(identity.MemoryObjectStore, "fetch", "object_store.fetch",
                keep=False)
    tracer.wrap(object_store.PagedObjectStore, "fetch", "object_store.fetch",
                keep=False)

    def record_bytes(_result: Any, args: tuple) -> None:
        tracer.counts["heap.records"] += 1
        tracer.counts["heap.record_bytes"] += len(args[-1])

    tracer.wrap(heap.HeapFile, "insert", "heap.write", keep=False,
                after=record_bytes)
    tracer.wrap(heap.HeapFile, "update", "heap.write", keep=False,
                after=record_bytes)

    # transactions
    def aborted(exc: BaseException) -> None:
        if isinstance(exc, SerializationError):
            tracer.counts["session.serialization_aborts"] += 1

    tracer.wrap(session.TransactionManager, "commit", "session.commit",
                on_error=aborted)
    tracer.wrap(undo.UndoLog, "park", "session.park",
                after=_count(tracer, "session.parks"))
    tracer.wrap(undo.UndoLog, "resume", "session.resume",
                after=_count(tracer, "session.resumes"))

    # log, checkpoint, recovery
    def wal_record(result: bytes, _args: tuple) -> None:
        tracer.counts["wal.records"] += 1
        tracer.counts["wal.bytes"] += len(result)

    def fsynced(_result: Any, args: tuple) -> None:
        if args[0].fsync_enabled:
            tracer.counts["wal.fsyncs"] += 1

    tracer.wrap(wal.WriteAheadLog, "commit", "wal.commit", after=fsynced)
    tracer.wrap(wal.WalRecord, "encode", "wal.encode", keep=False,
                after=wal_record)

    def checkpointed(result: dict, _args: tuple) -> None:
        tracer.counts["recovery.checkpoints"] += 1
        tracer.counts["recovery.snapshot_bytes"] += result.get("bytes", 0)
        tracer.counts["recovery.checkpoint_pages_written"] += result.get(
            "pages_written", 0)

    tracer.wrap(recovery.DurabilityManager, "checkpoint",
                "recovery.checkpoint", after=checkpointed)

    def replayed(result: tuple, _args: tuple) -> None:
        tracer.counts["recovery.opens"] += 1
        tracer.counts["recovery.replay_records"] += len(result[0])

    tracer.wrap(recovery, "read_wal", "recovery.read_wal", after=replayed)


def _install_wire(tracer: Tracer) -> None:
    from repro.server import client, protocol, server

    def framed(result: bytes, _args: tuple) -> None:
        tracer.counts["protocol.frames"] += 1
        tracer.counts["protocol.frame_bytes"] += len(result)

    # the client and the server import encode_message by name
    for module in (client, server):
        tracer.wrap(module, "encode_message", "protocol.encode", after=framed)
    tracer.wrap(protocol, "_decode_payload", "protocol.decode")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _store_delta(run: Any, section: str, key: str) -> float:
    before = run.info.get("store_before", {}).get(section, {})
    after = run.info.get("store_after", {}).get(section, {})
    return after.get(key, 0) - before.get(key, 0)


def layer_metrics(run: Any, tracer: Tracer) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run.

    Front-end times are self time per plan-cache miss (the front end
    only runs on a miss); per-object layers are self time per timed
    operation; counters are per timed operation. A layer that did not
    run in this workload reads 0.
    """
    from harness import SHAPES, STATEMENT_CLASSES

    ops = sum(1 for cls, _parts, _gc in run.ops if cls in STATEMENT_CLASSES)
    misses = run.cache["miss"]
    counts = tracer.counts

    def self_ms(layer: str, tag: Optional[str] = None) -> float:
        return tracer.layer_self_s(layer, tag) * 1000.0

    def mean_ms(layer: str, tag: Optional[str] = None) -> float:
        return _per(self_ms(layer, tag), tracer.layer_calls(layer, tag))

    out: dict = {}
    for name, layer in (("parser.parse_ms", "parser.parse"),
                        ("binder.bind_ms", "binder.bind"),
                        ("optimizer.optimize_ms", "optimizer.optimize"),
                        ("optimizer.lower_ms", "optimizer.lower"),
                        ("compile.codegen_ms", "compile.codegen")):
        out[name] = (_per(self_ms(layer), misses), "ms")
    noted = run.engine["statements"]
    out["interpreter.plan_cache_hits"] = (_per(run.cache["hit"], noted), "1/stmt")
    out["interpreter.plan_cache_misses"] = (_per(misses, noted), "1/stmt")
    for shape in SHAPES:
        out[f"evaluator.execute_ms.{shape}"] = (
            mean_ms("evaluator.execute", shape), "ms")
    out["evaluator.rows_scanned_per_row"] = (
        _per(run.engine["shape_rows_scanned"], run.engine["shape_rows"]), "ratio")
    out["evaluator.hash_builds"] = (_per(run.engine["hash_builds"], noted), "1/stmt")
    out["evaluator.hash_probes"] = (_per(run.engine["hash_probes"], noted), "1/stmt")
    out["parallel.dispatches"] = (_per(counts["parallel.dispatches"], ops), "1/stmt")
    out["parallel.pool_starts"] = (_per(counts["parallel.pool_starts"], ops), "1/stmt")
    out["parallel.dispatch_ms"] = (mean_ms("parallel.dispatch"), "ms")
    out["identity.deref_ms"] = (_per(self_ms("identity.deref"), ops), "ms")
    out["identity.derefs_per_stmt"] = (
        _per(tracer.layer_calls("identity.deref"), ops), "1/stmt")
    out["session.commit_ms"] = (mean_ms("session.commit"), "ms")
    out["session.parks"] = (_per(counts["session.parks"], ops), "1/stmt")
    out["session.resumes"] = (_per(counts["session.resumes"], ops), "1/stmt")
    out["session.serialization_aborts"] = (
        counts["session.serialization_aborts"], "count")
    out["object_store.fetch_ms"] = (_per(self_ms("object_store.fetch"), ops), "ms")
    for key in ("hits", "faults", "evictions", "writebacks"):
        out[f"object_store.{key}"] = (
            _per(_store_delta(run, "object_cache", key), ops), "1/stmt")
    hits = _store_delta(run, "buffer", "hits")
    out["buffer.hit_ratio"] = (
        _per(hits, hits + _store_delta(run, "buffer", "misses")), "ratio")
    out["disk.reads_per_op"] = (_per(_store_delta(run, "disk", "reads"), ops), "1/stmt")
    out["disk.writes_per_op"] = (_per(_store_delta(run, "disk", "writes"), ops), "1/stmt")
    out["disk.syncs"] = (_store_delta(run, "disk", "syncs"), "count")
    out["heap.record_bytes"] = (
        _per(counts["heap.record_bytes"], counts["heap.records"]), "B")
    out["heap.objects_per_page"] = (
        _per(run.info.get("live_objects", 0), run.info.get("page_count", 0)),
        "obj/page")
    out["wal.commit_ms"] = (mean_ms("wal.commit"), "ms")
    out["wal.bytes_per_write"] = (_per(counts["wal.bytes"], counts["wal.records"]), "B")
    out["wal.fsyncs"] = (_per(counts["wal.fsyncs"], ops), "1/stmt")
    checkpoints = counts["recovery.checkpoints"]
    out["recovery.checkpoint_pages_written"] = (
        _per(counts["recovery.checkpoint_pages_written"], checkpoints), "count")
    out["recovery.snapshot_bytes"] = (
        _per(counts["recovery.snapshot_bytes"], checkpoints), "B")
    out["recovery.replay_records"] = (
        _per(counts["recovery.replay_records"], counts["recovery.opens"]), "count")
    out["protocol.encode_ms"] = (mean_ms("protocol.encode"), "ms")
    out["protocol.decode_ms"] = (mean_ms("protocol.decode"), "ms")
    out["protocol.frame_bytes"] = (
        _per(counts["protocol.frame_bytes"], counts["protocol.frames"]), "B")
    outside = run.samples.get("outside_engine_ms")
    out["server.outside_engine_ms"] = (
        statistics.median(outside) if outside else 0.0, "ms")
    out["python.gc_ms"] = (_per(run.gc_seconds() * 1000.0, ops), "ms")
    out["host.speed_factor"] = (run.clock.speed_factor() or 0.0, "ratio")
    out["trace.ops_per_s"] = (run.end_to_end()["ops_per_s"][0], "1/s")
    return out
