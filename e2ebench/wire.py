"""The ``wire_oltp`` workload: OLTP traffic over the network protocol.

``python -m repro.server --open DIR`` runs as a subprocess (memory
store, fsync on, hash index on the key). This process drives two
connections alternately from one thread, closed loop: repeated-literal
and fresh-literal point lookups, auto-commit point writes, ``append`` /
``delete`` pairs, two-statement transactions open on both sessions at
once on disjoint keys (so neither aborts), and one of each paper shape
per round on a small company. The run ends by SIGKILLing the server and
timing recovery of its directory in this process.

Front end (lex/parse/bind/optimize/lower/codegen), wire framing, MVCC
park/resume and WAL append/fsync do the work; the executor does little.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

from company import (SCHEMA, Company, Employee, check_rows, draw_salary,
                     generate)
from harness import (SHAPES, TAIL_WRITES, Run, close_database, dir_bytes,
                     peak_rss_mb_of, recover, repeat_checkpoints,
                     repeat_setup, verify_recovered)
from inproc import (INDEX, _Keys, delete_text, lookup_text, replace_text,
                    shape_texts)

__all__ = ["run_wire", "server_command"]

EMPLOYEES = 600
DEPARTMENTS = 8
LOOKUPS = 6
#: statements per load request (each request is one transaction)
LOAD_CHUNK = 50
#: server-side statements are tagged with this many leading characters
TAG_CHARS = 20

HERE = os.path.dirname(os.path.abspath(__file__))


def server_command(traced: bool, trace_out: str) -> list:
    """The server's command line, up to its ``--open``/``--port``
    arguments (the layer-slowdown self-test replaces it)."""
    if traced:
        return [sys.executable, "-u", os.path.join(HERE, "serve_traced.py"),
                "--trace-out", trace_out]
    return [sys.executable, "-u", "-m", "repro.server"]


class _Server:
    """The server subprocess and its two client connections."""

    def __init__(self, directory: str, workdir: str, traced: bool):
        from repro.server.client import Client

        src = os.path.join(os.getcwd(), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.trace_out = os.path.join(workdir, "server-trace.json")
        command = server_command(traced, self.trace_out)
        command += ["--open", directory, "--port", "0"]
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        self.a = Client(host, int(port), name="a", read_timeout=60.0)
        self.b = Client(host, int(port), name="b", read_timeout=60.0)

    def signal_and_wait(self, signum: int, path: str) -> None:
        """Ask the traced server to act, and wait for its answer file."""
        if os.path.exists(path):
            os.unlink(path)
        self.proc.send_signal(signum)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not answer")
            time.sleep(0.005)

    def stop(self) -> None:
        """Graceful stop: SIGTERM drains and checkpoints, then reap."""
        for client in (self.a, self.b):
            client.close()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=60.0)
        self.proc.stdout.close()
        self._log.close()

    def kill(self) -> None:
        """Unclean stop: SIGKILL, then reap."""
        for client in (getattr(self, "a", None), getattr(self, "b", None)):
            if client is not None:
                client.closed = True
                client._sock.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)
        self.proc.stdout.close()
        self._log.close()


def _load(run: Run, company: Company, directory: str, workdir: str,
          traced: bool) -> _Server:
    shutil.rmtree(directory, ignore_errors=True)
    server = _Server(directory, workdir, traced)
    client = server.a
    statements = [
        f'append to Departments (dname = "{dname}", floor = {floor}, '
        f'budget = {budget!r})'
        for dname, floor, budget in company.depts
    ]
    for e in company.employees.values():
        statements.append(company.append_text(e))
        statements.extend(company.kid_texts(e))
    try:
        client.query(SCHEMA)
        client.query(INDEX)
        for start in range(0, len(statements), LOAD_CHUNK):
            run.clock.tick()
            client.begin()
            client.query("\n".join(statements[start:start + LOAD_CHUNK]))
            client.commit()
    except BaseException:
        server.kill()
        raise
    return server


def run_wire(seed: int, seconds: float, tracer: Any = None,
             workdir: str = ".") -> Run:
    run = Run(tracer)
    rng = random.Random(seed)
    company = generate(seed, EMPLOYEES, DEPARTMENTS)
    directory = os.path.join(workdir, "db")
    run.info.update(employees=EMPLOYEES, departments=DEPARTMENTS,
                    live_objects=company.live_objects(), storage="memory")
    traced = tracer is not None

    server = None
    try:
        server = repeat_setup(run, lambda: _load(
            run, company, directory, workdir, traced), _Server.kill)
        tags = _traffic(run, server, company, rng, seconds, tracer)
        run.info["peak_rss_mb"] = peak_rss_mb_of(server.proc.pid)
        if traced:
            server.signal_and_wait(signal.SIGUSR2, server.trace_out)
            with open(server.trace_out, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            tracer.merge(snapshot, lambda tag: tags.get(tag, tag))
            shutil.move(server.trace_out + ".spans", os.path.join(
                os.path.dirname(workdir), f"spans-wire_oltp-{seed}-server.jsonl"))
        # a graceful restart checkpoints, so that recovery replays only
        # the fixed tail below, whatever the length of the traffic
        server.stop()
        server = None
        server = _Server(directory, workdir, False)
        keys = _Keys(rng, company, 0.0)
        for _ in range(TAIL_WRITES):
            eno, value = keys.write(), draw_salary(rng)
            if run.op("tail", lambda: server.a.query(
                    replace_text(eno, value))) is not None:
                company.set_salary(eno, value)
    finally:
        if server is not None:
            server.kill()
    if traced:
        tracer.enabled = True
    _recover(run, company, directory, keys, rng)
    if traced:
        tracer.enabled = False
    run.gc.close()
    return run


def _traffic(run: Run, server: _Server, company: Company, rng: random.Random,
             seconds: float, tracer: Any) -> dict:
    """The timed phase; returns the map from the traced server's span
    tags to statement classes."""
    a, b = server.a, server.b
    shapes = shape_texts(company)
    keys = _Keys(rng, company, 0.0)
    even = [eno for eno in keys.writable if eno % 2 == 0]
    odd = [eno for eno in keys.writable if eno % 2 == 1]
    #: server-side tag (leading text or op name) -> statement class
    tags = {"begin": "txn", "commit": "txn"}
    for shape in SHAPES:
        tags[shapes[shape][0][:TAG_CHARS]] = shape
    tags[lookup_text(0)[:TAG_CHARS]] = "lookup"
    tags[replace_text(0, 0.0)[:TAG_CHARS]] = "write"
    tags[delete_text(0)[:TAG_CHARS]] = "write"
    tags[company.append_text(Employee(0, "", 0, 0.0, 0))[:TAG_CHARS]] = "write"
    appended: list = []
    next_eno = [company.next_eno]

    def query(cls: str, client: Any, text: str) -> Any:
        t0 = time.perf_counter()
        result = run.op(cls, lambda: client.query(text))
        if result is not None:
            run.note(cls, result, time.perf_counter() - t0)
        return result

    traced = tracer is not None
    if traced:
        server.signal_and_wait(signal.SIGUSR1, server.trace_out + ".on")
        tracer.reset()
        tracer.enabled = True
    more = run.until(seconds)
    rounds = 0
    while more():
        rounds += 1
        clients = (a, b)
        for i in range(LOOKUPS):
            eno = keys.hit
            result = query("lookup_hit", clients[i % 2], lookup_text(eno))
            if result is not None:
                run.check("lookup_hit", lambda: check_rows(
                    "lookup_hit", result.rows, company.lookup_rows(eno)))
        for i in range(LOOKUPS):
            eno = keys.fresh()
            result = query("lookup_miss", clients[i % 2], lookup_text(eno))
            if result is not None:
                run.check("lookup_miss", lambda: check_rows(
                    "lookup_miss", result.rows, company.lookup_rows(eno)))
        # auto-commit writes: a replace on each connection, then an
        # append on one and a delete of an earlier append on the other
        for client in clients:
            eno, value = keys.write(), draw_salary(rng)
            if query("write", client, replace_text(eno, value)) is not None:
                company.set_salary(eno, value)
        employee = Employee(eno=next_eno[0], name=f"N{next_eno[0]}",
                            age=rng.randint(21, 65), salary=draw_salary(rng),
                            dept=rng.randrange(len(company.depts)))
        next_eno[0] += 1
        if query("write", a, company.append_text(employee)) is not None:
            company.add(employee)
            appended.append(employee.eno)
        if len(appended) > 1:
            eno = appended.pop(0)
            if query("write", b, delete_text(eno)) is not None:
                company.remove(eno)
        # two transactions open at once, on disjoint keys
        _transactions(run, a, b, company, rng, even, odd)
        # one of each paper shape
        for index, shape in enumerate(SHAPES):
            text, expect = shapes[shape]
            result = query(shape, clients[index % 2], text)
            if result is not None:
                run.check(shape, lambda: check_rows(shape, result.rows, expect()))
    if traced:
        tracer.enabled = False
    run.info["rounds"] = rounds
    return tags


def _transactions(run: Run, a: Any, b: Any, company: Company,
                  rng: random.Random, even: list, odd: list) -> None:
    plan = {
        a: [(rng.choice(even), draw_salary(rng)) for _ in range(2)],
        b: [(rng.choice(odd), draw_salary(rng)) for _ in range(2)],
    }
    parts: dict = {a: [], b: []}
    collected: dict = {a: 0.0, b: 0.0}
    failed: dict = {}

    def step(client: Any, fn) -> None:
        if client in failed:
            return
        run.clock.tick()
        before = run.gc.total
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # counted below, the run goes on
            failed[client] = exc
            return
        parts[client].append((t0, time.perf_counter()))
        collected[client] += run.gc.total - before

    step(a, a.begin)
    step(b, b.begin)
    for i in range(2):
        for client in (a, b):
            eno, value = plan[client][i]
            step(client, lambda: client.query(replace_text(eno, value)))
    step(a, a.commit)
    step(b, b.commit)
    for client in (a, b):
        if client in failed:
            run.fail("txn", failed[client])
            try:
                client.abort()
            except Exception:  # the session may already be clean
                pass
            continue
        run.record("txn", parts[client], collected[client])
        for eno, value in plan[client]:
            company.set_salary(eno, value)


def _recover(run: Run, company: Company, directory: str, keys: _Keys,
             rng: random.Random) -> None:
    """Recovery of the killed server's directory in this process, then
    the measured checkpoints of the recovered database."""
    from repro import Database

    recovered = recover(run, lambda: Database.open(directory))
    verify_recovered(run, recovered, company)

    def write() -> None:
        eno, value = keys.write(), draw_salary(rng)
        if run.op("tail", lambda: recovered.execute(
                replace_text(eno, value))) is not None:
            company.set_salary(eno, value)

    repeat_checkpoints(run, recovered, write)
    run.info["disk_bytes_per_obj"] = dir_bytes(directory) / company.live_objects()
    close_database(recovered)
