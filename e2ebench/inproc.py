"""The two in-process workloads: ``paper_queries`` and ``paged_cold``.

Both open a durable database with ``Database.open`` and drive it from
this process, one session, closed loop. They differ in the store and in
the mix:

* ``paper_queries``: memory store, 5000 employees, so the default
  ``parallel_mode="process"`` sends the large scans through the worker
  pool. The paper's five query shapes, run with repeated texts, do
  nearly all the work. Each round's writes change ``data_version``, so
  the hash-join memo and the worker pool refresh as on a live database.
* ``paged_cold``: paged store on the file disk with an object cache of
  a tenth of the live objects (the larger-than-cache case). Scans fault
  objects back in; skewed puts, transactional ``append`` batches,
  deletes and a periodic checkpoint plus compaction exercise the object
  cache, buffer pool, file disk, heap placement and recovery.

Both load with ``Database.insert`` and checkpoint before timing, since
inserts made through the Python API are not written to the log.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Optional

from company import (FORALL_FLOOR, FORALL_THRESHOLD, SCHEMA, Company,
                     Employee, check_rows, draw_salary, generate)
from harness import (SHAPES, STATEMENT_CLASSES, TAIL_WRITES, Run,
                     close_database, dir_bytes, peak_rss_mb_self, recover,
                     repeat_checkpoints, repeat_setup, verify_recovered)

__all__ = ["CONFIGS", "InProcessConfig", "run_inprocess"]

INDEX = "create index on Employees (eno) using hash"
#: repeated-text and fresh-literal point lookups per round, each
LOOKUPS = 16
#: append/delete pairs after the last checkpoint, besides TAIL_WRITES
TAIL_APPENDS = 5


@dataclass(frozen=True)
class InProcessConfig:
    storage: str
    employees: int
    departments: int
    #: object cache size as a fraction of the live objects (paged only)
    cache_fraction: Optional[float]
    #: per round
    replaces: int
    #: share of replaces that go to the hottest tenth of the keys
    hot_share: float
    txn_replaces: int
    txn_appends: int
    checkpoint_every: int


CONFIGS = {
    "paper_queries": InProcessConfig(
        storage="memory", employees=5000, departments=20,
        cache_fraction=None, replaces=4, hot_share=0.0,
        txn_replaces=2, txn_appends=0, checkpoint_every=6),
    "paged_cold": InProcessConfig(
        storage="paged", employees=400, departments=8,
        cache_fraction=0.1, replaces=2, hot_share=0.8,
        txn_replaces=0, txn_appends=4, checkpoint_every=4),
}


#: literals of the five shapes (the forall ones are in :mod:`company`);
#: with the balanced data of :func:`company.generate` each returns the
#: same number of rows for every seed
PATH_MAX_AGE = 4
REFCHASE_FLOOR = 3
JOIN_FLOOR = 2


def shape_texts(company: Company) -> dict:
    """The five paper shapes: text and plain-Python answer."""
    return {
        "path": (
            f"retrieve (E.name, K.name) from E in Employees, K in E.kids "
            f"where K.age < {PATH_MAX_AGE}",
            lambda: company.path_rows(PATH_MAX_AGE)),
        "refchase": (
            f"retrieve (E.name) from E in Employees "
            f"where E.dept.floor = {REFCHASE_FLOOR}",
            lambda: company.refchase_rows(REFCHASE_FLOOR)),
        "over": (
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees",
            company.over_rows),
        "forall": (
            f"retrieve (D.dname) from D in Departments, E in every Employees "
            f"where D.floor = {FORALL_FLOOR} and "
            f"(E.dept isnot D or E.salary > {FORALL_THRESHOLD!r})",
            lambda: company.forall_rows(FORALL_FLOOR, FORALL_THRESHOLD)),
        "join": (
            f"retrieve (E.name, D.dname) from E in Employees, D in Departments "
            f"where E.dept is D and D.floor = {JOIN_FLOOR}",
            lambda: company.join_rows(JOIN_FLOOR)),
    }


def lookup_text(eno: int) -> str:
    return f"retrieve (E.name, E.salary) from E in Employees where E.eno = {eno}"


def replace_text(eno: int, salary: float) -> str:
    return (f"replace E (salary = {salary!r}) from E in Employees "
            f"where E.eno = {eno}")


def delete_text(eno: int) -> str:
    return f"delete E from E in Employees where E.eno = {eno}"


class _Keys:
    """Key choice: a repeated hot key, a cycle of fresh keys for misses,
    and (optionally skewed) keys for writes, which never choose an
    anchor of the forall shape."""

    def __init__(self, rng: random.Random, company: Company,
                 hot_share: float):
        self.rng = rng
        self.enos = list(company.employees)
        self.writable = company.writable()
        self.hit = rng.choice(self.enos)
        self._fresh = list(self.enos)
        rng.shuffle(self._fresh)
        self._next = 0
        hot = list(self.writable)
        rng.shuffle(hot)
        self.hot = hot[:max(1, len(hot) // 10)]
        self.hot_share = hot_share

    def fresh(self) -> int:
        eno = self._fresh[self._next % len(self._fresh)]
        self._next += 1
        return eno

    def write(self) -> int:
        if self.rng.random() < self.hot_share:
            return self.rng.choice(self.hot)
        return self.rng.choice(self.writable)


def _open(config: InProcessConfig, directory: str, cache: Optional[int]) -> Any:
    from repro import Database

    if config.storage == "paged":
        return Database.open(directory, storage="paged", cache_capacity=cache)
    return Database.open(directory)


def _load(run: Run, config: InProcessConfig, company: Company,
          directory: str, cache: Optional[int]) -> Any:
    shutil.rmtree(directory, ignore_errors=True)
    db = _open(config, directory, cache)
    db.execute(SCHEMA)
    db.execute(INDEX)
    depts = []
    for dname, floor, budget in company.depts:
        depts.append(db.insert("Departments", dname=dname, floor=floor,
                               budget=budget))
    for index, e in enumerate(company.employees.values()):
        if index % 50 == 0:
            run.clock.tick()
        db.insert("Employees", eno=e.eno, name=e.name, age=e.age,
                  salary=e.salary, dept=depts[e.dept],
                  kids=[{"name": n, "age": a} for n, a in e.kids])
    db.checkpoint()  # Database.insert is not logged: make the load durable
    return db


def run_inprocess(name: str, seed: int, seconds: float, tracer: Any = None,
                  workdir: str = ".") -> Run:
    config = CONFIGS[name]
    run = Run(tracer)
    rng = random.Random(seed)
    company = generate(seed, config.employees, config.departments)
    cache = None
    if config.cache_fraction is not None:
        cache = max(16, int(company.live_objects() * config.cache_fraction))
    directory = os.path.join(workdir, "db")
    run.info.update(employees=config.employees,
                    departments=config.departments,
                    live_objects=company.live_objects(),
                    cache_capacity=cache, storage=config.storage)

    db = repeat_setup(run, lambda: _load(run, config, company, directory,
                                         cache), close_database)

    shapes = shape_texts(company)
    keys = _Keys(rng, company, config.hot_share)
    appended: list = []
    store_before = db.storage_stats()
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True

    def execute(cls: str, text: str) -> Any:
        """One timed statement: its result, or None when it failed."""
        result = run.op(cls, lambda: db.execute(text))
        if result is not None and cls in STATEMENT_CLASSES:
            run.note(cls, result)
        return result

    def replace(cls: str) -> None:
        eno = keys.write()
        salary = draw_salary(rng)
        if execute(cls, replace_text(eno, salary)) is not None:
            company.set_salary(eno, salary)

    enos = itertools.count(company.next_eno)

    def new_employee() -> Employee:
        eno = next(enos)
        return Employee(eno=eno, name=f"N{eno}",
                        age=rng.randint(21, 65),
                        salary=draw_salary(rng),
                        dept=rng.randrange(len(company.depts)))

    more = run.until(seconds)
    rounds = 0
    while more():
        rounds += 1
        # auto-commit writes: point replaces, one append, one delete
        for _ in range(config.replaces):
            replace("write")
        employee = new_employee()
        if execute("write", company.append_text(employee)) is not None:
            company.add(employee)
            appended.append(employee.eno)
        # an explicit transaction
        txn_keys = [keys.write() for _ in range(config.txn_replaces)]
        txn_salaries = [draw_salary(rng) for _ in txn_keys]
        txn_new = [new_employee() for _ in range(config.txn_appends)]

        def transaction() -> bool:
            db.begin()
            try:
                for eno, salary in zip(txn_keys, txn_salaries):
                    db.execute(replace_text(eno, salary))
                for e in txn_new:
                    db.execute(company.append_text(e))
            except BaseException:
                db.abort()
                raise
            db.commit()
            return True

        if run.op("txn", transaction):
            for eno, salary in zip(txn_keys, txn_salaries):
                company.set_salary(eno, salary)
            for e in txn_new:
                company.add(e)
                appended.append(e.eno)
        # keep the size steady: delete as many as were appended
        while len(appended) > 1 + config.txn_appends:
            eno = appended.pop(0)
            if execute("write", delete_text(eno)) is not None:
                company.remove(eno)
        # the paper's shapes, repeated texts
        for shape in SHAPES:
            text, expect = shapes[shape]
            result = execute(shape, text)
            if result is not None:
                run.check(shape, lambda: check_rows(shape, result.rows, expect()))
        # point reads: a repeated text, then fresh literals
        for _ in range(LOOKUPS):
            eno = keys.hit
            result = execute("lookup_hit", lookup_text(eno))
            if result is not None:
                run.check("lookup_hit", lambda: check_rows(
                    "lookup_hit", result.rows, company.lookup_rows(eno)))
        for _ in range(LOOKUPS):
            eno = keys.fresh()
            result = execute("lookup_miss", lookup_text(eno))
            if result is not None:
                run.check("lookup_miss", lambda: check_rows(
                    "lookup_miss", result.rows, company.lookup_rows(eno)))
        if rounds % config.checkpoint_every == 0:
            run.phase("periodic_checkpoint",
                      lambda: (db.checkpoint(), db.compact()))
    run.info["rounds"] = rounds
    repeat_checkpoints(run, db, lambda: replace("tail"))
    run.info["disk_bytes_per_obj"] = dir_bytes(directory) / company.live_objects()
    run.info["peak_rss_mb"] = peak_rss_mb_self()
    run.info["store_before"] = store_before
    run.info["store_after"] = db.storage_stats()
    run.info["page_count"] = getattr(db.store, "page_count", 0)

    # a fixed tail of acknowledged writes after the last checkpoint, for
    # recovery to replay from the log
    for _ in range(TAIL_WRITES):
        replace("tail")
    for _ in range(TAIL_APPENDS):
        employee = new_employee()
        if execute("tail", company.append_text(employee)) is not None:
            company.add(employee)
            eno = appended.pop(0)
            if execute("tail", delete_text(eno)) is not None:
                company.remove(eno)
            appended.append(employee.eno)

    # unclean stop: stop the worker pool, drop the database without
    # closing it, and recover from what is on disk
    db.interpreter.shutdown_parallel()
    abandoned = db
    recovered = recover(run, lambda: _open(config, directory, cache))
    if tracer is not None:
        tracer.enabled = False
    verify_recovered(run, recovered, company)
    close_database(recovered)
    del abandoned
    run.gc.close()
    return run
