"""Reproduce the faults and wastes the workloads run into.

    python3 e2ebench/faults.py evict [--employees 250,500,1000]
    python3 e2ebench/faults.py record-size
    python3 e2ebench/faults.py insert-lost

Run from the root of a checkout. Each command prints what it measured;
``e2ebench/README.md`` says what each one shows.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from company import SCHEMA, generate  # noqa: E402


def _paged(cache: int):
    from repro import Database

    db = Database(storage="paged", store_mode="file", cache_capacity=cache)
    db.execute(SCHEMA)
    return db


def _insert_all(db, company) -> None:
    depts = [db.insert("Departments", dname=n, floor=f, budget=b)
             for n, f, b in company.depts]
    for e in company.employees.values():
        db.insert("Employees", eno=e.eno, name=e.name, age=e.age,
                  salary=e.salary, dept=depts[e.dept],
                  kids=[{"name": n, "age": a} for n, a in e.kids])


def evict(sizes: list) -> None:
    """Bulk load into a paged store with a small object cache, in one
    transaction and auto-committed. Inside a transaction every touched
    object stays pinned, and ``PagedObjectStore._evict_excess`` walks
    all of them on each admission."""
    print("employees  one-transaction-s  auto-commit-s")
    for employees in sizes:
        company = generate(1, employees, 8)
        times = []
        for in_txn in (True, False):
            db = _paged(cache=100)
            start = time.perf_counter()
            if in_txn:
                db.begin()
            _insert_all(db, company)
            if in_txn:
                db.commit()
            times.append(time.perf_counter() - start)
            db.store.disk.close()
        print(f"{employees:9d}  {times[0]:17.2f}  {times[1]:13.2f}")


def record_size() -> None:
    """Bytes per paged record against the user data it holds."""
    from repro.storage import heap

    written = []
    original = heap.HeapFile.insert

    def insert(self, record: bytes):
        written.append(len(record))
        return original(self, record)

    heap.HeapFile.insert = insert
    try:
        company = generate(1, 300, 8)
        db = _paged(cache=None)
        _insert_all(db, company)
        db.store.flush()
    finally:
        heap.HeapFile.insert = original
    user = sum(len(e.name) + 4 + 4 + 8 + 8 for e in company.employees.values())
    print(f"records written: {len(written)}, mean {sum(written) / len(written):.0f} B, "
          f"min {min(written)} B, max {max(written)} B")
    print(f"user data per employee: ~{user / len(company.employees):.0f} B "
          f"(name, age, eno, salary, dept ref)")
    print(f"live objects {len(db.objects)} on {db.store.page_count} pages of 4 KB: "
          f"{len(db.objects) / db.store.page_count:.1f} objects per page")
    db.store.disk.close()


def insert_lost() -> None:
    """``Database.insert`` on a durable database is acknowledged but not
    logged, so an unclean stop before the next checkpoint loses it."""
    from repro import Database

    directory = tempfile.mkdtemp(prefix="insert-lost-", dir=os.getcwd())
    try:
        db = Database.open(directory)
        db.execute(SCHEMA)
        dept = db.insert("Departments", dname="D0", floor=1, budget=1.0)
        db.insert("Employees", eno=1, name="E1", age=30, salary=1000.0,
                  dept=dept)
        db.execute('append to Employees (eno = 2, name = "E2", age = 30, '
                   'salary = 1000.0, dept = D) from D in Departments '
                   'where D.dname = "D0"')
        before = db.execute("retrieve (E.eno) from E in Employees").rows
        # unclean stop: no close, no checkpoint
        recovered = Database.open(directory)
        after = recovered.execute("retrieve (E.eno) from E in Employees").rows
        print(f"acknowledged before the stop: {sorted(before)}")
        print(f"readable after recovery:      {sorted(after)}")
        recovered.close()
        db.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ev = sub.add_parser("evict")
    ev.add_argument("--employees", default="250,500,1000")
    sub.add_parser("record-size")
    sub.add_parser("insert-lost")
    options = parser.parse_args()
    if options.command == "evict":
        evict([int(n) for n in options.employees.split(",")])
    elif options.command == "record-size":
        record_size()
    else:
        insert_lost()
    return 0


if __name__ == "__main__":
    sys.exit(main())
