"""The paper's company database, generated from a seed, and its oracles.

The rows live here as plain Python (:class:`Company`); the engine only
ever sees the statements and inserts built from them. Every expected
answer is computed from these rows and from the ledger of acknowledged
writes (the same object, mutated only after the engine acknowledged a
write), never from a stored copy of an earlier run's output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA",
    "Company",
    "Employee",
    "OracleMismatch",
    "check_rows",
    "draw_salary",
    "generate",
]

#: Figures 1-2 of the paper, plus an integer key ``eno`` for point access
SCHEMA = """
define type Department as (dname: char(40), floor: int4, budget: float8)
define type Person as (name: char(40), age: int4, kids: {own ref Person})
define type Employee as (eno: int4, salary: float8, dept: ref Department)
    inherits Person
create {own ref Department} Departments
create {own ref Employee} Employees
"""

#: the forall shape asks for the departments on FORALL_FLOOR whose
#: employees all earn more than FORALL_THRESHOLD. Generated and written
#: salaries are above it, except one anchor employee in each department
#: on that floor but FORALL_DEPT; anchors are never written. So the
#: answer is FORALL_DEPT alone on every seed and after every write, and
#: an engine that read ``every`` as ``some``, or ignored ``E`` altogether,
#: would return the other departments on that floor as well.
FORALL_FLOOR = 1
FORALL_THRESHOLD = 20000.0
FORALL_DEPT = 0
#: kids per employee: 0..MAX_KIDS, spread evenly
MAX_KIDS = 3


def draw_salary(rng: random.Random) -> float:
    """A whole-thousand salary above FORALL_THRESHOLD (21k-100k)."""
    return float(rng.randint(21, 100)) * 1000.0


class OracleMismatch(AssertionError):
    """The engine's answer differs from the plain-Python one."""


@dataclass
class Employee:
    eno: int
    name: str
    age: int
    salary: float
    dept: int
    #: (name, age) of each owned kid
    kids: list = field(default_factory=list)


@dataclass
class Company:
    """Departments and employees, kept in step with acknowledged writes."""

    #: (dname, floor, budget) per department index
    depts: list
    employees: dict  # eno -> Employee
    next_eno: int = 0
    #: enos of the forall anchors (see FORALL_DEPT); never written
    anchors: frozenset = frozenset()

    # -- the ledger of acknowledged writes ---------------------------------

    def set_salary(self, eno: int, salary: float) -> None:
        self.employees[eno].salary = salary

    def add(self, employee: Employee) -> None:
        self.employees[employee.eno] = employee
        self.next_eno = max(self.next_eno, employee.eno + 1)

    def remove(self, eno: int) -> None:
        del self.employees[eno]

    def writable(self) -> list:
        """Live enos that writes may choose: all but the anchors."""
        return [eno for eno in self.employees if eno not in self.anchors]

    def live_objects(self) -> int:
        """Objects the engine must hold: departments, employees, kids."""
        return (len(self.depts) + len(self.employees)
                + sum(len(e.kids) for e in self.employees.values()))

    # -- statements --------------------------------------------------------

    def append_text(self, employee: Employee) -> str:
        dname = self.depts[employee.dept][0]
        return (
            f'append to Employees (eno = {employee.eno}, '
            f'name = "{employee.name}", age = {employee.age}, '
            f'salary = {employee.salary!r}, dept = D) '
            f'from D in Departments where D.dname = "{dname}"'
        )

    def kid_texts(self, employee: Employee) -> list:
        return [
            f'append to E.kids (name = "{name}", age = {age}) '
            f'from E in Employees where E.eno = {employee.eno}'
            for name, age in employee.kids
        ]

    # -- plain-Python answers ----------------------------------------------

    def path_rows(self, max_age: int) -> list:
        """``K in E.kids where K.age < max_age``: (employee, kid) names."""
        return [
            (e.name, name)
            for e in self.employees.values()
            for name, age in e.kids
            if age < max_age
        ]

    def refchase_rows(self, floor: int) -> list:
        """``E.dept.floor = floor``: employee names."""
        return [(e.name,) for e in self.employees.values()
                if self.depts[e.dept][1] == floor]

    def over_rows(self) -> list:
        """``unique (E.dept.dname, avg(E.salary over E.dept))``."""
        groups: dict = {}
        for e in self.employees.values():
            groups.setdefault(e.dept, []).append(e.salary)
        return [(self.depts[d][0], sum(s) / len(s)) for d, s in groups.items()]

    def forall_rows(self, floor: int, threshold: float) -> list:
        """``D in Departments, E in every Employees where D.floor = floor
        and (E.dept isnot D or E.salary > threshold)``: departments on
        ``floor`` whose employees all earn more than ``threshold``."""
        ok = [self.depts[d][1] == floor for d in range(len(self.depts))]
        for e in self.employees.values():
            if e.salary <= threshold:
                ok[e.dept] = False
        return [(self.depts[d][0],) for d in range(len(self.depts)) if ok[d]]

    def join_rows(self, floor: int) -> list:
        """``E.dept is D and D.floor = floor``: (employee, department)."""
        return [(e.name, self.depts[e.dept][0])
                for e in self.employees.values()
                if self.depts[e.dept][1] == floor]

    def lookup_rows(self, eno: int) -> list:
        e = self.employees.get(eno)
        return [] if e is None else [(e.name, e.salary)]

    def all_rows(self) -> list:
        """``(E.eno, E.name, E.salary)`` for every live employee."""
        return [(e.eno, e.name, e.salary) for e in self.employees.values()]


def _balanced(rng: random.Random, values: list, count: int) -> list:
    """``count`` draws that use every value equally often, in seeded
    order: the seed moves rows around but not the amount of work."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def generate(seed: int, employees: int, departments: int) -> Company:
    """Departments and employees from ``random.Random(seed)``.

    Department ``d`` is on floor ``d % 5 + 1``. Departments, kid counts
    (0..MAX_KIDS), kid ages (1-18) and whole-thousand salaries (21k-100k,
    exact in binary, so sums and averages have one right answer) are
    spread evenly and shuffled, so every seed gives each query shape the
    same number of rows to scan and to return. Ages are 21-65. The first
    employee of each department on FORALL_FLOOR but FORALL_DEPT is its
    anchor, with salary FORALL_THRESHOLD.
    """
    rng = random.Random(seed)
    depts = [
        (f"D{d}", d % 5 + 1, float(rng.randint(50, 500)) * 1000.0)
        for d in range(departments)
    ]
    company = Company(depts=depts, employees={})
    dept_of = _balanced(rng, list(range(departments)), employees)
    kid_counts = _balanced(rng, list(range(MAX_KIDS + 1)), employees)
    salaries = _balanced(rng, [float(k) * 1000.0 for k in range(21, 101)],
                         employees)
    kid_ages = iter(_balanced(rng, list(range(1, 19)), sum(kid_counts)))
    for eno in range(employees):
        kids = [(f"K{eno}_{k}", next(kid_ages)) for k in range(kid_counts[eno])]
        company.add(Employee(
            eno=eno,
            name=f"E{eno}",
            age=rng.randint(21, 65),
            salary=salaries[eno],
            dept=dept_of[eno],
            kids=kids,
        ))
    anchors = {}
    for e in company.employees.values():
        if (depts[e.dept][1] == FORALL_FLOOR and e.dept != FORALL_DEPT
                and e.dept not in anchors):
            anchors[e.dept] = e.eno
            e.salary = FORALL_THRESHOLD
    company.anchors = frozenset(anchors.values())
    return company


def _canonical(row: tuple) -> tuple:
    return tuple(round(v, 6) if isinstance(v, float) else v for v in row)


def check_rows(label: str, got: list, expected: list) -> None:
    """Compare as multisets; floats to 1e-9 relative (averages may sum
    in another order)."""
    got_sorted = sorted(_canonical(tuple(r)) for r in got)
    want_sorted = sorted(_canonical(tuple(r)) for r in expected)
    if len(got_sorted) != len(want_sorted):
        raise OracleMismatch(
            f"{label}: {len(got_sorted)} rows, expected {len(want_sorted)}"
        )
    for have, want in zip(got_sorted, want_sorted):
        if len(have) != len(want):
            raise OracleMismatch(f"{label}: row {have!r}, expected {want!r}")
        for a, b in zip(have, want):
            if isinstance(b, float) and isinstance(a, (int, float)):
                if not math.isclose(a, b, rel_tol=1e-9):
                    raise OracleMismatch(
                        f"{label}: row {have!r}, expected {want!r}")
            elif a != b:
                raise OracleMismatch(f"{label}: row {have!r}, expected {want!r}")
