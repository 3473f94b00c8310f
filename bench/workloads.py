"""Seeded instance generators and reference verdicts for the benchmark.

Each workload is a fixed schedule of instance slots; the seed only picks the
clauses or terms that fill them.  Sizes, block sizes and (where the cost
depends on it) the verdict of every slot are fixed, so the timing mix of a
workload is the same for every seed.

The reference verdict never runs elimination: the generator writes the dense
table of f itself (one in-place write per clause or term), and f = 0 is
consistent iff every atom slice of the table has a zero entry, that is iff
the AND over all entries is the empty atom set.  The table is kept, so models
can be checked against it too.  Planted instances must come out consistent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# Clause density of random 3-CNF near the satisfiability threshold.
THRESHOLD_DENSITY = 4.26
# Density of the over-constrained instances of `wide-block`; above 7 random
# 3-CNF at n >= 16 is almost always unsatisfiable, and the generator
# redraws the rare satisfiable one.
OVER_DENSITY = 7.0
# Terms per variable of the general-algebra equations.  Each atom slice gets
# about half the terms, each covering 1/8 of the points, so 5n terms leave
# every slice with zeros, and 10n cover some slice entirely for most draws
# (at 8n and n = 14 that happens once in thousands of draws).
CONSISTENT_TERMS = 5
INCONSISTENT_TERMS = 10
MAX_REDRAWS = 500


@dataclass
class Instance:
    """One generated problem: its file text, how to solve it, and the answer."""

    name: str
    kind: str                  # "cnf" or "expr"
    n: int
    atoms: int                 # k; 1 is the two-element algebra
    block_size: int
    text: str
    consistent: bool           # reference verdict
    table: np.ndarray          # reference table of f
    clauses: list[list[int]] = field(default_factory=list)

    @property
    def filename(self) -> str:
        return self.name + (".cnf" if self.kind == "cnf" else ".txt")


# ---------------------------------------------------------------------------
# Reference tables


def _cube(n: int, lits) -> tuple:
    """Index of the subcube where every literal in `lits` is true."""
    sel = [slice(None)] * n
    for lit in lits:
        sel[abs(lit) - 1] = 1 if lit > 0 else 0
    return tuple(sel)


def cnf_table(n: int, clauses: list[list[int]]) -> np.ndarray:
    """f = OR over clauses of the cube where the clause is false."""
    table = np.zeros(1 << n, dtype=bool)
    view = table.reshape((2,) * n)
    for clause in clauses:
        view[_cube(n, [-lit for lit in clause])] = True
    return table


def expr_table(n: int, terms: list[tuple[int, list[int]]]) -> np.ndarray:
    """f = OR over terms of (atom mask) on the cube of the term's literals."""
    table = np.zeros(1 << n, dtype=np.uint64)
    view = table.reshape((2,) * n)
    for mask, lits in terms:
        view[_cube(n, lits)] |= np.uint64(mask)
    return table


def table_consistent(table: np.ndarray) -> bool:
    """True iff every atom slice of the table has a zero entry."""
    if table.dtype == bool:
        return not bool(table.all())
    return int(np.bitwise_and.reduce(table)) == 0


# ---------------------------------------------------------------------------
# Generators


def _random_clause(n: int, rng: random.Random) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]


def _dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _cnf_instance(name: str, n: int, block_size: int, clauses,
                  want: bool | None = None) -> Instance | None:
    table = cnf_table(n, clauses)
    consistent = table_consistent(table)
    if want is not None and consistent != want:
        return None
    return Instance(name, "cnf", n, 1, block_size, _dimacs(n, clauses),
                    consistent, clauses=clauses, table=table)


def random_cnf(name: str, n: int, block_size: int, density: float,
               rng: random.Random, want: bool | None = None) -> Instance:
    """Uniform random 3-CNF with round(density * n) clauses; with `want`,
    redrawn until its verdict is `want`."""
    for _ in range(MAX_REDRAWS):
        clauses = [_random_clause(n, rng) for _ in range(round(density * n))]
        inst = _cnf_instance(name, n, block_size, clauses, want)
        if inst is not None:
            return inst
    raise RuntimeError(f"{name}: no instance with verdict {want} found")


def planted_cnf(name: str, n: int, block_size: int, density: float,
                rng: random.Random) -> Instance:
    """Random 3-CNF keeping only clauses a hidden assignment satisfies."""
    hidden = [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    while len(clauses) < round(density * n):
        clause = _random_clause(n, rng)
        if any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            clauses.append(clause)
    inst = _cnf_instance(name, n, block_size, clauses, want=True)
    if inst is None:
        raise RuntimeError(f"{name}: the reference table misses the planted model")
    return inst


def _term_text(mask: int, lits: list[int]) -> str:
    atoms = "+".join(f"a{t}" for t in range(mask.bit_length()) if mask >> t & 1)
    vars_ = "*".join(f"x{abs(l)}" + ("" if l > 0 else "'") for l in lits)
    return f"({atoms})*{vars_}"


def general_expr(name: str, n: int, atoms: int, block_size: int,
                 rng: random.Random, want: bool) -> Instance:
    """Sum of random atom-set constants times 3-literal terms, redrawn until
    its verdict is `want`."""
    full = (1 << atoms) - 1
    count = (CONSISTENT_TERMS if want else INCONSISTENT_TERMS) * n
    for _ in range(MAX_REDRAWS):
        terms = [(rng.randint(1, full), _random_clause(n, rng))
                 for _ in range(count)]
        table = expr_table(n, terms)
        if table_consistent(table) != want:
            continue
        equation = " + ".join(_term_text(m, lits) for m, lits in terms)
        text = f"algebra {atoms}\nvars {n}\nequation {equation}\n"
        return Instance(name, "expr", n, atoms, block_size, text, want,
                        table=table)
    raise RuntimeError(f"{name}: no instance with verdict {want} found")


# ---------------------------------------------------------------------------
# Workloads
#
# Each schedule puts the same number of slots below and above a middle group
# of identical slots, so the median solve time is that group's; and the
# slowest group has enough slots that ten samples beyond the tail percentile
# stay inside it after three rounds.

# cnf-build: random 3-CNF at the threshold, block size 4; {n: copies}.
CNF_BUILD_COPIES = {20: 4, 21: 3, 22: 3, 23: 3, 24: 4}

# wide-block: (n, block size, planted) slots; the rest are over-constrained
# and skip back-substitution.  The middle group is (18, 14, planted) x 3.
WIDE_BLOCK_SLOTS = (
    (16, 12, True), (16, 12, False), (16, 14, False), (18, 14, False),
    (20, 14, False),
    (18, 14, True), (18, 14, True), (18, 14, True),
    (16, 16, True), (16, 16, False), (18, 16, True), (18, 16, False),
    (20, 16, True),
)

# general-algebra: (atoms, n, block size, consistent) slots.  The general
# back-substitution costs about the square of 2^b, so consistent slots keep
# b <= 10.  The middle group is (8, 12, 8, consistent) x 3.
GENERAL_SLOTS = (
    (4, 10, 5, False), (8, 10, 4, False), (16, 12, 6, False),
    (4, 14, 4, False), (8, 12, 4, True), (16, 14, 5, True),
    (8, 12, 8, True), (8, 12, 8, True), (8, 12, 8, True),
    (4, 14, 14, False), (16, 14, 14, False), (4, 10, 10, True),
    (8, 10, 10, True), (16, 10, 10, True), (8, 14, 10, True),
)


def _cnf_build(rng: random.Random) -> list[Instance]:
    return [random_cnf(f"cnf-n{n}-{c}", n, 4, THRESHOLD_DENSITY, rng)
            for n, copies in CNF_BUILD_COPIES.items() for c in range(copies)]


def _wide_block(rng: random.Random) -> list[Instance]:
    out = []
    for i, (n, b, planted) in enumerate(WIDE_BLOCK_SLOTS):
        name = f"wide-{i}-n{n}-b{b}"
        out.append(planted_cnf(name, n, b, THRESHOLD_DENSITY, rng) if planted
                   else random_cnf(name, n, b, OVER_DENSITY, rng, want=False))
    return out


def _general_algebra(rng: random.Random) -> list[Instance]:
    return [general_expr(f"gen-{i}-k{k}-n{n}-b{b}", n, k, b, rng, want)
            for i, (k, n, b, want) in enumerate(GENERAL_SLOTS)]


WORKLOADS = {
    "cnf-build": _cnf_build,
    "wide-block": _wide_block,
    "general-algebra": _general_algebra,
}


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed; the same seed gives the same
    instances."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
