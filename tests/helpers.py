"""Shared generators and independent reference implementations.

The evaluation and satisfiability oracles here deliberately avoid the code
paths they are used to check: evaluation goes literal by literal through the
minterm sum, consistency is an exhaustive search of B**n, satisfaction of
CNF clauses is checked straight off the literal lists, class membership is
an exhaustive search for the constants, the elimination stages are read off
the dense tables with plain numpy, and the tokens are read one character at
a time.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from onsolve import (
    Algebra,
    AlgebraElement,
    BoolFunction,
    OrthonormalSet,
    complement,
    join,
    ladder_set,
    meet,
    minterm_set,
)
from onsolve.function import point_bits
from onsolve.parsing import Cubes, ExpressionSyntaxError, _start, _tokenize

B0 = Algebra(1)
B2 = Algebra(2)
B3 = Algebra(3)
# Atom counts 0, 1, 3 and 64 cover the bool and uint64 tables, up to the
# top atom a63 in the top bit of a uint64.
EXPR_ALGEBRAS = (Algebra(0), B0, B3, Algebra(64))


def cube(value: AlgebraElement, lits=()) -> Cubes:
    """The one-row ``Cubes`` node of ``value`` times the literals, each a
    (variable, bit) pair, bit 1 for x and 0 for x'."""
    care = sum(1 << v for v, _ in lits)
    bits = sum(bit << v for v, bit in lits)
    return Cubes(value.algebra, (care,), (bits,), (value.mask,))


def rows(*nodes: Cubes) -> Cubes:
    """One node that holds the rows of ``nodes``, in order."""
    return Cubes(nodes[0].algebra, *(sum((getattr(node, f) for node in nodes), ())
                                     for f in ("care", "bits", "value")))


def rand_element(algebra: Algebra, rng: random.Random) -> AlgebraElement:
    return algebra.element(rng.getrandbits(algebra.atom_count))


def rand_function(algebra: Algebra, n: int, rng: random.Random) -> BoolFunction:
    return BoolFunction.from_coeffs(
        algebra, n, [rand_element(algebra, rng) for _ in range(1 << n)])


def rand_b0_function(n: int, np_rng: np.random.Generator) -> BoolFunction:
    table = np_rng.integers(0, 2, size=1 << n).astype(bool)
    return BoolFunction(B0, n, table)


def rand_partition(total: int, m: int, rng: random.Random) -> list[set[int]]:
    """Random partition of range(total) into exactly m nonempty blocks."""
    assert 1 <= m <= total
    indices = list(range(total))
    rng.shuffle(indices)
    cuts = sorted(rng.sample(range(1, total), m - 1))
    blocks = []
    start = 0
    for cut in cuts + [total]:
        blocks.append(set(indices[start:cut]))
        start = cut
    return blocks


def all_points(algebra: Algebra, n: int):
    """Every tuple of B**n, mask-lexicographic."""
    for masks in itertools.product(range(algebra.size), repeat=n):
        yield tuple(algebra.element(m) for m in masks)


def first_zero(f: BoolFunction):
    """The first point of B**n, in ``all_points`` order, where f is 0, or
    None when f = 0 is inconsistent."""
    return next((p for p in all_points(f.algebra, f.n) if f.evaluate(p).is_zero),
                None)


def minterm_sum_eval(f: BoolFunction, point) -> AlgebraElement:
    """Independent evaluation: sum over j of coeff_j * minterm_j(Z), with the
    minterm computed literal by literal."""
    algebra = f.algebra
    out = algebra.zero
    for j in range(1 << f.n):
        mu = algebra.one
        for z, bit in zip(point, point_bits(j, f.n)):
            mu = meet(mu, z if bit else complement(z))
        out = join(out, meet(f.coeff(j), mu))
    return out


DEFAULT_TUPLE_BUDGET = 1 << 16


class BudgetExceededError(ValueError):
    """``brute_class_membership`` would try more tuples than its budget."""


def brute_class_membership(f: BoolFunction, onset: OrthonormalSet,
                           tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> bool:
    """Exhaustively search for constants making sum(a_i * phi_i) equal f.

    Candidate expansions are compared on the coefficient tables, which pins
    the functions completely by the canonical form.
    """
    if f.algebra != onset.algebra or f.n != onset.n:
        raise ValueError("function and ON set must share algebra and arity")
    m = onset.order
    size = f.algebra.size
    if size ** m > tuple_budget:
        raise BudgetExceededError(
            f"{size}^{m} candidate tuples exceed the budget of {tuple_budget}")
    # (block of minterm j, coefficient mask at j) for every minterm j
    pairs = list(zip(onset.labels.tolist(), f.table.tolist()))
    for candidate in itertools.product(range(size), repeat=m):
        if all(candidate[i] == mask for i, mask in pairs):
            return True
    return False


class OutsideClassError(ValueError):
    """``dense_stages`` found a block whose minterm rows differ."""


def dense_stages(f: BoolFunction, split, policy: str) -> list[tuple]:
    """(eliminant table, zero coefficients, coefficient table) of each stage
    of f under ``split``, from the dense tables: a block's rows by
    ``np.moveaxis``, member i's row as the common row of block i's minterms
    (``labels``), and the eliminant as the AND of all the rows."""
    table, variables, stages = f.table, list(range(f.n)), []
    for block in split:
        b = len(block)
        phi = (minterm_set if policy == "minterm" else ladder_set)(b, f.algebra)
        axes = [variables.index(i) for i in block]
        tensor = table.reshape((2,) * len(variables))
        rows = np.moveaxis(tensor, axes, range(b)).reshape(1 << b, -1)
        kept = np.zeros((phi.order, rows.shape[1]), dtype=rows.dtype)
        for i in range(phi.order):
            members = rows[phi.labels == i]
            if (members != members[0]).any():
                raise OutsideClassError(f"block {block}, member {i}")
            kept[i] = members[0]
        table = np.bitwise_and.reduce(rows, axis=0)
        stages.append((table, int(np.count_nonzero(~kept.any(axis=1))), kept))
        variables = [i for i in variables if i not in block]
    return stages


def write_rows(table: np.ndarray, variables, node: Cubes, point: dict[int, int],
               algebra: Algebra) -> np.ndarray:
    """OR the rows of a ``Cubes`` node into the flat ``table`` over
    ``variables`` (the first is the most significant bit), one row at a
    time: a literal on a table variable picks the entries whose index has
    that bit, and a literal on any other variable v meets the row's mask
    with ``point[v]`` or its complement.  The node's 1 is the table
    algebra's 1.  Returns the table."""
    variables = list(variables)
    width = len(variables)
    index = np.arange(1 << width)
    full = algebra.full_mask
    for care, bits, mask in zip(node.care, node.bits, node.value):
        if mask == node.algebra.full_mask:
            mask = full
        hit = np.ones(1 << width, dtype=bool)
        for v in range(care.bit_length()):
            if not care >> v & 1:
                continue
            bit = bits >> v & 1
            if v in variables:
                hit &= (index >> (width - 1 - variables.index(v)) & 1) == bit
            else:
                mask &= point[v] if bit else full & ~point[v]
        if mask:
            table[hit] |= bool(mask) if table.dtype == bool else np.uint64(mask)
    return table


def is_on_tuple(items, algebra: Algebra) -> bool:
    items = list(items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if not meet(items[i], items[j]).is_zero:
                return False
    total = algebra.zero
    for x in items:
        total = join(total, x)
    return total.is_one


def is_coon_tuple(items, algebra: Algebra) -> bool:
    items = list(items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if not join(items[i], items[j]).is_one:
                return False
    total = algebra.one
    for x in items:
        total = meet(total, x)
    return total.is_zero


# ---------------------------------------------------------------------------
# CNF utilities

# Clauses over x1, x5, .., x21 only: each block of four depends on its first
# variable alone, so the function is in every ladder stage's class.
LADDER_CLAUSES = [[1, -5, 9], [-1, 13, -17], [5, -13, 21], [-9, 17, -21],
                  [1, 9, 13], [-5, -9, -13]]


def random_cnf(n: int, m: int, rng: random.Random,
               width: int = 3) -> list[list[int]]:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), min(width, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def planted_cnf(n: int, m: int, rng: random.Random,
                width: int = 3) -> tuple[list[list[int]], list[int]]:
    """Random CNF guaranteed satisfiable by a hidden assignment."""
    hidden = [rng.randint(0, 1) for _ in range(n)]
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), min(width, n))
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any(_lit_true(l, hidden) for l in lits):
            fix = rng.randrange(len(lits))
            v = abs(lits[fix])
            lits[fix] = v if hidden[v - 1] else -v
        clauses.append(lits)
    return clauses, hidden


def _lit_true(lit: int, bits: list[int]) -> bool:
    value = bits[abs(lit) - 1]
    return bool(value) if lit > 0 else not value


def clauses_satisfied(clauses: list[list[int]], bits: list[int]) -> bool:
    return all(any(_lit_true(l, bits) for l in clause) for clause in clauses)


def model_bits(model, n: int) -> list[int]:
    """A two-element-algebra assignment as a 0/1 list."""
    return [1 if model[i].is_one else 0 for i in range(n)]


# ---------------------------------------------------------------------------
# Tokens, one character at a time


def reference_tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and start positions of ``text``, ending with the
    empty END token, read one character at a time: each of ``01+*'()`` is a
    token, whitespace is skipped, a letter starts a name that takes the
    digits after it, and any other character is an error."""
    texts: list[str] = []
    starts: list[int] = []
    i, end = 0, len(text)
    while i < end:
        c = text[i]
        if c in "01+*'()":
            texts.append(c)
            starts.append(i)
            i += 1
        elif c.isspace():
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            texts.append(text[i:j])
            starts.append(i)
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    texts.append("")
    starts.append(end)
    return texts, starts


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ExpressionSyntaxError as exc:
        return str(exc), exc.position


def _tokens_and_starts(text: str) -> tuple[list[str], list[int]]:
    tokens = _tokenize(text)
    return tokens, [_start(text, tokens, i) for i in range(len(tokens))]


def tokenizer_mismatches(texts) -> list[str]:
    """The texts on which ``parsing._tokenize``, with each token's start
    found by ``parsing._start``, and ``reference_tokenize`` disagree: on the
    token texts, their starts, or the error message and position."""
    return [text for text in texts
            if _tokens_or_error(_tokens_and_starts, text)
            != _tokens_or_error(reference_tokenize, text)]


def code_point_texts(codes, contexts):
    """Each context with ``{c}`` replaced by each code point in ``codes``."""
    return (context.replace("{c}", chr(code)) for code in codes for context in contexts)
