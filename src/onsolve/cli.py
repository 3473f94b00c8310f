"""Command-line front end.

Subcommands: ``solve`` (decide f = 0 and print a model), ``check-on``
(validate an orthonormal set), ``expand`` (coefficient intervals and
expansion of f over an ON set), ``verify`` (cross-check the solver against
the brute-force oracle).  Exit codes for ``solve``: 0 consistent,
1 inconsistent, 2 error.  See the README for the file formats; both are
read into one expression tree, ``ProblemFile.expr``.  This module limits
n to ``--var-cap`` where it reads it; ``Algebra`` itself rejects k above 64.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .algebra import Algebra, AlgebraElement
from .function import BoolFunction, parse, to_expression
from .orthonormal import (
    OrthonormalSet,
    OrthonormalityError,
    format_on_set,
    from_blocks,
    is_in_class,
    on_set_records,
    parse_on_set,
    verify_on,
)
from .oracle import brute_consistency
from .parsing import (Expr, ExpressionSyntaxError, clause_cubes, cnf_expr,
                      parse_element, parse_expr)
from .solver import (
    Assignment,
    EliminationTrace,
    InapplicableClassError,
    cnf_function,  # kept as cli.cnf_function for bench/worker.py
    consecutive_split,
    eliminate_expr,
    extract_solution,
    render_trace,
)


DEFAULT_VAR_CAP = 24


class ProblemFormatError(ValueError):
    pass


def _check_var_cap(n: int, var_cap: int) -> None:
    """Reject a variable count read from the input before any 2^n table."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    if n > var_cap:
        raise ValueError(
            f"{n} variables exceeds the table cap of {var_cap} "
            f"(pass --var-cap {n} to allow tables of 2^{n} entries)")


def _file_algebra(override: int | None, k: int | None, default: int) -> Algebra:
    """The algebra of a file read: ``--algebra`` when given, else the file's
    'algebra' line ``k``, else ``default``."""
    if override is not None:
        return Algebra(override)
    return Algebra(default if k is None else k)


@dataclass
class ProblemFile:
    algebra: Algebra
    n: int
    var_names: list[str]
    split: list[list[int]] | None
    onset: OrthonormalSet | None
    expr: Expr  # a DIMACS file is its clause_cubes

    @cached_property
    def function(self) -> BoolFunction:
        """f; its 2^n table is built on first access."""
        return BoolFunction.from_expr(self.expr, self.n, self.algebra)

    def evaluate(self, model: Assignment) -> AlgebraElement:
        """f at the model, read off the expression without a table."""
        return self.expr.evaluate(tuple(model[i] for i in range(self.n)), self.algebra)


def default_var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


# ---------------------------------------------------------------------------
# DIMACS


# Characters that end a line for str.splitlines besides "\n".
_LINE_BREAKS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# A comment ("c", "%") or problem ("p") line; group 1 is its first letter.
_NOT_CLAUSES = re.compile(r"^[^\S\n]*([cp%])[^\n]*", re.M)
_INTEGER = re.compile(r"[+-]?[0-9]+")
# SATLIB's trailer: a "%" line, then a lone 0 that ends the text.
_SATLIB_TRAILER = re.compile(r"^[^\S\n]*%[^\n]*\n\s*0\s*\Z", re.M)


def _integer(token: str, lineno: int) -> int:
    """A number field on line ``lineno`` of an input file: ASCII digits
    after an optional sign.  ``int`` alone also reads other Unicode digits
    and ``_`` separators."""
    if not _INTEGER.fullmatch(token):
        raise ProblemFormatError(f"line {lineno}: expected an integer, got {token!r}")
    return int(token)


def _check_tokens(lines) -> None:
    """Raise on the first token that is not an integer, with its line
    number; ``lines`` are the first lines of a text."""
    for lineno, line in enumerate(lines, 1):
        for token in line.split():
            _integer(token, lineno)


def _read_dimacs(text: str) -> tuple[int, np.ndarray]:
    """n and the literals of a DIMACS text: every integer of its clause
    lines, in order, as one array, where each clause ends with a 0 but
    perhaps the last.  The problem line may come anywhere.  A bad problem
    line or a token that is not an integer is reported with its line, the
    first in file order; a missing problem line, a literal outside 1..n,
    and then a clause count that differs from the problem line's are
    reported once the whole text is read.  When the text ends with SATLIB's
    trailer, a ``%`` line and then a lone ``0``, and the clauses read are
    one more than the problem line declares, that ``0`` is not a clause.

    The clause lines are read in one pass: the comment and problem lines
    are blanked out with one regular expression, and numpy reads the
    tokens that remain.  Only when that fails, or when the text holds a
    character outside ASCII or a ``_`` (which numpy, like ``int``, reads
    as digits), is each token checked on its own to find the faulty one."""
    if _LINE_BREAKS.search(text):
        text = "\n".join(text.splitlines())
    problems = []

    def blank(line: re.Match) -> str:
        if line[1] == "p":
            problems.append(line)
        return ""

    body = _NOT_CLAUSES.sub(blank, text)
    n = m = None
    for match in problems:
        lineno = text.count("\n", 0, match.start()) + 1
        try:
            fields = match[0].split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ProblemFormatError(f"bad DIMACS header {match[0].strip()!r}")
            if n is not None:
                raise ProblemFormatError(f"line {lineno}: repeated DIMACS problem line")
            n = _integer(fields[2], lineno)
            m = _integer(fields[3], lineno)
            if m < 0:
                raise ProblemFormatError(f"line {lineno}: negative clause count")
        except ProblemFormatError:
            _check_tokens(body.split("\n", lineno - 1)[:lineno - 1])
            raise
        problem_line = lineno
    tokens = body.split()
    if not text.isascii() or "_" in text:
        _check_tokens(body.split("\n"))
    try:
        literals = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        _check_tokens(body.split("\n"))
        literals = np.array([int(token) for token in tokens], dtype=object)
    if n is None:
        raise ProblemFormatError("missing DIMACS problem line")
    outside = np.flatnonzero((literals != 0) & ((literals > n) | (literals < -n)))
    if len(outside):
        raise ProblemFormatError(f"literal {literals[outside[0]]} outside 1..{n}")
    read = np.count_nonzero(literals == 0) + bool(len(literals) and literals[-1])
    if (read == m + 1 and (len(literals) == 1 or literals[-2] == 0)
            and _SATLIB_TRAILER.search(text)):
        literals, read = literals[:-1], m  # the trailer's 0 is no empty clause
    if read != m:
        raise ProblemFormatError(
            f"line {problem_line}: header declares {m} clauses, read {read}")
    return n, literals


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """n and the clauses of a DIMACS text, each a list of literals."""
    n, literals = _read_dimacs(text)
    values, clauses, start = literals.tolist(), [], 0
    for end in np.flatnonzero(literals == 0).tolist():
        clauses.append(values[start:end])
        start = end + 1
    if start < len(values):
        clauses.append(values[start:])
    return n, clauses


# ---------------------------------------------------------------------------
# Problem files


def _directives(text: str, once: tuple[str, ...]):
    """(line number, line, keyword, rest) for each line of a problem or
    expression-form ON-set file that holds more than a ``#`` comment.  A
    keyword in ``once`` may start one line only."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword in once:
            if keyword in seen:
                raise ProblemFormatError(f"line {lineno}: repeated directive {keyword!r}")
            seen.add(keyword)
        yield lineno, line, keyword, rest.strip()


def _looks_like_dimacs(path: Path, text: str) -> bool:
    if path.suffix == ".cnf":
        return True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        return line.startswith(("p cnf", "c"))
    return False


def parse_problem(path: Path, algebra_override: int | None = None,
                  var_cap: int = DEFAULT_VAR_CAP) -> ProblemFile:
    text = path.read_text()
    if _looks_like_dimacs(path, text):
        if algebra_override not in (None, 1):
            raise ProblemFormatError("DIMACS problems live over the two-element algebra")
        algebra = Algebra(1)
        n, literals = _read_dimacs(text)
        _check_var_cap(n, var_cap)
        return ProblemFile(algebra, n, default_var_names(n), None, None,
                           clause_cubes(literals, algebra))

    k = None
    var_names: list[str] | None = None
    equation: str | None = None
    blocks_line: str | None = None
    onset_line: str | None = None
    onset_lineno = 0
    directives = ("algebra", "vars", "equation", "blocks", "onset")
    for lineno, _, keyword, rest in _directives(text, directives):
        if keyword == "algebra":
            k = _integer(rest, lineno)
        elif keyword == "vars":
            var_names = _var_names(rest, lineno, var_cap)
        elif keyword == "equation":
            equation = rest
        elif keyword == "blocks":
            blocks_line = rest
        elif keyword == "onset":
            onset_line, onset_lineno = rest, lineno
        else:
            raise ProblemFormatError(f"unknown directive {keyword!r}")
    if var_names is None:
        raise ProblemFormatError("problem file lacks a 'vars' line")
    if equation is None:
        raise ProblemFormatError("problem file lacks an 'equation' line")
    algebra = _file_algebra(algebra_override, k, 1)
    n = len(var_names)
    try:
        expr = parse_expr(equation, n, algebra, var_names)
    except ExpressionSyntaxError as exc:
        raise ProblemFormatError(f"bad equation: {exc}") from exc

    split = None
    if blocks_line is not None:
        split = []
        for group in blocks_line.split("|"):
            names = group.split()
            if not names:
                raise ProblemFormatError("empty block in 'blocks' line")
            try:
                split.append([var_names.index(name) for name in names])
            except ValueError:
                raise ProblemFormatError(f"unknown variable in blocks: {group!r}")
    onset = None
    if onset_line is not None:
        blocks = []
        for chunk in onset_line.replace("{", " {").split():
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise ProblemFormatError(f"bad onset chunk {chunk!r}")
            body = chunk[1:-1]
            blocks.append([_integer(s, onset_lineno) for s in body.split(",") if s])
        onset = from_blocks(algebra, n, blocks)
    return ProblemFile(algebra, n, var_names, split, onset, expr)


def _var_names(rest: str, lineno: int, var_cap: int) -> list[str]:
    """A 'vars' line: one count in ASCII digits (names x1..xn) or the names
    themselves, each one letter followed by digits, as the expression
    tokenizer reads a name.  The count is held to ``var_cap`` before any
    name is built."""
    fields = rest.split()
    if len(fields) == 1 and fields[0].isascii() and fields[0].isdigit():
        n = int(fields[0])
        _check_var_cap(n, var_cap)
        return default_var_names(n)
    _check_var_cap(len(fields), var_cap)
    for name in fields:
        if not (name[0].isalpha() and (len(name) == 1 or name[1:].isdigit())):
            raise ProblemFormatError(
                f"line {lineno}: bad variable name {name!r} (a name is one "
                f"letter followed by digits, a count is ASCII digits)")
    return fields


def load_on_set(path: Path, algebra_override: int | None, default: int = 1,
                var_cap: int = DEFAULT_VAR_CAP) -> OrthonormalSet:
    """ON-set file: either the block-partition format or expression form
    (optional 'algebra'/'vars' directives, then one member per line); only
    the expression form builds tables, so only it is held to ``var_cap``.
    The atom count is ``algebra_override``, else the file's, else
    ``default``."""
    text = path.read_text()
    records = on_set_records(text)
    if records and records[0][1].split()[0].isdigit():
        return parse_on_set(text, _file_algebra(algebra_override, None, default))

    k = None
    var_names: list[str] | None = None
    members: list[str] = []
    for lineno, line, keyword, rest in _directives(text, ("algebra", "vars")):
        if keyword == "algebra":
            k = _integer(rest, lineno)
        elif keyword == "vars":
            var_names = _var_names(rest, lineno, var_cap)
        else:
            members.append(line)
    if var_names is None:
        raise ProblemFormatError("expression-form ON-set file lacks a 'vars' line")
    algebra = _file_algebra(algebra_override, k, default)
    n = len(var_names)
    functions = [parse(m, n, algebra, var_names=var_names) for m in members]
    return verify_on(functions)


# ---------------------------------------------------------------------------
# Models


def format_model(model: Assignment, var_names: list[str]) -> str:
    return " ".join(f"{var_names[i]}={model[i]}" for i in sorted(model))


def parse_model(text: str, problem: ProblemFile) -> Assignment:
    values: Assignment = {}
    for tok in text.split():
        name, sep, literal = tok.partition("=")
        if not sep:
            raise ProblemFormatError(f"bad model token {tok!r}")
        if name not in problem.var_names:
            raise ProblemFormatError(f"unknown variable {name!r} in model")
        if problem.var_names.index(name) in values:
            raise ProblemFormatError(f"variable {name!r} set twice in model")
        values[problem.var_names.index(name)] = parse_element(literal, problem.algebra)
    missing = [problem.var_names[i] for i in range(problem.n) if i not in values]
    if missing:
        raise ProblemFormatError(f"model leaves variables unset: {' '.join(missing)}")
    return values


# ---------------------------------------------------------------------------
# Subcommands


def _solve_problem(problem: ProblemFile,
                   args) -> tuple[EliminationTrace, Assignment | None]:
    split = problem.split or consecutive_split(problem.n, args.block_size)
    trace = eliminate_expr(problem.expr, problem.n, problem.algebra, split,
                           args.phi_policy)
    return trace, extract_solution(trace) if trace.consistent else None


def cmd_solve(args) -> int:
    problem = parse_problem(Path(args.problem), args.algebra, args.var_cap)
    if args.check_model:
        model = parse_model(Path(args.check_model).read_text(), problem)
        value = problem.evaluate(model)
        if value.is_zero:
            print("model verifies: f = 0")
            return 0
        print(f"model fails: f = {value}")
        return 1
    trace, model = _solve_problem(problem, args)
    print("CONSISTENT" if trace.consistent else "INCONSISTENT")
    if model is not None:
        text = format_model(model, problem.var_names)
        print(f"model: {text}" if text else "model:")
    if args.trace:
        print(render_trace(trace, problem.var_names))
    return 0 if trace.consistent else 1


def cmd_check_on(args) -> int:
    try:
        onset = load_on_set(Path(args.onset), args.algebra, 1, args.var_cap)
    except OrthonormalityError as exc:
        print(f"not orthonormal: {type(exc).__name__}: {exc}")
        return 1
    print(f"ON of order {onset.order}")
    print(format_on_set(onset))
    return 0


def cmd_expand(args) -> int:
    problem = parse_problem(Path(args.problem), args.algebra, args.var_cap)
    onset = problem.onset
    if args.onset:
        onset = load_on_set(Path(args.onset), args.algebra,
                            problem.algebra.atom_count, args.var_cap)
    if onset is None:
        raise ProblemFormatError(
            "no ON set given (problem 'onset' line or --onset file)")
    if onset.algebra != problem.algebra or onset.n != problem.n:
        raise ProblemFormatError("ON set does not match the problem")
    membership = is_in_class(problem.function, onset)
    print(f"in constant class: {'yes' if membership else 'no'}")
    for i, (block, interval) in enumerate(zip(onset.blocks, membership.intervals)):
        line = (f"phi_{i + 1} {{{','.join(map(str, sorted(block)))}}}: "
                f"interval {interval}")
        if membership:
            constant = interval.low if args.policy == "low" else interval.high
            line += f" constant={constant}"
        else:
            coefficient = problem.function * onset.member(i)
            line += f" coefficient={to_expression(coefficient, problem.var_names)}"
        print(line)
    return 0


def _random_cnf(n: int, m: int, rng: random.Random) -> list[list[int]]:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), min(3, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def cmd_verify(args) -> int:
    jobs: list[tuple[str, ProblemFile]] = []
    for name in args.problems:
        jobs.append((name, parse_problem(Path(name), args.algebra, args.var_cap)))
    rng = random.Random(args.seed)
    algebra = Algebra(1)
    n = args.random_vars
    if args.random:
        _check_var_cap(n, args.var_cap)
    for i in range(args.random):
        clauses = _random_cnf(n, int(4.2 * n), rng)
        jobs.append((f"random-{i + 1}",
                     ProblemFile(algebra, n, default_var_names(n),
                                 None, None, cnf_expr(clauses, algebra))))
    if not jobs:
        raise ProblemFormatError("nothing to verify")
    agree = skipped = 0
    for name, problem in jobs:
        report = brute_consistency(problem.function)
        oracle = "CONSISTENT" if report.consistent else "INCONSISTENT"
        try:
            trace, model = _solve_problem(problem, args)
        except InapplicableClassError:
            skipped += 1
            print(f"{name}: solver=OUTSIDE-CLASS oracle={oracle} skipped")
            continue
        ok = trace.consistent == report.consistent
        if ok and model is not None:
            ok = problem.evaluate(model).is_zero
        agree += ok
        verdict = "agree" if ok else "DISAGREE"
        print(f"{name}: solver={'CONSISTENT' if trace.consistent else 'INCONSISTENT'}"
              f" oracle={oracle} {verdict}")
    checked = len(jobs) - skipped
    note = f" ({skipped} skipped: outside the class)" if skipped else ""
    print(f"agree: {agree}/{checked}{note}")
    return 0 if agree == checked else 1


# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it, so
    that a process calling ``main`` many times builds it once.  Callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="onsolve",
        description="Boolean equation consistency by orthonormal expansion")
    parser.add_argument("--algebra", type=int, metavar="K", default=None,
                        help="override the atom count of the algebra")
    parser.add_argument("--var-cap", type=int, default=DEFAULT_VAR_CAP,
                        help="largest allowed variable count (table guard)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide f = 0 and print a model")
    p_solve.add_argument("problem")
    p_solve.add_argument("--block-size", type=int, default=4)
    p_solve.add_argument("--phi-policy", choices=("minterm", "ladder"),
                         default="minterm")
    p_solve.add_argument("--trace", action="store_true",
                         help="print the elimination stage report")
    p_solve.add_argument("--check-model", metavar="FILE",
                         help="verify a model file instead of solving")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check-on", help="validate an ON-set file")
    p_check.add_argument("onset")
    p_check.set_defaults(func=cmd_check_on)

    p_expand = sub.add_parser("expand",
                              help="coefficient intervals over an ON set")
    p_expand.add_argument("problem")
    p_expand.add_argument("--onset", metavar="FILE")
    p_expand.add_argument("--policy", choices=("low", "high"), default="low")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify",
                              help="cross-check solver against the oracle")
    p_verify.add_argument("problems", nargs="*")
    p_verify.add_argument("--block-size", type=int, default=4)
    p_verify.add_argument("--phi-policy", choices=("minterm", "ladder"),
                          default="minterm")
    p_verify.add_argument("--random", type=int, default=0, metavar="COUNT",
                          help="also verify COUNT random 3-CNF instances")
    p_verify.add_argument("--random-vars", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, ExpressionSyntaxError, OrthonormalityError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
