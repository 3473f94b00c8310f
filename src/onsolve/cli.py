"""Command-line front end.

Subcommands: ``solve`` (decide f = 0 and print a model), ``check-on``
(validate an orthonormal set), ``expand`` (coefficient intervals and
expansion of f over an ON set), ``verify`` (cross-check the solver against
the brute-force oracle).  Exit codes for ``solve``: 0 consistent,
1 inconsistent, 2 error.  See the README for the file formats; both are
read into one expression tree, ``ProblemFile.expr``.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .algebra import Algebra, AlgebraElement
from .function import DEFAULT_VAR_CAP, BoolFunction, _check_var_cap, parse, to_expression
from .orthonormal import (
    OrthonormalSet,
    OrthonormalityError,
    format_on_set,
    from_blocks,
    is_in_class,
    parse_on_set,
    verify_on,
)
from .oracle import brute_consistency
from .parsing import (Cube, Expr, ExpressionSyntaxError, Sum, cnf_expr,
                      parse_element, parse_expr)
from .solver import (
    Assignment,
    EliminationTrace,
    InapplicableClassError,
    cnf_function,  # kept as cli.cnf_function for bench/worker.py
    consecutive_split,
    eliminate_blocks,
    eliminate_cubes,
    extract_solution,
    render_trace,
)


class ProblemFormatError(ValueError):
    pass


@dataclass
class ProblemFile:
    algebra: Algebra
    n: int
    var_names: list[str]
    split: list[list[int]] | None
    onset: OrthonormalSet | None
    expr: Expr  # a DIMACS file is its cnf_expr

    @cached_property
    def function(self) -> BoolFunction:
        """f; its 2^n table is built on first access."""
        return BoolFunction.from_expr(self.expr, self.n, self.algebra, var_cap=self.n)

    def evaluate(self, model: Assignment) -> AlgebraElement:
        """f at the model, read off the expression without a table."""
        return self.expr.evaluate(tuple(model[i] for i in range(self.n)), self.algebra)


def default_var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _integer(token: str, lineno: int) -> int:
    """A number field on line ``lineno`` of an input file."""
    try:
        return int(token)
    except ValueError:
        raise ProblemFormatError(
            f"line {lineno}: expected an integer, got {token!r}") from None


# ---------------------------------------------------------------------------
# DIMACS


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    n = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ProblemFormatError(f"bad DIMACS header {line!r}")
            n = _integer(fields[2], lineno)
            continue
        for tok in line.split():
            lit = _integer(tok, lineno)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(pending)
    if n is None:
        raise ProblemFormatError("missing DIMACS problem line")
    for clause in clauses:
        for lit in clause:
            if not 1 <= abs(lit) <= n:
                raise ProblemFormatError(f"literal {lit} outside 1..{n}")
    return n, clauses


# ---------------------------------------------------------------------------
# Problem files


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


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
        n, clauses = parse_dimacs(text)
        _check_var_cap(n, var_cap)
        return ProblemFile(algebra, n, default_var_names(n), None, None,
                           cnf_expr(clauses, algebra))

    k = 1
    var_names: list[str] | None = None
    equation: str | None = None
    blocks_line: str | None = None
    onset_line: str | None = None
    onset_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw)
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "algebra":
            k = _integer(rest, lineno)
        elif keyword == "vars":
            var_names = _var_names(rest, lineno)
        elif keyword == "equation":
            equation = rest
        elif keyword == "blocks":
            blocks_line = rest
        elif keyword == "onset":
            onset_line, onset_lineno = rest, lineno
        else:
            raise ProblemFormatError(f"unknown directive {keyword!r}")
    if algebra_override is not None:
        k = algebra_override
    if var_names is None:
        raise ProblemFormatError("problem file lacks a 'vars' line")
    if equation is None:
        raise ProblemFormatError("problem file lacks an 'equation' line")
    algebra = Algebra(k)
    n = len(var_names)
    try:
        expr = parse_expr(equation, n, algebra, var_names)
    except ExpressionSyntaxError as exc:
        raise ProblemFormatError(f"bad equation: {exc}") from exc
    _check_var_cap(n, var_cap)

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


def _var_names(rest: str, lineno: int) -> list[str]:
    """A 'vars' line: one count (names x1..xn) or the names themselves."""
    fields = rest.split()
    if len(fields) == 1 and fields[0].isdigit():
        return default_var_names(_integer(fields[0], lineno))
    return fields


def load_on_set(path: Path, algebra: Algebra | None,
                var_cap: int = DEFAULT_VAR_CAP) -> tuple[OrthonormalSet, Algebra]:
    """ON-set file: either the block-partition format or expression form
    (optional 'algebra'/'vars' directives, then one member per line)."""
    text = path.read_text()
    meaningful = [(lineno, _strip_comment(l))
                  for lineno, l in enumerate(text.splitlines(), 1)]
    meaningful = [(lineno, l) for lineno, l in meaningful if l]
    if meaningful and meaningful[0][1].split()[0].isdigit():
        if algebra is None:
            algebra = Algebra(1)
        return parse_on_set(text, algebra), algebra

    k = algebra.atom_count if algebra is not None else 1
    var_names: list[str] | None = None
    members: list[str] = []
    for lineno, line in meaningful:
        keyword, _, rest = line.partition(" ")
        if keyword == "algebra":
            k = _integer(rest.strip(), lineno)
        elif keyword == "vars":
            var_names = _var_names(rest, lineno)
        else:
            members.append(line)
    if var_names is None:
        raise ProblemFormatError("expression-form ON-set file lacks a 'vars' line")
    algebra = Algebra(k)
    n = len(var_names)
    functions = [parse(m, n, algebra, var_names=var_names, var_cap=var_cap)
                 for m in members]
    return verify_on(functions), algebra


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
        values[problem.var_names.index(name)] = parse_element(literal, problem.algebra)
    missing = [problem.var_names[i] for i in range(problem.n) if i not in values]
    if missing:
        raise ProblemFormatError(f"model leaves variables unset: {' '.join(missing)}")
    return values


# ---------------------------------------------------------------------------
# Subcommands


def _solve_problem(problem: ProblemFile,
                   args) -> tuple[EliminationTrace, Assignment | None]:
    split = problem.split
    if split is None:
        split = consecutive_split(problem.n, args.block_size)
    expr = problem.expr
    cubes = expr.parts if isinstance(expr, Sum) else (expr,)
    if (problem.n and args.phi_policy == "minterm"
            and all(isinstance(c, Cube) for c in cubes)):
        trace = eliminate_cubes(problem.n, problem.algebra, cubes, split)
    else:
        trace = eliminate_blocks(problem.function, split, phi_policy=args.phi_policy)
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
    algebra = Algebra(args.algebra) if args.algebra else None
    try:
        onset, _ = load_on_set(Path(args.onset), algebra, args.var_cap)
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
        onset, _ = load_on_set(Path(args.onset), problem.algebra, args.var_cap)
    if onset is None:
        print("no ON set given (problem 'onset' line or --onset file)",
              file=sys.stderr)
        return 2
    if onset.algebra != problem.algebra or onset.n != problem.n:
        print("ON set does not match the problem", file=sys.stderr)
        return 2
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
    for i in range(args.random):
        n = args.random_vars
        clauses = _random_cnf(n, int(4.2 * n), rng)
        _check_var_cap(n, args.var_cap)
        jobs.append((f"random-{i + 1}",
                     ProblemFile(algebra, n, default_var_names(n),
                                 None, None, cnf_expr(clauses, algebra))))
    if not jobs:
        print("nothing to verify", file=sys.stderr)
        return 2
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


def build_parser() -> argparse.ArgumentParser:
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
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
