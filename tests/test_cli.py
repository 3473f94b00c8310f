"""End-to-end command-line behavior on the bundled instances."""

import hashlib
import random
from pathlib import Path

import pytest

from onsolve import BoolFunction, cli, eliminate_blocks
from onsolve.cli import (
    ProblemFormatError,
    cnf_function,
    load_on_set,
    main,
    parse_dimacs,
    parse_problem,
)

from helpers import B0, LADDER_CLAUSES, random_cnf

INSTANCES = Path(__file__).parent.parent / "instances"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exact models under the README's back-substitution conventions.  The ladder
# cases put several minterms in one block, so they go through the class check.
GOLDEN_MODELS = [
    (("walkthrough3.txt",), "model: x=0 y=1 z=1"),
    (("general_b2.txt",), "model: x1=a1"),
    (("general_b3.txt",), "model: x1=a2 x2=0"),
    (("general_b3.txt", "--phi-policy", "ladder", "--block-size", "2"),
     "model: x1=a2 x2=0"),
    (("implication.txt", "--phi-policy", "ladder", "--block-size", "4"),
     "model: x=1 y=1 z=1"),
    (("empty.cnf",), "model:"),
    (("rand8_sat.cnf",), "model: x1=0 x2=1 x3=1 x4=0 x5=1 x6=1 x7=1 x8=0"),
    (("rand8_sat.cnf", "--block-size", "3"),
     "model: x1=0 x2=0 x3=1 x4=1 x5=1 x6=1 x7=1 x8=0"),
    (("single.cnf",), "model: x1=1 x2=1 x3=1"),
    (("triangle.cnf",), "model: x1=1 x2=0 x3=1 x4=0"),
]

# Exact `solve --trace` output for every problem file in instances/.
GOLDEN_TRACES = {
    "blocks_split.txt": """\
CONSISTENT
model: x1=1 x2=1 x3=0 x4=1
elimination trace: n=4, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x3} via ON order 4; coefficients: 4 (0 zero); eliminant over 2 vars (4 entries, digest 3f096541)
  stage 2: eliminate {x2, x4} via ON order 4; coefficients: 4 (3 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "chain5.txt": """\
CONSISTENT
model: x1=1 x2=1 x3=1 x4=1 x5=1
elimination trace: n=5, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3, x4} via ON order 16; coefficients: 16 (0 zero); eliminant over 1 vars (2 entries, digest 1489f923)
  stage 2: eliminate {x5} via ON order 2; coefficients: 2 (2 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "general_b2.txt": """\
CONSISTENT
model: x1=a1
elimination trace: n=1, algebra=2^2, policy=minterm
  stage 1: eliminate {x1} via ON order 2; coefficients: 2 (0 zero); eliminant over 0 vars (1 entries, digest 05fe4057)
  final constant: 0 -> CONSISTENT
""",
    "general_b2_unsat.txt": """\
INCONSISTENT
elimination trace: n=1, algebra=2^2, policy=minterm
  stage 1: eliminate {x1} via ON order 2; coefficients: 2 (0 zero); eliminant over 0 vars (1 entries, digest 3da89ee2)
  final constant: a0 -> INCONSISTENT
""",
    "general_b3.txt": """\
CONSISTENT
model: x1=a2 x2=0
elimination trace: n=2, algebra=2^3, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (1 zero); eliminant over 0 vars (1 entries, digest 05fe4057)
  final constant: 0 -> CONSISTENT
""",
    "implication.txt": """\
CONSISTENT
model: x=1 y=1 z=1
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x, y, z} via ON order 8; coefficients: 8 (1 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "majority.txt": """\
CONSISTENT
model: x=1 y=0 z=0
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x, y, z} via ON order 8; coefficients: 8 (4 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "not_cubes.txt": """\
CONSISTENT
model: x1=1 x2=1 x3=1 x4=1
elimination trace: n=4, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3, x4} via ON order 16; coefficients: 16 (5 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "one.txt": """\
INCONSISTENT
elimination trace: n=2, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (0 zero); eliminant over 0 vars (1 entries, digest bf8b4530)
  final constant: 1 -> INCONSISTENT
""",
    "onset_embedded.txt": """\
CONSISTENT
model: x1=1 x2=1
elimination trace: n=2, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (2 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "walkthrough3.txt": """\
CONSISTENT
model: x=0 y=1 z=1
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {y, z} via ON order 4; coefficients: 4 (0 zero); eliminant over 1 vars (2 entries, digest 3f295464)
  stage 2: eliminate {x} via ON order 2; coefficients: 2 (1 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "xnor_pair.txt": """\
CONSISTENT
model: x1=1 x2=0
elimination trace: n=2, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (2 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "xor3.txt": """\
CONSISTENT
model: x=1 y=1 z=0
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x, y, z} via ON order 8; coefficients: 8 (4 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "zero.txt": """\
CONSISTENT
model: x1=1 x2=1
elimination trace: n=2, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (4 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "contra2.cnf": """\
INCONSISTENT
elimination trace: n=2, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2} via ON order 4; coefficients: 4 (0 zero); eliminant over 0 vars (1 entries, digest bf8b4530)
  final constant: 1 -> INCONSISTENT
""",
    "empty.cnf": """\
CONSISTENT
model:
elimination trace: n=0, algebra=2^1, policy=minterm
  final constant: 0 -> CONSISTENT
""",
    "php32.cnf": """\
INCONSISTENT
elimination trace: n=6, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3, x4} via ON order 16; coefficients: 16 (0 zero); eliminant over 2 vars (4 entries, digest a93755f8)
  stage 2: eliminate {x5, x6} via ON order 4; coefficients: 4 (0 zero); eliminant over 0 vars (1 entries, digest bf8b4530)
  final constant: 1 -> INCONSISTENT
""",
    "rand8_sat.cnf": """\
CONSISTENT
model: x1=0 x2=1 x3=1 x4=0 x5=1 x6=1 x7=1 x8=0
elimination trace: n=8, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3, x4} via ON order 16; coefficients: 16 (0 zero); eliminant over 4 vars (16 entries, digest a7c9aea5)
  stage 2: eliminate {x5, x6, x7, x8} via ON order 16; coefficients: 16 (3 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "single.cnf": """\
CONSISTENT
model: x1=1 x2=1 x3=1
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3} via ON order 8; coefficients: 8 (7 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "triangle.cnf": """\
CONSISTENT
model: x1=1 x2=0 x3=1 x4=0
elimination trace: n=4, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3, x4} via ON order 16; coefficients: 16 (2 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""",
    "unsat1.cnf": """\
INCONSISTENT
elimination trace: n=1, algebra=2^1, policy=minterm
  stage 1: eliminate {x1} via ON order 2; coefficients: 2 (0 zero); eliminant over 0 vars (1 entries, digest bf8b4530)
  final constant: 1 -> INCONSISTENT
""",
}


def test_solve_worked_example(capsys):
    for (name, *flags), model in GOLDEN_MODELS:
        code, out, _ = run(capsys, "solve", str(INSTANCES / name), *flags)
        assert code == 0
        assert out.splitlines() == ["CONSISTENT", model], (name, flags)


def _exit_code(out):
    return 1 if out.startswith("INCONSISTENT") else 0


def test_solve_trace_flag(capsys):
    assert sorted(GOLDEN_TRACES) == sorted(
        p.name for p in INSTANCES.iterdir() if p.suffix in (".txt", ".cnf"))
    for name, expected in GOLDEN_TRACES.items():
        code, out, _ = run(capsys, "solve", str(INSTANCES / name), "--trace")
        assert (code, out) == (_exit_code(expected), expected), name


# SHA-256 over (file name, flags, exit code, stdout, stderr) of `solve --trace`
# on every problem file in instances/, under both policies and at block sizes
# 1, 2, 3, 4 and 16.  Any change to a verdict, model, trace line or error
# message changes it; such a change must be stated in the README and
# CHANGES.md along with the new digest.
TRACE_GRID_DIGEST = "eb6de4133c6ae56e886d03186224213c926a4cf8e9a73461c1334bd5c769aa8b"


def test_solve_trace_grid_digest(capsys):
    digest = hashlib.sha256()
    for path in sorted(p for p in INSTANCES.iterdir() if p.suffix in (".txt", ".cnf")):
        for policy in ("minterm", "ladder"):
            for size in ("1", "2", "3", "4", "16"):
                flags = ("--trace", "--phi-policy", policy, "--block-size", size)
                code, out, err = run(capsys, "solve", str(path), *flags)
                err = err.replace(str(INSTANCES), "instances")
                digest.update(repr((path.name, flags, code, out, err)).encode())
    assert digest.hexdigest() == TRACE_GRID_DIGEST


def _multi_slab_files():
    """(name, text) of seeded threshold 3-CNF at 21 to 24 variables, two
    at each n, a problem file over four atoms at 21 variables, and the
    ladder-class clauses at 24 variables."""
    rng = random.Random("multi-slab")
    files = []
    for n in range(21, 25):
        for copy in range(2):
            clauses = random_cnf(n, round(4.26 * n), rng)
            body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
            files.append((f"cnf-{n}-{copy}.cnf", f"p cnf {n} {len(clauses)}\n{body}"))
    terms = []
    for _ in range(60):
        lits = rng.sample(range(1, 22), 3)
        terms.append(f"a{rng.randrange(2)}" + "".join(
            f"x{v}" + "'" * rng.getrandbits(1) for v in lits))
    files.append(("general-21.txt", f"algebra 2\nvars 21\nequation {' + '.join(terms)}\n"))
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in LADDER_CLAUSES)
    files.append(("ladder24.cnf", f"p cnf 24 {len(LADDER_CLAUSES)}\n{body}"))
    return files


# SHA-256 over (file name, flags, exit code, stdout, stderr) of `solve --trace`
# on `_multi_slab_files` under both policies at block sizes 1 to 4: stage 1
# runs over 2 to 16 slabs of the block's leading variables.  Recorded before
# stage 1 wrote its slabs as a prefix tree.
MULTI_SLAB_DIGEST = "30fdfb1420f3efcfe0998514b7ecc3773fcefa397377dbbadb13b44a124f9dfa"


def test_solve_trace_multi_slab_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    for name, text in _multi_slab_files():
        path = tmp_path / name
        path.write_text(text)
        for policy in ("minterm", "ladder"):
            for size in ("1", "2", "3", "4"):
                flags = ("--trace", "--phi-policy", policy, "--block-size", size)
                code, out, err = run(capsys, "solve", str(path), *flags)
                err = err.replace(str(tmp_path), "tmp")
                digest.update(repr((name, flags, code, out, err)).encode())
    assert digest.hexdigest() == MULTI_SLAB_DIGEST


def _forbid_tables(monkeypatch):
    """Make every table build from an expression tree fail."""
    def from_expr(*args, **kwargs):
        raise AssertionError("dense table built")

    monkeypatch.setattr(BoolFunction, "from_expr", from_expr)


def test_solve_cnf_never_builds_the_table(capsys, monkeypatch, tmp_path):
    # A solve goes through eliminate_expr whatever the file's format, shape,
    # policy or n, and a model check reads the tree, so neither builds f
    # with BoolFunction.from_expr.  Each output equals the dense path's,
    # eliminate_blocks on ProblemFile.function.
    shape = tmp_path / "not_cubes.txt"
    shape.write_text("vars 3\nequation (x1 + x2)'*x3\n")
    assert run(capsys, "solve", str(shape), "--trace")[:2] == (0, """\
CONSISTENT
model: x1=1 x2=1 x3=1
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3} via ON order 8; coefficients: 8 (7 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""")
    general = tmp_path / "not_cubes_b2.txt"
    general.write_text("algebra 2\nvars 3\nequation (x1 + a0*x2)'*x3 + a1*x1'\n")
    files = [INSTANCES / name for name in sorted(GOLDEN_TRACES)] + [shape, general]

    def dense(expr, n, algebra, split, phi_policy):
        f = BoolFunction.from_expr(expr, n, algebra)
        return eliminate_blocks(f, split, phi_policy)

    expected = {}
    with monkeypatch.context() as patch:
        patch.setattr(cli, "eliminate_expr", dense)
        for path in files:
            for policy in ("minterm", "ladder"):
                expected[path, policy] = run(capsys, "solve", str(path), "--trace",
                                             "--phi-policy", policy)
    _forbid_tables(monkeypatch)
    model_file = tmp_path / "model.txt"
    for (path, policy), want in expected.items():
        got = run(capsys, "solve", str(path), "--trace", "--phi-policy", policy)
        assert got == want, (path, policy)
        if got[0] == 0:
            model_file.write_text(got[1].splitlines()[1].removeprefix("model:"))
            assert run(capsys, "solve", str(path), "--check-model",
                       str(model_file)) == (0, "model verifies: f = 0\n", ""), path
    with pytest.raises(AssertionError, match="dense table built"):
        parse_problem(shape).function


def test_solve_tautological_clause(capsys, tmp_path):
    # "1 -1 0" is always true and adds nothing, so x1 = 1 satisfies the file
    problem = tmp_path / "taut.cnf"
    problem.write_text("p cnf 1 2\n1 -1 0\n1 0\n")
    for policy in ("minterm", "ladder"):
        code, out, _ = run(capsys, "solve", str(problem), "--trace",
                           "--phi-policy", policy)
        assert (code, out) == (0, f"""\
CONSISTENT
model: x1=1
elimination trace: n=1, algebra=2^1, policy={policy}
  stage 1: eliminate {{x1}} via ON order 2; coefficients: 2 (1 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
"""), policy


def test_dimacs_var_cap_checked_at_parse(capsys, tmp_path):
    problem = tmp_path / "wide.cnf"
    problem.write_text("p cnf 30 0\n")
    message = ("30 variables exceeds the table cap of 24 "
               "(pass --var-cap 30 to allow tables of 2^30 entries)")
    with pytest.raises(ValueError) as info:
        parse_problem(problem)
    assert str(info.value) == message
    assert run(capsys, "solve", str(problem)) == (2, "", f"error: {message}\n")
    problem.write_text("p cnf 25 1\n1 0\n")
    assert run(capsys, "solve", str(problem))[0] == 2
    assert run(capsys, "--var-cap", "25", "solve", str(problem))[:2] == (
        0, "CONSISTENT\nmodel: " + " ".join(f"x{i}=1" for i in range(1, 26)) + "\n")


N_OVER = ("30 variables exceeds the table cap of 24 "
          "(pass --var-cap 30 to allow tables of 2^30 entries)")
K_OVER = "atom count 65 exceeds the limit of 64 atoms"
HUGE = 999999999999999999991
N_HUGE = (f"{HUGE} variables exceeds the table cap of 24 "
          f"(pass --var-cap {HUGE} to allow tables of 2^{HUGE} entries)")
# Every place where n or k enters: the arguments, with FILE standing for a
# file of the given text, and the message.
SIZE_LIMITS = [
    (("solve", "FILE"), "p cnf 30 1\n1 0\n", N_OVER),
    (("solve", "FILE"), "vars 30\nequation x1\n", N_OVER),
    (("solve", "FILE"), "vars 30\nequation x1 ?\n", N_OVER),
    (("solve", "FILE"),
     "vars " + " ".join(f"y{i}" for i in range(30)) + "\nequation y0\n", N_OVER),
    (("solve", "FILE"), f"vars {HUGE}\nequation x1\n", N_HUGE),
    (("check-on", "FILE"), "vars 30\nx1\nx1'\n", N_OVER),
    (("check-on", "FILE"), f"vars {HUGE}\nx1\nx1'\n", N_HUGE),
    (("expand", str(INSTANCES / "xor3.txt"), "--onset", "FILE"),
     "vars 30\nx1\nx1'\n", N_OVER),
    (("verify", "--random", "1", "--random-vars", "30"), "", N_OVER),
    (("--algebra", "65", "solve", "FILE"), "vars 1\nequation x1\n", K_OVER),
    (("--algebra", "65", "check-on", "FILE"), "2 1\nM1={0}\nM2={1}\n", K_OVER),
    (("solve", "FILE"), "algebra 65\nvars 1\nequation x1\n", K_OVER),
    (("check-on", "FILE"), "algebra 65\nvars 1\nx1\nx1'\n", K_OVER),
]


def test_size_limits_checked_where_read(capsys, monkeypatch, tmp_path):
    # Each exits 2 with one error line before any table is built, and an
    # n above the cap before any of the names x1..xn is built.
    def eliminate_expr(*args):
        raise AssertionError("stage 1 written")

    def default_var_names(n, names=cli.default_var_names):
        assert n <= cli.DEFAULT_VAR_CAP, f"{n} names built"
        return names(n)

    _forbid_tables(monkeypatch)
    monkeypatch.setattr(cli, "eliminate_expr", eliminate_expr)
    monkeypatch.setattr(cli, "default_var_names", default_var_names)
    path = tmp_path / "input.txt"
    for argv, text, message in SIZE_LIMITS:
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


# A directive given twice, in a problem file (solve) and in an
# expression-form ON-set file (check-on).
REPEATED_DIRECTIVES = [
    ("solve", "vars 2\nequation x1\nequation 1\n", 3, "equation"),
    ("solve", "algebra 2\nvars 1\nalgebra 2\nequation x1\n", 3, "algebra"),
    ("solve", "vars 1\n# x2\nvars 2\nequation x1\n", 3, "vars"),
    ("solve", "vars 2\nequation x1\nblocks x1 | x2\nblocks x1 x2\n", 4, "blocks"),
    ("solve", "vars 2\nequation x1\nonset {0,1} {2,3}\nonset {0,1,2,3}\n",
     4, "onset"),
    ("check-on", "algebra 2\nvars 1\nalgebra 2\nx1\nx1'\n", 3, "algebra"),
    ("check-on", "vars 1\nx1\nvars 1\nx1'\n", 3, "vars"),
]


def test_repeated_directive_rejected(capsys, tmp_path):
    path = tmp_path / "repeated.txt"
    for command, text, lineno, keyword in REPEATED_DIRECTIVES:
        path.write_text(text)
        assert run(capsys, command, str(path)) == (
            2, "", f"error: line {lineno}: repeated directive {keyword!r}\n"), text


# A 'vars' count is ASCII digits, and a declared name is one letter and
# digits: a sign, a name that starts with a digit and an Arabic-Indic three
# are each rejected, in a problem file and in an expression-form ON-set file.
@pytest.mark.parametrize("command, text", [
    pytest.param("solve", "vars {}\nequation 1\n", id="problem"),
    pytest.param("check-on", "vars {}\n1\n", id="onset"),
])
@pytest.mark.parametrize("names, bad", [
    pytest.param("-3", "-3", id="sign"),
    pytest.param("3x 4", "3x", id="leading-digit"),
    pytest.param("\u0663", "\u0663", id="arabic-indic-three"),
])
def test_vars_line_takes_an_ascii_count_or_letter_names(capsys, tmp_path, command,
                                                        text, names, bad):
    path = tmp_path / "vars.txt"
    path.write_text(text.format(names))
    assert run(capsys, command, str(path)) == (
        2, "", f"error: line 1: bad variable name {bad!r} (a name is one letter "
               f"followed by digits, a count is ASCII digits)\n")


# Every number field is ASCII digits after an optional sign: int() alone
# would read an Arabic-Indic digit or a "_" separator.
@pytest.mark.parametrize("command, name, text, message", [
    pytest.param("solve", "f.cnf", "p cnf ٣ 1\n١ 0\n",
                 "line 1: expected an integer, got '٣'", id="dimacs-header"),
    pytest.param("solve", "f.cnf", "p cnf 12 1\n1_1 0\n",
                 "line 2: expected an integer, got '1_1'", id="dimacs-underscore"),
    pytest.param("solve", "f.cnf", "p cnf 3 1\n2 -١ 0\n",
                 "line 2: expected an integer, got '-١'", id="dimacs-literal"),
    pytest.param("solve", "f.cnf", "p cnf 3 1_0\n1 0\n",
                 "line 1: expected an integer, got '1_0'", id="dimacs-count"),
    pytest.param("solve", "f.txt", "vars 1\nequation x1\nonset {٠} {1}\n",
                 "line 3: expected an integer, got '٠'", id="onset"),
    pytest.param("solve", "f.txt", "algebra ٢\nvars 1\nequation x1\n",
                 "line 1: expected an integer, got '٢'", id="algebra"),
    pytest.param("check-on", "s.txt", "# two\n٢ 1\nM1={0}\nM2={1}\n",
                 "line 2: expected an integer, got '٢'", id="partition-header"),
    pytest.param("check-on", "s.txt", "2 1_0\nM1={0}\nM2={1}\n",
                 "line 1: expected an integer, got '1_0'", id="partition-underscore"),
    pytest.param("check-on", "s.txt", "2 1\nM1={0}; M٢={1}\n",
                 "line 2: malformed block record 'M٢={1}'", id="block-number"),
    pytest.param("check-on", "s.txt", "2 1\nM1={0}\nM2={١}\n",
                 "line 3: malformed block record 'M2={١}'", id="block-minterm"),
])
def test_number_fields_take_ascii_digits_only(capsys, tmp_path, command, name,
                                              text, message):
    path = tmp_path / name
    path.write_text(text)
    assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


def test_number_fields_keep_a_leading_plus(capsys, tmp_path):
    # As int() reads it: "+2" is 2.
    plus, plain = tmp_path / "plus.cnf", tmp_path / "plain.cnf"
    plus.write_text("p cnf +2 1\n+1 -2 0\n")
    plain.write_text("p cnf 2 1\n1 -2 0\n")
    assert run(capsys, "solve", str(plus)) == run(capsys, "solve", str(plain))


def test_solve_unsat_cnf_exit_code(capsys):
    code, out, _ = run(capsys, "solve", str(INSTANCES / "unsat1.cnf"))
    assert code == 1
    assert out.splitlines()[0] == "INCONSISTENT"


def test_solve_empty_cnf(capsys):
    code, out, _ = run(capsys, "solve", str(INSTANCES / "empty.cnf"))
    assert code == 0
    assert out.splitlines()[0] == "CONSISTENT"
    assert out.splitlines()[1] == "model:"


def test_solve_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars 2\nequation x1 + +\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.txt"))
    assert code == 2
    bad.write_text("algebra 2\nvars 1\nequation a1² x1\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert err == ("error: bad equation: unknown variable 'a1²' "
                   "(at position 0)\n")


def _nested(levels: int) -> str:
    """x1 + x2 (x1 + x2 (…)')': a Sum, a Prod and a Not at every level."""
    text = "x1 x2"
    for _ in range(levels):
        text = f"x1 + x2 ({text})'"
    return text


@pytest.mark.parametrize("equation, message", [
    pytest.param("(" * 400 + "x1" + ")" * 400,
                 "parentheses nested deeper than 100 (at position 100)",
                 id="parentheses"),
    pytest.param("(x1+" * 300 + "x1" + ")" * 300,
                 "parentheses nested deeper than 100 (at position 400)",
                 id="sum-chain"),
    pytest.param(f"({_nested(100)})",
                 "parentheses nested deeper than 100 (at position 900)",
                 id="one-past-the-limit"),
    pytest.param("(x1+x2)" + "'" * 400,
                 "complements nested deeper than 100 (at position 107)",
                 id="complements"),
])
def test_solve_rejects_deep_nesting_before_elimination(capsys, monkeypatch,
                                                       tmp_path, equation, message):
    def eliminate_expr(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(cli, "eliminate_expr", eliminate_expr)
    problem = tmp_path / "deep.txt"
    problem.write_text(f"vars 2\nequation {equation}\n")
    assert run(capsys, "solve", str(problem)) == (
        2, "", f"error: bad equation: {message}\n")


def test_nesting_at_the_limit_solves(capsys, tmp_path):
    # 100 parentheses, each around a Sum, a Prod and a Not: every tree walk
    # after the parser fits in the recursion limit, under both policies.
    problem = tmp_path / "deep.txt"
    problem.write_text(f"vars 2\nequation {_nested(100)}\n")
    model = tmp_path / "model.txt"
    for policy in ("minterm", "ladder"):
        code, out, err = run(capsys, "solve", str(problem), "--trace",
                             "--block-size", "1", "--phi-policy", policy)
        assert (code, err) == (0, ""), err
        model.write_text(out.splitlines()[1].removeprefix("model:"))
        assert run(capsys, "solve", str(problem), "--check-model", str(model)) == (
            0, "model verifies: f = 0\n", "")
    code, out, _ = run(capsys, "verify", str(problem))
    assert code == 0 and "agree: 1/1" in out


def test_model_roundtrip(capsys, tmp_path):
    for name in ("walkthrough3.txt", "rand8_sat.cnf", "general_b3.txt",
                 "majority.txt"):
        code, out, _ = run(capsys, "solve", str(INSTANCES / name))
        assert code == 0
        model_line = [l for l in out.splitlines() if l.startswith("model:")][0]
        model_file = tmp_path / "model.txt"
        model_file.write_text(model_line.removeprefix("model:").strip() + "\n")
        code, out, _ = run(capsys, "solve", str(INSTANCES / name),
                           "--check-model", str(model_file))
        assert code == 0
        assert "model verifies" in out


def test_check_model_rejects_wrong_model(capsys, tmp_path):
    model_file = tmp_path / "model.txt"
    model_file.write_text("x=1 y=0 z=1\n")
    code, out, _ = run(capsys, "solve", str(INSTANCES / "walkthrough3.txt"),
                       "--check-model", str(model_file))
    assert code == 1
    assert "model fails" in out


def test_check_model_rejects_a_repeated_variable(capsys, tmp_path):
    # The first x=1 alone makes f = 1; a later x=0 must not override it.
    model_file = tmp_path / "model.txt"
    model_file.write_text("x=1 y=1 z=1 x=0\n")
    code, out, err = run(capsys, "solve", str(INSTANCES / "walkthrough3.txt"),
                         "--check-model", str(model_file))
    assert (code, out) == (2, "")
    assert err == "error: variable 'x' set twice in model\n"


def test_check_model_cnf_evaluates_clauses(capsys, monkeypatch, tmp_path):
    # Over {0, 1} a DIMACS model is checked against the clauses, so
    # `--check-model` builds no table; it agrees with the table everywhere.
    problem = tmp_path / "mixed.cnf"
    problem.write_text("p cnf 3 4\n1 -1 2 0\n-2 3 0\n1 2 2 0\n-1 -3 0\n")
    empty_clause = tmp_path / "empty_clause.cnf"
    empty_clause.write_text("p cnf 2 2\n1 2 0\n0\n")
    files = [INSTANCES / name for name in ("rand8_sat.cnf", "single.cnf",
                                           "contra2.cnf")]
    files += [problem, empty_clause]
    dense = {path: parse_problem(path).function for path in files}

    _forbid_tables(monkeypatch)
    for path in files:
        parsed = parse_problem(path)
        for j in range(1 << parsed.n):
            model = {i: B0.element(j >> (parsed.n - 1 - i) & 1)
                     for i in range(parsed.n)}
            assert parsed.evaluate(model) == dense[path].coeff(j), (path, j)

    code, out, _ = run(capsys, "solve", str(INSTANCES / "rand8_sat.cnf"))
    model_file = tmp_path / "model.txt"
    model_file.write_text(out.splitlines()[1].removeprefix("model:"))
    assert run(capsys, "solve", str(INSTANCES / "rand8_sat.cnf"),
               "--check-model", str(model_file)) == (
        0, "model verifies: f = 0\n", "")
    model_file.write_text("x1=0 x2=1 x3=0\n")
    assert run(capsys, "solve", str(INSTANCES / "single.cnf"),
               "--check-model", str(model_file)) == (
        1, "model fails: f = 1\n", "")


THREE_BLOCKS = "ON of order 3\n3 3\nM1={0,5,7}\nM2={1,3,6}\nM3={2,4}\n"

# Exact `check-on` output per file in instances/onsets/, with and without
# `--algebra 3`.
GOLDEN_CHECK_ON = {
    # The form is read from the first ';'-separated record.
    "leading_semicolon.txt": (0, "ON of order 2\n2 2\nM1={0,1}\nM2={2,3}\n"),
    "repeated_member.txt": (
        1, "not orthonormal: NotOrthogonalError: members 0 and 1 have a "
           "nonzero product\n"),
    "three_block_members.txt": (0, THREE_BLOCKS),
    "three_block_partition.txt": (0, THREE_BLOCKS),
}


def test_check_on_partition_and_expression_forms(capsys):
    assert sorted(p.name for p in (INSTANCES / "onsets").iterdir()) == \
        sorted(GOLDEN_CHECK_ON)
    for name, expected in GOLDEN_CHECK_ON.items():
        for flags in ((), ("--algebra", "3")):
            got = run(capsys, *flags, "check-on",
                      str(INSTANCES / "onsets" / name))[:2]
            assert got == expected, (name, flags)


def test_check_on_diagnoses_repeats(capsys, tmp_path):
    code, out, _ = run(capsys, "check-on",
                       str(INSTANCES / "onsets" / "repeated_member.txt"))
    assert code == 1
    assert "NotOrthogonal" in out
    # Two blocks cannot cover 2^40 minterms: diagnosed without building a
    # 2^40-entry table.
    huge = tmp_path / "huge.txt"
    huge.write_text("2 40\nM1={0,1}\nM2={2,3}\n")
    assert run(capsys, "check-on", str(huge))[:2] == (
        1, "not orthonormal: NotNormalError: members do not sum to the "
           "constant 1\n")


# A partition-form header field that is not an integer, with the line it is
# on; `²` is a digit to str.isdigit, so it takes the partition path too.
BAD_HEADERS = [
    ("2 x\nM1={0,1}\nM2={2,3}\n", "line 1: expected an integer, got 'x'"),
    ("² 2\nM1={0,1}\nM2={2,3}\n", "line 1: expected an integer, got '²'"),
    ("# two blocks\n\n2 2x\nM1={0,1}\nM2={2,3}\n",
     "line 3: expected an integer, got '2x'"),
    ("# one block\n\n\n1 y; M1={0,1}\n", "line 4: expected an integer, got 'y'"),
]


def test_check_on_reports_bad_header_line(capsys, tmp_path):
    onset = tmp_path / "bad.txt"
    for text, message in BAD_HEADERS:
        onset.write_text(text)
        assert run(capsys, "check-on", str(onset)) == (2, "", f"error: {message}\n"), text


# A partition-form block record that repeats a block or names one outside
# 1..m, and a record count other than m: exit code 2 and the line at fault,
# the header's line for the count.
@pytest.mark.parametrize("text, message", [
    pytest.param("2 2\nM1={0,1}\nM1={2,3}\n",
                 "line 3: repeated block record M1", id="repeated"),
    pytest.param("2 2\nM3={0,1}\nM2={2,3}\n",
                 "line 2: block number M3 outside 1..2", id="outside"),
    pytest.param("# two blocks\n2 2\nM1={0,1}\nM2={2}; M3={3}\n",
                 "line 2: expected 2 block records, got 3", id="count"),
])
def test_check_on_reports_bad_block_record_line(capsys, tmp_path, text, message):
    onset = tmp_path / "bad.txt"
    onset.write_text(text)
    assert run(capsys, "check-on", str(onset)) == (2, "", f"error: {message}\n")


def test_algebra_flag_overrides_every_file(capsys, tmp_path):
    # `--algebra K` beats the 'algebra' line of the ON-set file as well as
    # the problem's, and K = 0 counts as given.
    onset = tmp_path / "onset.txt"
    onset.write_text("vars 1\nx1\nx1'\n")
    assert run(capsys, "--algebra", "0", "check-on", str(onset))[:2] == (
        1, "not orthonormal: ZeroMemberError: member 0 is the zero function "
           "(empty block)\n")
    onset.write_text("algebra 3\nvars 1\nx1\n(a0+a1)*x1' + a2*x1'\n")
    assert run(capsys, "--algebra", "1", "check-on", str(onset)) == (
        2, "", "error: unknown atom 'a1' (algebra has 1 atoms) (at position 4)\n")
    problem = tmp_path / "problem.txt"
    problem.write_text("algebra 3\nvars 1\nequation a0*x1 + a1*x1'\n")
    onset.write_text("algebra 3\nvars 1\nx1\nx1'\n")
    assert load_on_set(onset, None).algebra.atom_count == 3
    assert load_on_set(onset, 2).algebra.atom_count == 2
    assert run(capsys, "--algebra", "2", "expand", str(problem),
               "--onset", str(onset))[:2] == (
        0, "in constant class: yes\n"
           "phi_1 {1}: interval [a0, a0] constant=a0\n"
           "phi_2 {0}: interval [a1, a1] constant=a1\n")


def test_expand_lists_intervals(capsys):
    expected = ("in constant class: yes\n"
                "phi_1 {0,2}: interval [1, 1] constant=1\n"
                "phi_2 {1,3}: interval [0, 0] constant=0\n")
    for policy in ("low", "high"):
        got = run(capsys, "expand", str(INSTANCES / "onset_embedded.txt"),
                  "--policy", policy)[:2]
        assert got == (0, expected), policy


def test_expand_outside_class_prints_functions(capsys, tmp_path):
    problem = tmp_path / "p.txt"
    problem.write_text(
        "vars 2\nequation x1*x2 + x1'*x2'\nonset {2,3} {0,1}\n")
    code, out, _ = run(capsys, "expand", str(problem))
    assert code == 0
    assert out == ("in constant class: no\n"
                   "phi_1 {2,3}: interval [1, 0] coefficient=x1*x2\n"
                   "phi_2 {0,1}: interval [1, 0] coefficient=x1'*x2'\n")


def test_verify_bundled_instances(capsys):
    files = sorted(str(p) for p in INSTANCES.glob("*.txt"))
    files += sorted(str(p) for p in INSTANCES.glob("*.cnf"))
    assert len(files) == 21
    code, out, _ = run(capsys, "verify", *files)
    assert code == 0
    assert out.splitlines()[-1] == "agree: 21/21"


def test_verify_skips_outside_class(capsys):
    files = [str(INSTANCES / name) for name in ("xnor_pair.txt", "zero.txt")]
    code, out, _ = run(capsys, "verify", *files, "--phi-policy", "ladder")
    assert code == 0
    assert out.splitlines() == [
        f"{files[0]}: solver=OUTSIDE-CLASS oracle=CONSISTENT skipped",
        f"{files[1]}: solver=CONSISTENT oracle=CONSISTENT agree",
        "agree: 1/1 (1 skipped: outside the class)",
    ]


def test_main_reports_out_of_memory(capsys, monkeypatch):
    def parse_problem(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "parse_problem", parse_problem)
    code, out, err = run(capsys, "solve", "any.txt")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 8.00 TiB\n"

    # A MemoryError without text gets no colon after "out of memory".
    def eliminate_expr(*args):
        raise MemoryError()

    monkeypatch.undo()
    monkeypatch.setattr(cli, "eliminate_expr", eliminate_expr)
    assert run(capsys, "solve", str(INSTANCES / "xor3.txt")) == (
        2, "", "error: out of memory\n")


def test_cached_argument_parser_keeps_no_state(capsys, tmp_path):
    # main reuses one parser per process.  Each call, made after calls with
    # other options, answers as it does with a parser built for it alone.
    model = tmp_path / "model.txt"
    model.write_text("x=0 y=1 z=1\n")
    walkthrough = str(INSTANCES / "walkthrough3.txt")
    onset = tmp_path / "onset.txt"
    onset.write_text("algebra 2\nvars 1\nequation a0'*x1\nonset {0} {1}\n")
    onset = str(onset)
    calls = [
        ["solve", "--trace", walkthrough], ["solve", walkthrough],
        ["--algebra", "3", "expand", onset], ["expand", onset],
        ["verify", str(INSTANCES / "general_b3.txt"), str(INSTANCES / "chain5.txt"),
         "--random", "2", "--block-size", "2"],
        ["verify", str(INSTANCES / "rand8_sat.cnf")],
        ["solve", walkthrough, "--check-model", str(model)], ["solve", walkthrough],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli.build_parser.cache_info().misses == 1
    assert fresh[2] != fresh[3]  # --algebra 3 changed the answer


def test_verify_random_mode_is_seeded(capsys):
    code, first, _ = run(capsys, "verify", "--random", "4", "--seed", "5")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--random", "4", "--seed", "5")
    assert first == second
    assert first.splitlines()[-1] == "agree: 4/4"


def test_solve_block_size_flag(capsys):
    for size in ("1", "2", "5"):
        code, out, _ = run(capsys, "solve", str(INSTANCES / "chain5.txt"),
                           "--block-size", size)
        assert code == 0
        assert out.splitlines()[0] == "CONSISTENT"


def test_solve_ladder_policy(capsys):
    # constants stay in every block class; the ladder route must agree
    code, out, _ = run(capsys, "solve", str(INSTANCES / "zero.txt"),
                       "--phi-policy", "ladder")
    assert code == 0 and out.splitlines()[0] == "CONSISTENT"
    code, out, _ = run(capsys, "solve", str(INSTANCES / "one.txt"),
                       "--phi-policy", "ladder")
    assert code == 1 and out.splitlines()[0] == "INCONSISTENT"
    # a generic instance falls outside the ladder class: clean error
    code, _, err = run(capsys, "solve", str(INSTANCES / "xnor_pair.txt"),
                       "--phi-policy", "ladder")
    assert code == 2 and "error:" in err


def test_parse_dimacs():
    n, clauses = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
    assert n == 3 and clauses == [[1, -2], [3]]
    with pytest.raises(ProblemFormatError):
        parse_dimacs("1 -2 0\n")
    with pytest.raises(ProblemFormatError):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(ProblemFormatError,
                       match="line 2: expected an integer, got 'x'"):
        parse_dimacs("c comment\np cnf x 1\n1 0\n")
    with pytest.raises(ProblemFormatError,
                       match="line 2: expected an integer, got 'x'"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


def test_parse_dimacs_reads_clauses_across_lines_and_checks_literals_last():
    n, clauses = parse_dimacs("p cnf 3 3\n1 0 -2 3 0 2\n-1 0\n")
    assert n == 3 and clauses == [[1], [-2, 3], [2, -1]]
    # The range check runs once every token is read and the header is
    # known, and it names the first literal outside 1..n in file order.
    for text, message in [
        ("p cnf 2 2\n1 -3 0\n2 0\n", "literal -3 outside 1..2"),
        ("1 2 0\n-4 5 0\np cnf 3 2\n", "literal -4 outside 1..3"),
        ("p cnf 2 2\n3 0\n1 y 0\n", "line 3: expected an integer, got 'y'"),
        ("1 9 0\n", "missing DIMACS problem line"),
        ("p cnf 3 abc\n1 0\n", "line 1: expected an integer, got 'abc'"),
        ("c x\np cnf 3 -4\n1 0\n", "line 2: negative clause count"),
        ("p cnf 2 1\n1 0\np cnf 1 1\n", "line 3: repeated DIMACS problem line"),
    ]:
        with pytest.raises(ProblemFormatError) as err:
            parse_dimacs(text)
        assert str(err.value) == message, text




@pytest.mark.parametrize("text, message", [
    ("p cnf 2 3\n1 0\n", "line 1: header declares 3 clauses, read 1"),
    ("c\np cnf 2 1\n1 0\n-2 0\n", "line 2: header declares 1 clauses, read 2"),
    # An empty clause, a tautology and a last clause without its 0 count.
    ("p cnf 2 2\n0\n1 -1 0\n2\n", "line 1: header declares 2 clauses, read 3"),
    ("1 0\n2\np cnf 2 0\n", "line 3: header declares 0 clauses, read 2"),
    # The other checks come first.
    ("p cnf 2 5\n3 0\n", "literal 3 outside 1..2"),
    ("p cnf 2 5\n1 x 0\n", "line 2: expected an integer, got 'x'"),
    ("1 0\n", "missing DIMACS problem line"),
])
def test_dimacs_clause_count_checked(capsys, tmp_path, text, message):
    problem = tmp_path / "count.cnf"
    problem.write_text(text)
    with pytest.raises(ProblemFormatError) as err:
        parse_dimacs(text)
    assert str(err.value) == message
    assert run(capsys, "solve", str(problem)) == (2, "", f"error: {message}\n")


def test_dimacs_clause_count_agrees():
    # Every clause read counts: the empty clause, the tautology and the last
    # clause without its 0.
    assert parse_dimacs("p cnf 2 4\n0\n1 -1 0\n1 0 2\n") == (2, [[], [1, -1], [1], [2]])
    assert parse_dimacs("c\np cnf 0 0\n") == (0, [])

def messy_dimacs(rng):
    """A DIMACS text as files come: comment and "%" lines, clauses across
    lines and several on one line, leading blanks and CRLF endings, the
    header before, among or after the clauses, empty clauses, repeated
    literals, tautologies and a last clause without its 0.  The header's
    clause count is always the number of clauses in the text.  Now and then
    one fault: a bad token, an ASCII-less digit, a "_", a literal outside
    1..n, a "-0" for a 0, or a bad, repeated or missing header."""
    n = rng.randint(0, 8)
    clauses = [[rng.choice((v, -v)) for v in rng.choices(range(1, n + 1), k=width)]
               for width in (rng.choice((0, 1, 2, 3, 3, 4)) if n else 0
                             for _ in range(rng.randint(0, 12)))]
    tokens = [str(lit) for clause in clauses for lit in (*clause, 0)]
    if clauses and clauses[-1] and rng.random() < 0.2:
        tokens.pop()
    fault = rng.choice(["none"] * 6 + ["token", "digit", "underscore", "range",
                                       "minus-zero", "header", "repeat", "missing"])
    if tokens and fault in ("token", "digit", "underscore", "range", "minus-zero"):
        i = rng.randrange(len(tokens))
        if fault == "minus-zero":
            i = max((j for j, tok in enumerate(tokens) if tok == "0"), default=i)
        tokens[i] = {"token": "x", "digit": "\u0663", "underscore": "1_0",
                     "range": str(rng.choice((n + 1, -n - 1, 10 ** 20))),
                     "minus-zero": "-0" if tokens[i] == "0" else tokens[i]}[fault]
    lines, line = [], []
    for tok in tokens:
        line.append(tok)
        if rng.random() < 0.3:
            lines.append(" " * rng.randint(0, 2) + rng.choice((" ", "  ", "\t")).join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    for _ in range(rng.randint(0, 3)):
        comment = rng.choice(("c", "c comment", "%", "c x_1 \u0663", "  c indented", ""))
        lines.insert(rng.randint(0, len(lines)), comment)
    header = f"p cnf {n} {len(clauses)}"
    if fault == "header":
        header = rng.choice((f"p cnf {n}", f"p cnf x {len(clauses)}", f"p dnf {n} 1",
                             f"p cnf {n} -1"))
    if fault != "missing":
        at = rng.choice((0, 0, 0, rng.randint(0, len(lines)), len(lines)))
        lines.insert(at, header)
        if fault == "repeat":
            lines.insert(rng.randint(0, len(lines)), header)
    return rng.choice(("\n", "\n", "\r\n")).join(lines) + rng.choice(("\n", ""))


# Recorded before the one-pass DIMACS reader: the clauses, the table and the
# `solve --trace` run of each seeded messy file, or its error.
DIMACS_DIGEST = "201aecdc6b2ecda25950333c85b81127f92126185442e701d6fea0139e426a93"


def test_seeded_dimacs_files_read_as_recorded(capsys, tmp_path):
    rng = random.Random("dimacs")
    digest = hashlib.sha256()
    path = tmp_path / "messy.cnf"
    for _ in range(600):
        text = messy_dimacs(rng)
        path.write_bytes(text.encode())
        try:
            outcome = repr(parse_dimacs(text)).encode()
            outcome += parse_problem(path).function.table.tobytes()
        except (ProblemFormatError, ValueError) as exc:
            outcome = str(exc).encode()
        outcome += repr(run(capsys, "solve", str(path), "--trace")).encode()
        digest.update(text.encode() + b"\0" + outcome + b"\n")
    assert digest.hexdigest() == DIMACS_DIGEST

def test_cnf_function_semantics():
    # f = 0 exactly on assignments satisfying the clause set; a clause with
    # a variable in both polarities is always satisfied
    from helpers import clauses_satisfied

    for clauses in ([[1, -2], [2, 3]], [[1, -2], [3, -3, 1], [-1, 2, -1]]):
        f = cnf_function(3, clauses, B0)
        for j in range(8):
            bits = [(j >> (2 - i)) & 1 for i in range(3)]
            assert f.coeff(j).is_zero == clauses_satisfied(clauses, bits)


def test_problem_file_validation(tmp_path):
    missing_vars = tmp_path / "a.txt"
    missing_vars.write_text("equation x1\n")
    with pytest.raises(ProblemFormatError):
        parse_problem(missing_vars)
    unknown = tmp_path / "b.txt"
    unknown.write_text("vars 1\nequation x1\nbogus directive\n")
    with pytest.raises(ProblemFormatError):
        parse_problem(unknown)
    bad_blocks = tmp_path / "c.txt"
    bad_blocks.write_text("vars 2\nequation x1\nblocks x1 | q\n")
    with pytest.raises(ProblemFormatError):
        parse_problem(bad_blocks)
    bad_algebra = tmp_path / "d.txt"
    bad_algebra.write_text("vars 1\nalgebra two\nequation x1\n")
    with pytest.raises(ProblemFormatError,
                       match="line 2: expected an integer, got 'two'"):
        parse_problem(bad_algebra)
    bad_onset = tmp_path / "e.txt"
    bad_onset.write_text("vars 2\nequation x1\nonset {0,1} {2,x}\n")
    with pytest.raises(ProblemFormatError,
                       match="line 3: expected an integer, got 'x'"):
        parse_problem(bad_onset)
    onset_file = tmp_path / "f.txt"
    onset_file.write_text("# members\nalgebra two\nvars 1\nx1\nx1'\n")
    with pytest.raises(ProblemFormatError,
                       match="line 2: expected an integer, got 'two'"):
        load_on_set(onset_file, None)


def test_problem_file_evaluate_matches_table(tmp_path):
    # ProblemFile.evaluate reads the expression without a table; it must
    # agree with the table at any point of B^n, for cube sums and for other
    # shapes.
    shape = tmp_path / "not_cubes.txt"
    shape.write_text("vars 3\nequation (x1 + a0*x2)'*x3 + a1*x1'\n")
    problems = [parse_problem(path) for path in sorted(INSTANCES.glob("*.txt"))]
    problems += [parse_problem(shape, k) for k in (2, 3)]
    rng = random.Random("evaluate")
    for problem in problems:
        algebra = problem.algebra
        for _ in range(20):
            point = tuple(algebra.element(rng.getrandbits(algebra.atom_count))
                          for _ in range(problem.n))
            assert problem.evaluate(dict(enumerate(point))) == \
                problem.function.evaluate(point), (problem, point)


def test_problem_file_blocks_and_onset():
    problem = parse_problem(INSTANCES / "blocks_split.txt")
    assert problem.split == [[0, 2], [1, 3]]
    embedded = parse_problem(INSTANCES / "onset_embedded.txt")
    assert embedded.onset is not None
    assert embedded.onset.order == 2
