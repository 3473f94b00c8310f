"""End-to-end command-line behavior on the bundled instances."""

import random
from pathlib import Path

import pytest

from onsolve import cli, function
from onsolve.cli import (
    ProblemFormatError,
    cnf_function,
    load_on_set,
    main,
    parse_dimacs,
    parse_problem,
)

from helpers import B0

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


def _forbid_tables(monkeypatch):
    """Make every expression table build (the one table writer) fail."""
    def expr_table(*args, **kwargs):
        raise AssertionError("dense table built")

    monkeypatch.setattr(function, "_expr_table", expr_table)


def test_solve_cnf_never_builds_the_table(capsys, monkeypatch, tmp_path):
    # Under the minterm policy a solve of a sum of cube terms, DIMACS or
    # expression file, computes stage 1 from the terms, and so does a model
    # check; n = 0, other shapes and the ladder policy build the table.
    shape = tmp_path / "not_cubes.txt"
    shape.write_text("vars 3\nequation (x1 + x2)'*x3\n")
    assert run(capsys, "solve", str(shape), "--trace")[:2] == (0, """\
CONSISTENT
model: x1=1 x2=1 x3=1
elimination trace: n=3, algebra=2^1, policy=minterm
  stage 1: eliminate {x1, x2, x3} via ON order 8; coefficients: 8 (7 zero); eliminant over 0 vars (1 entries, digest 5ba93c9d)
  final constant: 0 -> CONSISTENT
""")
    _forbid_tables(monkeypatch)
    model_file = tmp_path / "model.txt"
    for name, expected in GOLDEN_TRACES.items():
        if name == "empty.cnf":
            continue
        code, out, _ = run(capsys, "solve", str(INSTANCES / name), "--trace")
        assert (code, out) == (_exit_code(expected), expected), name
        if code == 0:
            model_file.write_text(out.splitlines()[1].removeprefix("model:"))
            assert run(capsys, "solve", str(INSTANCES / name), "--check-model",
                       str(model_file)) == (0, "model verifies: f = 0\n", ""), name
    with pytest.raises(AssertionError, match="dense table built"):
        main(["solve", str(INSTANCES / "empty.cnf")])
    with pytest.raises(AssertionError, match="dense table built"):
        main(["solve", str(shape)])


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
               "(pass var_cap=30 to allow tables of 2^30 entries)")
    with pytest.raises(ValueError) as info:
        parse_problem(problem)
    assert str(info.value) == message
    assert run(capsys, "solve", str(problem)) == (2, "", f"error: {message}\n")


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
    assert len(files) == 20
    code, out, _ = run(capsys, "verify", *files)
    assert code == 0
    assert out.splitlines()[-1] == "agree: 20/20"


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
