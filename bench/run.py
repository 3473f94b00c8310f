"""Benchmark of `onsolve solve`: end-to-end latency and per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload cnf-build --seed 0 --seconds 25 --trace 0

Workloads (see `workloads.py` for the exact instance schedules):

* `cnf-build`: random 3-CNF at the threshold, n = 20..24, block size 4.
  Building the dense table is nearly all of a solve.
* `wide-block`: planted and over-constrained 3-CNF, n = 16..20, blocks of
  12..16 variables.  Elimination, back-substitution and trace rendering are
  nearly all of a solve; the table build is a few percent.
* `general-algebra`: problem files over 4, 8 and 16 atoms, n = 10..14,
  blocks of 4..14 variables.  Tables come from the expression path and
  back-substitution takes the general branch, which is most of the time.

Each run generates the workload's instances from the seed and writes them
under `.bench_build/`; the program sees only these files.  Before timing, it
solves every problem file in `instances/` through `onsolve.cli.main` and
aborts unless each verdict matches `onsolve.oracle.brute_consistency` and
each model evaluates to 0.

`--trace 0` then starts the workload in fresh processes (`worker.py`): a few
that only import onsolve and load the files, to time set-up, and one
closed-loop client that solves the instance set round after round for
`--seconds`.  It reports

* `solve_s.p50`, `solve_s.tail`: median wall time of one `cli.main` solve,
  and the highest percentile with at least ten samples beyond it (the
  percentile and sample count are printed above the result line);
* `solves_per_s`: solves completed over the wall time of the loop;
* `peak_rss_mb`: peak resident memory of the client process;
* `setup_s`: median time from process start to ready-to-solve, which covers
  importing onsolve and loading the files but not generating them.

Every solve must repeat its instance's first answer byte for byte, and that
answer is checked: the exit code and verdict against a reference computed
without elimination (an AND over the generator's own table of f), the model
with `BoolFunction.evaluate` on that table and, for CNF, against the clauses,
and the output digest against `digests.json` when it holds one for the seed.
Every solve of an instance with a wrong first answer fails; failures are
reported as `failed` out of `attempted`, and any failure makes `correct`
false.

`--trace 1` starts one client that alternates untraced and traced rounds for
`--seconds` and reports per-layer metrics.  Times are seconds per round
(one pass over the instance set), each also as a share of the traced solve
time; counts and computed byte sizes are those of one round and repeat
exactly for a seed.  The spans are written to `.bench_build/.../spans.json`.

`--record-digests` verifies the seed's instances and stores their answer
digests in `digests.json` instead of timing anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK = Path(".bench_build") / "onsolve-bench"
SETUP_PROBES = 5
TAIL_BEYOND = 10
WORKER_GRACE_S = 120


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Answer checks


def model_ok(inst: workloads.Instance, line: str) -> bool:
    """The printed model zeroes f: `BoolFunction.evaluate` on the generator's
    own table gives 0 and, for CNF, every clause has a true literal."""
    from onsolve.algebra import Algebra
    from onsolve.function import BoolFunction
    from onsolve.parsing import parse_element

    algebra = Algebra(inst.atoms)
    tokens = line.removeprefix("model:").split()
    names = [f"x{i + 1}" for i in range(inst.n)]
    if [t.partition("=")[0] for t in tokens] != names:
        return False
    try:
        point = [parse_element(t.partition("=")[2], algebra) for t in tokens]
    except ValueError:
        return False
    ok = BoolFunction(algebra, inst.n, inst.table).evaluate(point).is_zero
    for clause in inst.clauses:
        ok = ok and any((lit > 0) == point[abs(lit) - 1].is_one for lit in clause)
    return ok


def answer_ok(inst: workloads.Instance, answer: list | None,
              stored: str | None) -> bool:
    """Check one instance's answer (exit code and output) against the
    reference verdict, its model against f, and its digest when stored."""
    if answer is None:
        print(f"bench: {inst.name}: solve raised", file=sys.stderr)
        return False
    rc, out = answer
    lines = out.splitlines()
    ok = rc == (0 if inst.consistent else 1) and lines[:1] == [
        "CONSISTENT" if inst.consistent else "INCONSISTENT"]
    if inst.consistent:
        ok = ok and len(lines) == 2 and model_ok(inst, lines[1])
    else:
        ok = ok and len(lines) == 1
    if stored is not None and stored != digest(out):
        print(f"bench: {inst.name}: answer digest changed", file=sys.stderr)
        ok = False
    if not ok:
        print(f"bench: {inst.name}: wrong answer (exit {rc}): {out!r}",
              file=sys.stderr)
    return ok


def smoke_test() -> list[str]:
    """Solve every problem file in instances/ through the CLI; the names of
    those whose verdict or model disagrees with the brute-force oracle."""
    from onsolve import cli
    from onsolve.oracle import brute_consistency
    from worker import cli_solve

    bad = []
    for path in sorted(Path("instances").iterdir()):
        if not path.is_file():
            continue  # instances/onsets holds ON sets, not problems
        rc, out = cli_solve(str(path), 4)
        problem = cli.parse_problem(path)
        consistent = brute_consistency(problem.function).consistent
        lines = out.splitlines()
        ok = rc == (0 if consistent else 1) and len(lines) == 1 + consistent
        if ok and consistent:
            model = cli.parse_model(lines[1].removeprefix("model:"), problem)
            point = tuple(model[i] for i in range(problem.n))
            ok = problem.function.evaluate(point).is_zero
        if not ok:
            bad.append(path.name)
    return bad


# ---------------------------------------------------------------------------
# Fresh-process runs


def launch(manifest: Path, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Start worker.py; returns the time from start to its `ready` line and
    its JSON result (None in setup mode)."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), mode, str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=2 * seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return setup_s, json.loads(rest.splitlines()[-1]) if mode != "setup" else None


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise RuntimeError(f"only {len(ordered)} samples, too few for a tail")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(manifest: Path, seconds: float) -> dict:
    setups = [launch(manifest, "setup", seconds)[0] for _ in range(SETUP_PROBES)]
    setup_s, result = launch(manifest, "timed", seconds)
    setups.append(setup_s)
    samples = result["samples"]
    tail_s, pct = tail(samples)
    print(f"solve_s.tail is p{pct:.2f} of {len(samples)} samples"
          f" ({result['rounds']} rounds); setup_s is the median of"
          f" {sorted(round(s, 4) for s in setups)}")
    result["metrics"] = {
        "solve_s.p50": (statistics.median(samples), "s"),
        "solve_s.tail": (tail_s, "s"),
        "solves_per_s": (len(samples) / result["wall_s"], "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return result


# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int) -> tuple[Path, list[workloads.Instance]]:
    """Generate the instances and write them and the manifest."""
    workdir = WORK / f"{workload}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    instances = workloads.generate(workload, seed)
    entries = []
    for inst in instances:
        path = workdir / inst.filename
        path.write_text(inst.text)
        entries.append({"name": inst.name, "path": str(path), "kind": inst.kind,
                        "block_size": inst.block_size})
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({"instances": entries}, indent=1))
    return manifest, instances


def record_digests(workload: str, seed: int, manifest: Path,
                   instances: list[workloads.Instance]) -> int:
    from worker import cli_solve

    entries = json.loads(manifest.read_text())["instances"]
    answers = [cli_solve(e["path"], e["block_size"]) for e in entries]
    if not all(answer_ok(inst, a, None) for inst, a in zip(instances, answers)):
        return fail("wrong answers; digests not recorded")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = {
        inst.name: digest(out) for inst, (_, out) in zip(instances, answers)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(instances)} digests for {workload} seed {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not Path("src/onsolve/__init__.py").is_file() or not Path("instances").is_dir():
        return fail("run from the repository root (src/onsolve and instances/ not found)")
    sys.path.insert(0, str(Path("src").resolve()))

    manifest, instances = prepare(args.workload, args.seed)
    if args.record_digests:
        return record_digests(args.workload, args.seed, manifest, instances)
    bad = smoke_test()
    if bad:
        return fail(f"verdicts disagree with the oracle on instances/: {', '.join(bad)}")

    if args.trace:
        _, result = launch(manifest, "traced", args.seconds)
        print(f"traced {result['rounds']} rounds;"
              f" spans in {manifest.with_name('spans.json')}")
    else:
        result = end_to_end(manifest, args.seconds)

    # Every solve of an instance whose first answer is wrong fails too.
    stored = json.loads(DIGESTS.read_text()).get(args.workload, {}) \
        .get(str(args.seed), {}) if DIGESTS.is_file() else {}
    per_instance = result["attempted"] // len(instances)
    failed = 0
    for inst, first, mismatches in zip(instances, result["first"],
                                       result["mismatches"]):
        ok = answer_ok(inst, first, stored.get(inst.name))
        failed += mismatches if ok else per_instance
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
