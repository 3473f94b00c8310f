"""The part of the benchmark that runs in a fresh process per workload.

    PYTHONPATH=src python3 bench/worker.py MANIFEST MODE SECONDS

MODE is `setup`, `timed` or `traced`; `bench/run.py` writes the manifest,
starts this script and checks the answers it reports.  The script imports
onsolve, reads the workload's files, prints `ready` (the parent times process
start to this line as set-up), and in the two measuring modes prints one JSON
line of results.

`timed` is one closed-loop client: it solves the whole instance set through
`onsolve.cli.main(["solve", FILE, "--block-size", B])`, round after round,
until SECONDS have passed, and records the wall time of every call.  Each
instance's first answer (exit code and output) is reported for checking; a
later solve that raises or answers differently counts as a mismatch.

`traced` alternates, instance by instance, an untraced solve with a traced
one.  The traced solve runs the steps of `onsolve solve` through each
module's public functions, with a span around each call, and the per-layer
times and counts are derived from the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from onsolve import cli
from onsolve.algebra import Algebra
from onsolve.function import BoolFunction
from onsolve.oracle import brute_consistency
from onsolve.orthonormal import minterm_set
from onsolve.parsing import parse_expr
from onsolve.solver import (
    EliminationTrace,
    consecutive_split,
    eliminate_blocks,
    extract_solution,
    render_trace,
)

# Spans inside the traced `solve` span: the steps `onsolve solve` runs.
SOLVE_LAYERS = ("cli.parse", "function.build", "solver.eliminate",
                "solver.backsub", "solver.render")
# Spans outside it: `minterm_set` called on its own for each stage width, and
# the model check, which `onsolve solve` does not run.
SIDE_LAYERS = ("orthonormal.onset", "function.evaluate")
COUNTS = ("solver.stages", "solver.coefficients", "solver.zero_coefficients",
          "solver.eliminant_support", "solver.consistent",
          "solver.backsub_evals")
COMPUTED_BYTES = ("function.table_bytes", "solver.trace_bytes")

Answer = tuple[int, str]


def cli_solve(path: str, block_size: int) -> Answer:
    """Exit code and standard output of `onsolve solve PATH --block-size B`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["solve", path, "--block-size", str(block_size)])
    return rc, out.getvalue()


class Answers:
    """First answer per instance, and how many later ones differ from it."""

    def __init__(self, count: int) -> None:
        self.first: list[Answer | None] = [None] * count
        self.mismatches = [0] * count
        self._seen = [False] * count

    def add(self, i: int, answer: Answer | None) -> None:
        if not self._seen[i]:
            self._seen[i] = True
            self.first[i] = answer
        elif answer is None or answer != self.first[i]:
            self.mismatches[i] += 1

    def report(self) -> dict:
        return {"first": self.first, "mismatches": self.mismatches}


def untraced_solve(inst: dict) -> Answer | None:
    try:
        return cli_solve(inst["path"], inst["block_size"])
    except Exception:  # a crash is a failed solve; the loop goes on
        traceback.print_exc()
        return None


def timed(instances: list[dict], seconds: float) -> dict:
    answers = Answers(len(instances))
    samples: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i, inst in enumerate(instances):
            t0 = time.perf_counter()
            answer = untraced_solve(inst)
            samples.append(time.perf_counter() - t0)
            answers.add(i, answer)
        rounds += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"samples": samples, "attempted": len(samples), "rounds": rounds,
            "wall_s": wall, "peak_rss_mb": peak_rss_mb, **answers.report()}


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory: name, start, end, parent span, instance id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        record = {"name": name, "instance": instance,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


def _read_problem(text: str) -> tuple[int, int, str]:
    """Atom count, variable count and equation of a generated problem file."""
    fields = dict(line.split(" ", 1) for line in text.splitlines() if line)
    return int(fields["algebra"]), int(fields["vars"]), fields["equation"]


def traced_solve(inst: dict, tracer: Tracer, tag: str,
                 counts: dict | None) -> Answer | None:
    """The steps of `onsolve solve`, a span around each.  Returns the answer
    `onsolve solve` would give, or None when the model does not evaluate to
    0 or the verdict disagrees with `brute_consistency`."""
    span = tracer.span
    with span("solve", tag):
        with span("cli.parse", tag):
            text = Path(inst["path"]).read_text()
            if inst["kind"] == "cnf":
                algebra = Algebra(1)
                n, clauses = cli.parse_dimacs(text)
            else:
                k, n, equation = _read_problem(text)
                algebra = Algebra(k)
                expr = parse_expr(equation, n, algebra, cli.default_var_names(n))
        with span("function.build", tag):
            if inst["kind"] == "cnf":
                f = cli.cnf_function(n, clauses, algebra)
            else:
                f = BoolFunction.from_expr(expr, n, algebra)
        with span("solver.eliminate", tag):
            trace = eliminate_blocks(f, consecutive_split(n, inst["block_size"]))
        model = None
        if trace.consistent:
            with span("solver.backsub", tag):
                model = extract_solution(trace)
        names = cli.default_var_names(n)
        with span("solver.render", tag):
            render_trace(trace, names)
        out = "CONSISTENT\n" if trace.consistent else "INCONSISTENT\n"
        if model is not None:
            out += f"model: {cli.format_model(model, names)}".rstrip() + "\n"
    with span("orthonormal.onset", tag):
        for stage in trace.stages:
            minterm_set(len(stage.block), algebra, var_cap=len(stage.block))
    ok = True
    if model is not None:
        with span("function.evaluate", tag):
            value = f.evaluate(tuple(model[i] for i in range(n)))
        ok = value.is_zero
    if algebra.atom_count == 1:
        ok = ok and brute_consistency(f).consistent == trace.consistent
    if counts is not None:
        _count(counts, f, trace)
    return (0 if trace.consistent else 1, out) if ok else None


def _count(counts: dict, f: BoolFunction, trace: EliminationTrace) -> None:
    """Work counts of one traced solve; byte sizes come from ndarray.nbytes."""
    coeffs = [c for stage in trace.stages for c in stage.coeffs]
    trace_bytes = sum(c.table.nbytes for c in coeffs)
    trace_bytes += sum(stage.eliminant.table.nbytes for stage in trace.stages)
    counts["function.table_bytes"] = max(counts["function.table_bytes"],
                                         f.table.nbytes)
    counts["solver.trace_bytes"] = max(counts["solver.trace_bytes"], trace_bytes)
    counts["solver.stages"] += len(trace.stages)
    counts["solver.coefficients"] += len(coeffs)
    counts["solver.zero_coefficients"] += sum(c.is_zero for c in coeffs)
    counts["solver.eliminant_support"] += sum(
        int(np.count_nonzero(stage.eliminant.table)) for stage in trace.stages)
    if trace.consistent:
        counts["solver.consistent"] += 1
        counts["backsub_stages"] += len(trace.stages)
        counts["solver.backsub_evals"] += len(coeffs)


def traced(instances: list[dict], seconds: float, spans_path: Path) -> dict:
    answers = Answers(len(instances))
    tracer = Tracer()
    counts = dict.fromkeys(COUNTS + COMPUTED_BYTES + ("backsub_stages",), 0)
    untraced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, inst in enumerate(instances):
            t0 = time.perf_counter()
            answers.add(i, untraced_solve(inst))
            untraced_s += time.perf_counter() - t0
            try:
                answer = traced_solve(inst, tracer, f"{inst['name']}#{rounds}",
                                      counts if rounds == 0 else None)
            except Exception:  # a crash is a failed solve; the loop goes on
                traceback.print_exc()
                answer = None
            answers.add(i, answer)
        rounds += 1

    per_layer = dict.fromkeys(SOLVE_LAYERS + SIDE_LAYERS, 0.0)
    traced_s = 0.0
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s["name"] == "solve":
            traced_s += s["end"] - s["start"]
        else:
            per_layer[s["name"]] += own
    per_round = {name: v / rounds for name, v in per_layer.items()}
    traced_s /= rounds
    untraced_s /= rounds
    per_round["cli.self"] = untraced_s - sum(per_round[n] for n in SOLVE_LAYERS)

    metrics: dict[str, tuple[float, str]] = {}
    for name, v in per_round.items():
        metrics[f"{name}_s"] = (v, "s")
        metrics[f"{name}_s.share"] = (v / traced_s, "ratio")
    metrics["bench.traced_solve_s"] = (traced_s, "s")
    metrics["bench.trace_overhead_s"] = (traced_s - untraced_s, "s")
    for name in COMPUTED_BYTES:
        metrics[name] = (counts[name], "bytes_computed")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    evals = counts["solver.backsub_evals"]
    metrics["solver.backsub_pivot_ratio"] = (
        counts["backsub_stages"] / evals if evals else 0.0, "ratio")

    spans_path.write_text(json.dumps({
        "clock": "time.perf_counter, seconds",
        "rounds": rounds,
        "note": "function.table_bytes and solver.trace_bytes are computed "
                "from ndarray.nbytes, not measured",
        "spans": tracer.spans,
    }))
    return {"rounds": rounds, "attempted": 2 * rounds * len(instances),
            "metrics": metrics, **answers.report()}


def main(argv: list[str]) -> int:
    manifest_path, mode, seconds = Path(argv[0]), argv[1], float(argv[2])
    instances = json.loads(manifest_path.read_text())["instances"]
    for inst in instances:
        Path(inst["path"]).read_text()
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if mode == "timed":
        result = timed(instances, seconds)
    else:
        result = traced(instances, seconds, manifest_path.with_name("spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
