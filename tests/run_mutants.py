"""Check that the tests kill each hand-written source mutant in mutants.json.

    python tests/run_mutants.py [NAME ...]

Each mutant names a file under src/, an exact text that occurs in it once,
the text's replacement, and the test files that must fail.  The runner
first requires those test files to pass on an unmutated copy of src/.  Then
it applies each mutant to a fresh copy and runs its tests with PYTHONPATH
pointing at the copy; pytest must report a failure (exit code 1).  It exits
with 1 when a mutant survives, its text is not found once, or its run ends
any other way.  The file name keeps pytest from collecting this script.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pytest(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    mutants = [m for m in mutants if not names or m["name"] in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in mutants for t in m["tests"]})
        if pytest(src, tests):
            print(f"the tests fail without a mutant: {' '.join(tests)}")
            return 1
        for m in mutants:
            path = src / m["file"]
            original = path.read_text(encoding="utf-8")
            if original.count(m["text"]) != 1:
                verdict = f"STALE (text found {original.count(m['text'])} times)"
            else:
                path.write_text(original.replace(m["text"], m["replacement"]), encoding="utf-8")
                code = pytest(src, m["tests"])
                path.write_text(original, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            bad += verdict != "killed"
            print(f"{verdict:8} {m['name']} ({m['file']})", flush=True)
    print(f"{len(mutants) - bad}/{len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
