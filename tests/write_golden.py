"""Write the golden reports that ``tests/test_golden.py`` compares each run with.

Run from the repository root::

    python tests/write_golden.py

It runs the default ``verify --jobs 1`` and the default ``sweep`` in
subprocesses with OpenMP and OpenBLAS threads pinned to one, and writes
under ``tests/golden/`` each run's ``--out`` report (``verify.jsonl`` is
its ``report.jsonl``, ``sweep.jsonl`` its ``sweep.jsonl``) and both exit
codes (``exit_codes.json``).  Regenerating a golden file changes a check's
data: CHANGES.md names each moved row with its old and new values, and why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# run name -> (command line, the report file it writes under --out)
RUNS = {
    "verify": (["verify", "--jobs", "1"], "report.jsonl"),
    "sweep": (["sweep"], "sweep.jsonl"),
}


def run(name: str, out: Path) -> tuple[int, str]:
    """The exit code and the report text of run ``name``, which writes its
    report files under the directory ``out``; BLAS threads pinned to one."""
    argv, report = RUNS[name]
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "hitchinlab", *argv, "--out", str(out)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if not (out / report).exists():
        raise RuntimeError(f"{name} exited {proc.returncode} and wrote no report:\n{proc.stderr}")
    return proc.returncode, (out / report).read_text()


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out:
            codes[name], text = run(name, Path(out))
        (GOLDEN / f"{name}.jsonl").write_text(text)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    main()
