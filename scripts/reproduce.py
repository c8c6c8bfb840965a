#!/usr/bin/env python3
"""Re-make every file in results/ from one table, in one process.

Each row of ``TABLE`` is (file in results/, the exit code its runs must
give, its CLI runs).  A run that ends in an output flag (``--json`` or
``--out``) writes the row's file through it; the stdout of any other run
goes into the file under a ``$ measerr ...`` header line.  Exits 1 if any
run exits with another code than its row says.

    PYTHONPATH=src python -W error scripts/reproduce.py
"""

import contextlib
import io
import sys
from pathlib import Path

from measerr.cli import _DEMOS, main

RESULTS = Path(__file__).resolve().parent.parent / "results"
OUTPUT_FLAGS = ("--json", "--out")
SEED = ["--seed", "20240811"]

TABLE = (
    ("verify.json", 0, [["verify", "--dims", "2,3,4,5", "--n", "1000", *SEED, "--json"]]),
    # the sign-flip self-test at a 1e-16 slack, which must fail: it pins
    # the failure counts, worst residuals and messages
    ("verify_failing.json", 1,
     [["verify", "--dims", "2,3", "--n", "40", *SEED, "--tolerance", "1e-16", "--self-test-sign-flip", "--json"]]),
    ("chain.json", 0, [["chain", "--dims", "2,3", "--ancilla", "2", "--n", "150", *SEED, "--json"]]),
    ("demos.txt", 0, [["demo", name] for name in _DEMOS]),
    ("unsharp_scan.csv", 0, [["scan", "--family", "unsharp", "--grid", "0:1:0.05", "--out"]]),
    ("noisy_scan.csv", 0, [["scan", "--family", "noisy-projective", "--out"]]),
)


def reproduce(table=TABLE, results=RESULTS) -> int:
    results.mkdir(exist_ok=True)
    wrong = []
    for name, expected, runs in table:
        path, text = results / name, []
        for run in runs:
            if run[-1] in OUTPUT_FLAGS:
                code = main([*run, str(path)])
            else:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = main(run)
                text.append(f"$ measerr {' '.join(run)}\n{out.getvalue()}")
            if code != expected:
                wrong.append(f"measerr {' '.join(run)} exited {code}, where it must exit {expected}")
        if text:
            path.write_text("".join(text), encoding="utf-8")
        print(f"{path} written")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(reproduce())
