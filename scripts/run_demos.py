#!/usr/bin/env python3
"""The three named demos (the commutator-bound undercut, the
Kennard-Robertson reduction and the controlled-flip chain), their stdout
written to results/demos.txt in that order, each under a `$ measerr demo`
header line.  Exits 1 if any demo exits nonzero."""

import contextlib
import io
import sys
from pathlib import Path

from measerr.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"
DEMOS = ("naive-violation", "kr-reduction", "ozawa-chain")


if __name__ == "__main__":
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "demos.txt"
    text, failed = [], []
    for name in DEMOS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["demo", name])
        text.append(f"$ measerr demo {name}\n{buffer.getvalue()}")
        if code != 0:
            failed.append(f"{name} exited {code}")
    out.write_text("".join(text), encoding="utf-8")
    print(f"demo output written to {out}")
    if failed:
        print("; ".join(failed), file=sys.stderr)
        sys.exit(1)
