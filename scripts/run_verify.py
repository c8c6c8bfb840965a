#!/usr/bin/env python3
"""Full verification sweep: every property suite at dims 2..5.

Writes the JSON manifest to results/verify.json and exits nonzero if any
check fails.  Takes about 2 s of wall time (1.5-1.7 s on 2 vCPUs).

It also writes results/verify_failing.json from a run that must fail: the
sign-flip self-test at a 1e-16 slack, so that its failure counts, worst
residuals and messages are pinned too.  The script exits 1 if that run
exits anything but 1.
"""

import sys
from pathlib import Path

from measerr.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


if __name__ == "__main__":
    RESULTS.mkdir(exist_ok=True)
    code = main([
        "verify",
        "--dims", "2,3,4,5",
        "--n", "1000",
        "--seed", "20240811",
        "--json", str(RESULTS / "verify.json"),
    ])
    print(f"manifest written to {RESULTS / 'verify.json'}")
    failing = main([
        "verify",
        "--dims", "2,3",
        "--n", "40",
        "--seed", "20240811",
        "--tolerance", "1e-16",
        "--self-test-sign-flip",
        "--json", str(RESULTS / "verify_failing.json"),
    ])
    print(f"failing manifest written to {RESULTS / 'verify_failing.json'}")
    if failing != 1:
        print(f"the failing run exited {failing}, where it must exit 1", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)
