#!/usr/bin/env python3
"""Sharpness scan of the two-outcome qubit family at the maximally mixed
state: error(Z) should follow sqrt(1 - eta^2) while the relation holds at
every grid point.  Output lands in results/unsharp_scan.csv.  The
noisy-projective family (the projective Z measurement mixed with uniform
outcome noise) is scanned on its default grid to results/noisy_scan.csv."""

import sys
from pathlib import Path

from measerr.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


if __name__ == "__main__":
    RESULTS.mkdir(exist_ok=True)
    scans = {
        "unsharp_scan.csv": ["--family", "unsharp", "--grid", "0:1:0.05"],
        "noisy_scan.csv": ["--family", "noisy-projective"],
    }
    codes = []
    for name, flags in scans.items():
        out = RESULTS / name
        codes.append(main(["scan", *flags, "--out", str(out)]))
        print(f"scan written to {out}")
    sys.exit(max(codes))
