#!/usr/bin/env python3
"""Residual sweep of the Fourier identities over the standard angle grid.

Writes ``identity,k,theta,fourier_terms,residual`` CSV rows to stdout for
theta in {1/2, 1, pi/2, 2, 3}, printed in those forms, and k in 1..3,
using a million Fourier terms for k = 1 and ten thousand for k >= 2 (the
slow-decay case needs the long run; the others do not).

The sine-only identity at k = 0, which equals (1/2) tan(theta/2) only in
the Cesaro sense, is reported to stderr as an informational line with a
loose 1e-4 tolerance; it converges far too slowly for a tight assertion.

Usage: python scripts/residual_sweep.py [--fast]
"""

from __future__ import annotations

import argparse
import sys

from oddzeta.identities import residual_sweep, sweep_to_csv, tan_half_residual

THETAS = ("1/2", "1", "pi/2", "2", "3")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="downscale term counts for a quick look"
    )
    args = parser.parse_args()

    big = 100_000 if args.fast else 1_000_000
    small = 5_000 if args.fast else 10_000
    results = residual_sweep(
        ks=(1, 2, 3),
        thetas=THETAS,
        fourier_terms_for_k=lambda k: big if k == 1 else small,
        series_terms=200,  # theta = 3 sits close to pi and needs the longer ladder
        digits=30,
    )
    sys.stdout.write(sweep_to_csv(results))

    cesaro_terms = 100_000 if args.fast else 1_000_000
    residual = tan_half_residual("1", cesaro_terms, digits=15)
    ok = residual.mid * 10**4 < 1 << residual.bits  # the ball's midpoint below 1e-4
    print(
        f"informational: sine-only identity vs (1/2)tan(theta/2) at theta=1, "
        f"M={cesaro_terms}: residual={residual.to_sci(4)} "
        f"({'within' if ok else 'OUTSIDE'} loose 1e-4 tolerance)",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
