#!/usr/bin/env python3
"""Measure the convergence behavior of the coefficient ladder.

Prints, for each series index k:

* the normalized coefficients F_n(k) = E_n(k) / D_n(1) at increasing n,
  beside the last of them as an estimate of their limit K(k).  That limit has
  a closed form, K(k) = w_k(1) / 4 = sum_j c_j / 4 with the partial-fraction
  coefficients c_j of the moment lemma in oddzeta.coeffs: K(3) = 4/7 and
  K(4) = 17/42, which F_400(k) matches to 1e-6; and
* the term-ratio diagnostic |E_(n+1)(k)/E_n(k)| (pi/2)^2, which settles
  near 1/4.  The moment lemma proves it below 1/4 at every n, which is the
  geometric tail bound used by the summation engine.

Usage: python scripts/convergence_sweep.py [--k-max K] [--n-max N]
"""

from __future__ import annotations

import argparse

from oddzeta.coeffs import f_ratio
from oddzeta.highprec import term_ratio_sequence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--n-max", type=int, default=60)
    args = parser.parse_args()

    samples = sorted({n for n in (1, 2, 5, 10, 20, 40, args.n_max) if n <= args.n_max})
    print("# normalized coefficients F_n(k) = E_n(k)/D_n(1)")
    header = "k    " + "".join(f"n={n:<14d}" for n in samples) + "K(k) estimate"
    print(header)
    for k in range(1, args.k_max + 1):
        row = [f"{float(f_ratio(n, k)):<16.10f}" for n in samples]
        estimate = float(f_ratio(args.n_max, k))
        print(f"{k:<5d}" + "".join(row) + f"{estimate:.10f}")

    print()
    print("# term ratio |E_(n+1)(k)/E_n(k)| (pi/2)^2  (limit ~ 1/4)")
    print("k    " + "".join(f"n={n:<14d}" for n in samples))
    for k in range(1, args.k_max + 1):
        ratios = dict(term_ratio_sequence(k, args.n_max, digits=12))
        row = [f"{ratios[n].to_decimal():<16s}" for n in samples if n in ratios]
        print(f"{k:<5d}" + "".join(row))


if __name__ == "__main__":
    main()
