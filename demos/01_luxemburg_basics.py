"""Luxemburg norms from Orlicz families, with the certified bracket.

Power families reproduce plain p-norms, which anchors the solver;
luxemburg_norm returns the certified upper end of the bracket that
feasible_scale_inf computes, and make_orlicz(alpha, beta) gives the
two-parameter bump used everywhere else in the package.
"""

import numpy as np

from smoothnorm.orlicz import (OrliczFamily, check_lemma1_bounds,
                               luxemburg_norm, make_orlicz)
from smoothnorm.scaling import feasible_scale_inf


def main():
    rng = np.random.default_rng(101)

    print("power family phi(s) = s^2 on 5 coordinates")
    fam = OrliczFamily([lambda s: np.asarray(s, float) ** 2] * 5)
    for _ in range(3):
        c = rng.standard_normal(5)
        lux = luxemburg_norm(fam, c)
        l2 = float(np.linalg.norm(c))
        print(f"  luxemburg {lux:.12f}  l2 {l2:.12f}  diff {abs(lux - l2):.2e}")

    print()
    print("full solver output carries the bisection bracket")
    c = rng.standard_normal(5)
    bracket = feasible_scale_inf(lambda z, _: fam.modular_rows(z), c[None])
    lo, hi = float(bracket.lo[0]), float(bracket.hi[0])
    print(f"  value {luxemburg_norm(fam, c):.12f}")
    print(f"  bracket [{lo:.12f}, {hi:.12f}]")
    print(f"  modular at value {fam.modular(np.abs(c) / hi):.12f}")
    print(f"  iterations {bracket.iterations}")

    print()
    alpha, beta = 0.5, 2.0
    print(f"make_orlicz({alpha}, {beta}): zero below alpha, reaches 1 by beta")
    fn = make_orlicz(alpha, beta)
    for s in (0.25, 0.5, 1.0, 1.5, 2.0):
        print(f"  phi({s}) = {float(fn(s)):.6f}")

    fam = OrliczFamily([fn] * 6)
    vectors = rng.standard_normal((1000, 6))
    report = check_lemma1_bounds(fam, alpha, beta, vectors)
    print()
    print(f"two-sided bound alpha*||f||_phi <= ||f||_inf <= beta*||f||_phi")
    print(f"  checked {report.checked}, violations {report.violations}")


if __name__ == "__main__":
    main()
