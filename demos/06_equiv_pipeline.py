"""End to end on a Lorentz predual: level sets, the assembled boundary
norm, and the full verification pipeline.

support_ball(space, n) lists the dual extreme points of support at
most n, compute_bn and compute_cn measure the same quantity from two
sides, a RelativeBoundaryChain holds each level's new functionals and
measures its own b_n, build_F rescales the levels into an equivalent
boundary-sup space, and corollary_b_pipeline chains everything
into the smooth renorm checks.
"""

import numpy as np

from smoothnorm.equiv import (RelativeBoundaryChain, build_F, compute_cn,
                              corollary_b_pipeline, support_ball)
from smoothnorm.spaces import lorentz_predual_space


def main():
    weights = [1.0, 0.5, 0.25, 0.125]
    space = lorentz_predual_space(weights)
    rng = np.random.default_rng(606)
    S = rng.standard_normal((60, 4))
    S /= np.asarray([space.norm(y) for y in S])[:, None]

    print(f"lorentz predual, weights {weights}")
    levels = tuple(range(1, 5))
    increments = []
    for n in levels:
        # support_ball(space, n - 1) is the first rows of this slice
        ball = support_ball(space, n)
        increments.append(ball[sum(map(len, increments)):])
        cn = compute_cn(space, S, n, identity_tol=1e-9)
        print(f"  level {n}: {len(ball)} functionals "
              f"(exact={space.enumerable_dual}), c_{n} = {cn:.9f}")

    chain = RelativeBoundaryChain(space=space, levels=increments,
                                  samples=S, level_ids=levels)
    bn = build_F(chain)
    print()
    print(f"build_F: a = {np.asarray(bn.a_values).round(6)}")
    print(f"  ratio range {tuple(round(v, 6) for v in bn.ratio_range)} "
          f"inside expected {tuple(round(v, 6) for v in bn.expected_range)}")
    print(f"  equivalent {bn.equivalent}, "
          f"LRC pieces passed {all(r.passed for r in bn.lrc_reports)}")

    samples = np.random.default_rng(607).standard_normal((150, 4))
    result = corollary_b_pipeline(space, samples, 0.1, seed=0)
    rep = result.report
    print()
    win = rep.window
    print(f"pipeline route {result.route!r}: passed {rep.passed}")
    print(f"  approx checked {len(win.gap) > 0}, "
          f"violations {win.violations}, "
          f"min rel gap {np.min(win.gap):.3e}")
    print(f"  margins positive {rep.margins.min_margin > 0.0}, "
          f"claim2d ok {rep.claim2d.ok} "
          f"(worst excess {rep.claim2d.worst_excess:.3e})")
    print(f"  b/c identity gap {rep.bc_gap:.3e}")
    print()
    print("same checks via the CLI: "
          "smoothnorm run configs/demo_sup3.cfg --suite all --seed 42")


if __name__ == "__main__":
    main()
