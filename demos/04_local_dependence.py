"""Local finite dependence: near any phi-unit point only finitely many
net functionals matter, and small moves cannot wake the others.

active_set certifies a margin and a safe radius; perturbations inside
that radius leave every inactive Orlicz term at exactly zero, which is
the structural reason the built norm is smooth.
"""

import numpy as np

from smoothnorm.boundary import Decomposition
from smoothnorm.renorm import (active_set, build_renorm, phi_norm_batch,
                               phi_unit_pool, pi_coords_batch)
from smoothnorm.spaces import sup_space


def main():
    X = sup_space(5)
    eye = np.eye(5)
    d = Decomposition(X, [np.vstack([eye, -eye])], 0.1)
    spec = build_renorm(X, d, None, seed=0)
    print(f"sup_finite(5), single piece, net size {len(spec.net)}")

    pool = phi_unit_pool(spec, 6, seed=404)
    rng = np.random.default_rng(405)

    for k in range(len(pool.norms)):
        u = pool.samples[k] / pool.norms[k]
        act = active_set(spec, u)
        outside = sorted(set(range(len(spec.net))) - set(act.indices))
        print()
        print(f"point {k}: active {[int(i) for i in act.indices]}, "
              f"margin {act.margin:.6f}, radius {act.radius:.6f}")

        moves = rng.standard_normal((20, 5))
        scale = np.asarray([X.norm(w) for w in moves])
        probes = u + moves * (0.9 * act.radius / scale)[:, None]
        rhos = phi_norm_batch(spec, probes)
        coords = pi_coords_batch(spec, probes)
        worst = 0.0
        for i in outside:
            # net point i's bump is the family member of its run
            run = np.searchsorted(spec.runs.start, i, side="right") - 1
            values = spec.family.functions[run](coords[:, i] / rhos)
            worst = max(worst, float(np.max(np.abs(values))))
        print(f"  20 perturbations at 0.9 * radius: "
              f"max inactive phi-term {worst} (exact zero expected)")


if __name__ == "__main__":
    main()
