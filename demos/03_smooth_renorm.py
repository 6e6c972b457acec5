"""Build the smooth approximating norm and watch the ridge disappear.

The sup norm has a kink wherever two coordinates tie.  The built
phi-norm stays within a factor 1+eps of it but is smooth at the ridge:
along the line smoothness_check probes, second central differences stay
bounded as the step shrinks and Richardson extrapolation of the gradient
converges.
"""

import numpy as np

from smoothnorm.boundary import Decomposition
from smoothnorm.renorm import build_renorm, phi_norm, phi_norm_batch, \
    smoothness_check
from smoothnorm.spaces import sup_space


def main():
    X = sup_space(3)
    eye = np.eye(3)
    d = Decomposition(X, [np.vstack([eye[i], -eye[i]]) for i in range(3)],
                      0.1)
    spec = build_renorm(X, d, None, seed=0)
    print(f"built phi-norm over a net of {len(spec.net)} functionals, "
          f"eps = {spec.epsilon}")

    rng = np.random.default_rng(303)
    U = rng.standard_normal((2000, 3))
    base = np.max(np.abs(U), axis=1)
    ratio = phi_norm_batch(spec, U) / base
    print(f"ratio ||u||_phi / ||u||_inf over 2000 samples: "
          f"[{ratio.min():.9f}, {ratio.max():.9f}]  (target (1, {1 + spec.epsilon}])")

    point = [1.0, 1.0, 0.0]
    direction = [1.0, -1.0, 0.0]
    steps = [1e-3, 1e-4, 1e-5]

    print()
    print(f"second central differences at x = {point}, "
          f"direction {direction}")
    base_rep = smoothness_check(X.norm, point, direction, steps)
    phi_rep = smoothness_check(lambda v: phi_norm(spec, v), point,
                               direction, steps)
    print(f"  {'step':>8}  {'sup norm':>14}  {'phi norm':>14}")
    for h, b, p in zip(steps, base_rep.second_diffs, phi_rep.second_diffs):
        print(f"  {h:>8.0e}  {b:>14.4f}  {p:>14.4f}")
    print(f"  sup norm kink flagged: {base_rep.kink} "
          f"(differences grow like 2/h)")
    print(f"  phi norm kink flagged: {phi_rep.kink}, "
          f"Richardson residual {phi_rep.richardson:.3e}")


if __name__ == "__main__":
    main()
