"""Injective tensor norms on X (x) Y and the product boundary.

A matrix M represents an element of sup_finite(3) (x) euclidean(2).
Slicing against a dual functional on either side gives a vector in the
other space, the injective norm enumerates dual extreme points against
exact Euclidean row norms, and boundary_product_check verifies that
rank-one products of boundary functionals norm the unit samples.
"""

import numpy as np

from smoothnorm.spaces import euclidean_space, sup_space
from smoothnorm.tensor import (TensorElement, apply_fY, apply_gX,
                               boundary_product_check, injective_norm,
                               tensor_apply)


def main():
    X, Y = sup_space(3), euclidean_space(2)
    rng = np.random.default_rng(505)
    M = rng.standard_normal((3, 2))
    u = TensorElement(M, X, Y)

    f = rng.standard_normal(3)
    g = rng.standard_normal(2)
    v1 = tensor_apply(f, g, u)
    v2 = float(apply_fY(f, u) @ g)
    v3 = float(apply_gX(g, u) @ f)
    print("three-way slice identity (f (x) g)(u) = g(f^Y u) = f(g^X u)")
    print(f"  {v1:.15f}  {v2:.15f}  {v3:.15f}")

    res = injective_norm(u, "enumerate")
    F = X.dual_extreme_points()
    oracle = float(np.max(np.linalg.norm(F @ M, axis=1)))
    print()
    print(f"injective norm, enumerated: {res.value:.12f}")
    print(f"row-norm oracle:            {oracle:.12f}")
    print(f"norming pair f = {np.asarray(res.pair.f)}, "
          f"g = {np.asarray(res.pair.g).round(6)}")

    sampled = injective_norm(u, "sample+ascent", samples=16, iters=50,
                             seed=1)
    print(f"sampled + ascent agrees to {abs(sampled.value - res.value):.2e}")

    # product boundary: F x (circle grid) norms unit tensors to 1e-4
    angles = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    units = []
    for _ in range(10):
        A = rng.standard_normal((3, 2))
        value = injective_norm(TensorElement(A, X, Y), "enumerate").value
        units.append(TensorElement(A / value, X, Y))
    report = boundary_product_check(F, circle, units, tol=1e-4)
    print()
    print(f"product boundary over {len(F)} x {len(circle)} pairs: "
          f"passed {report.passed}, max deficit {report.max_deficit:.3e}")


if __name__ == "__main__":
    main()
