"""Boundary decompositions, the weight ladder, and the separated net.

A decomposition splits a norming set of dual functionals into pieces;
each functional gets a weight psi from its piece memberships and a
separation scale eps_n, and a greedy pass extracts the maximal
separated net that will index the Orlicz family.
"""

import numpy as np

from smoothnorm.boundary import (Decomposition, build_net, check_boundary,
                                 epsilon_n, net_property_report)
from smoothnorm.spaces import sup_space


def main():
    X = sup_space(3)
    eye = np.eye(3)

    print("separation schedule eps_n = eps * 4^-n / 96, eps = 0.96")
    for n in range(4):
        print(f"  eps_{n} = {epsilon_n(0.96, n):.10f}")

    # one piece per coordinate direction, signs included
    pieces = [np.vstack([eye[i], -eye[i]]) for i in range(3)]
    d = Decomposition(X, pieces, 0.1)

    print()
    print("piece weights (psi depends on which pieces contain the functional)")
    for piece in d.pieces:
        w = d.psi_of(*d.locate(piece.members[0]))
        print(f"  piece {piece.index}: {len(piece.members)} members, psi {w}")

    units = np.vstack([eye, -eye])
    rng = np.random.default_rng(202)
    sphere = rng.standard_normal((200, 3))
    sphere /= np.max(np.abs(sphere), axis=1)[:, None]
    report = check_boundary(X, units, sphere)
    print()
    print(f"boundary check on 200 sphere samples: passed {report.passed}, "
          f"min sup {report.max_values.min():.12f}")

    net = build_net(d)
    props = net_property_report(d, net)
    print()
    print(f"net size {len(net.points)}, per piece {net.per_piece}")
    print(f"  max pairwise-distance excess {props.max_distance_excess:.3e}")
    print(f"  max psi excess {props.max_psi_excess:.3e}")
    for p in net.points[:4]:
        print(f"  functional {np.asarray(p.functional)}  bin {p.bin_id}  "
              f"psi {p.psi:.6f}  theta {p.theta:.6f}")


if __name__ == "__main__":
    main()
