"""One pass of the ``contour`` workload through the su3chain library API.

Run as ``python3 perfbench/contour_pass.py --seed N`` (with ``src`` on
``PYTHONPATH``).  It prints one JSON object with the raw numbers; the
benchmark harness, ``run.py``, owns every tolerance check, so this file only
computes.  Non-finite values are printed as ``NaN``/``Infinity`` on purpose:
``run.py`` parses strictly and counts them as a failed operation.

The pass covers:

* ``density_matrix_two_site(0.0)``: trace, Hermiticity, smallest eigenvalue
  and ``tr(D2 P12)``, which must equal the published energy per bond;
* ``solve_g_recursion_residual(l, lam)`` for ``l`` in {0, 1, -1} at
  ``POINTS_PER_PASS`` seeded points with ``Re lam`` in [1.6, 2.4] and
  ``Im lam`` in [0.05, 0.5], where the vertical-contour transform is valid.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from su3chain import threesite

#: seeded contour points per pass (each costs six 150k-point contour integrals
#: at the library's default step)
POINTS_PER_PASS = 3


def contour_points(seed: int, count: int = POINTS_PER_PASS) -> list[complex]:
    """Evaluation points of the g_l recursion check, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(1.6, 2.4, size=count)
    im = rng.uniform(0.05, 0.5, size=count)
    return [complex(a, b) for a, b in zip(re, im)]


def run_pass(seed: int) -> dict:
    d2 = threesite.density_matrix_two_site(0.0)
    p12 = np.eye(9)[[3 * b + a for a in range(3) for b in range(3)]]
    residuals = []
    for lam in contour_points(seed):
        for l in (0, 1, -1):
            res = threesite.solve_g_recursion_residual(l, lam)
            residuals.append({"l": l, "lam": [lam.real, lam.imag], "residual": res})
    return {
        "d2": {
            "trace_defect": float(abs(np.trace(d2) - 1)),
            "hermiticity": float(np.abs(d2 - d2.conj().T).max()),
            "min_eig": float(np.linalg.eigvalsh((d2 + d2.conj().T) / 2).min()),
            "p12": float(np.trace(d2 @ p12).real),
        },
        "g_residuals": residuals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
