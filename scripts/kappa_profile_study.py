#!/usr/bin/env python3
"""Speed versus momentum for the time-space deformed shell: the measured
ordinary, left and right speed profiles next to their closed forms, with a
flag where the projected speeds cross 1.

Each profile is one ``velocity_momentum_profile`` call.  The script exits 1
if a measured speed differs from its closed form (``p / sqrt(m^2 + p^2)``
for the ordinary shell, ``closed_form_speeds`` for the projections) by more
than 1e-9, absolute; the certificate's ``projected_speed_closed_form`` reads
the same gaps over the scale of their rounding (``kappa._SPEED_TOL``).
"""
import sys

import numpy as np

from poismech.kappa import KappaSpec, closed_form_speeds, velocity_momentum_profile

EPSILONS = (0.1, 0.3, 0.5)
MASS = 1.0
P_GRID = np.linspace(0.3, 3.0, 10)
TOLERANCE = 1e-9


def ordinary_speed(mass, p):
    return p / np.hypot(mass, p)


def main():
    worst = 0.0
    for eps in EPSILONS:
        spec = KappaSpec(eps)
        prof = velocity_momentum_profile(spec, MASS, P_GRID)
        closed = {"ordinary": ordinary_speed(MASS, P_GRID)}
        closed["left"], closed["right"] = closed_form_speeds(spec, MASS, P_GRID)
        gap = max(float(np.max(np.abs(prof[k]["v"] - closed[k]))) for k in closed)
        worst = max(worst, gap)
        print(f"eps = {eps}  (measured / closed form; largest gap {gap:.2e})")
        print(f"  {'p':>6} {'ordinary':>25} {'left':>25} {'right':>25}")
        first_cross = None
        for i, p in enumerate(P_GRID):
            mark = ""
            if max(closed["left"][i], closed["right"][i]) > 1.0 and first_cross is None:
                first_cross = p
                mark = "  <- projected speed exceeds 1"
            cells = " ".join(f"{prof[k]['v'][i]:.6f}/{closed[k][i]:.6f}".rjust(25) for k in closed)
            print(f"  {p:>6.2f} {cells}{mark}")
        if first_cross is None:
            print("  projections stay below 1 on this grid")
        print()
    if not worst <= TOLERANCE:
        print(f"measured speeds differ from the closed forms by {worst:.3e} > {TOLERANCE:.0e}")
        return 1
    print(f"measured speeds match the closed forms within {worst:.3e} <= {TOLERANCE:.0e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
