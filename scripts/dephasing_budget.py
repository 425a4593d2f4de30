#!/usr/bin/env python3
"""Decompose the spin-wave dephasing budget flag by flag.

Runs the single-excitation ensemble simulation with each mechanism
enabled in isolation and all together, printing the fitted oscillation
decay time with its standard error and the closed-form free-evolution
lifetime. A run whose fitted time is smaller than its standard error shows
no decay in the window and prints as undamped.
"""

import argparse

import numpy as np

from rydlink import dephasing as dp
from rydlink.config import load_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--samples", type=int, default=1000,
        help="node budget: the most quadrature nodes over the atoms per run (at least 100)",
    )
    ap.add_argument("--t-max-us", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=300)
    args = ap.parse_args()

    cfg = load_config()
    gamma_e = cfg.parsed["raman"]["intermediate_linewidth"]
    t_grid = np.linspace(0.0, args.t_max_us, args.points)
    combos = [
        (False, False, False),
        (True, False, False),
        (False, True, False),
        (False, False, True),
        (True, True, True),
    ]
    print(f"{'motion':>7s} {'inhomo':>7s} {'scatter':>8s} {'tau_osc_us':>11s} {'se_us':>11s} {'tau_free_us':>12s}")
    for motion, inhomo, scatter in combos:
        flags = dp.SimulationFlags(motion=motion, inhomogeneity=inhomo, scattering=scatter)
        label = f"{str(motion):>7s} {str(inhomo):>7s} {str(scatter):>8s}"
        try:
            r = dp.simulate_single_excitation(
                cfg.geometry, cfg.ensemble, gamma_e, flags, args.samples, cfg.seed, t_grid
            )
        except dp.FitError:
            print(f"{label} {'fit failed':>11s}")
            continue
        se = r.tau_osc_se_us
        if se is None or se > r.tau_osc_us:
            tau = f"{'undamped':>11s} {'-' if se is None else f'{se:.3g}':>11s}"
        else:
            tau = f"{r.tau_osc_us:11.3f} {se:11.3g}"
        print(f"{label} {tau} {r.tau_free_us:12.3f}")


if __name__ == "__main__":
    main()
