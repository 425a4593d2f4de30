#!/usr/bin/env python3
"""Check the super-atom reduction against the exact N-atom pair dynamics.

For each N, draws random thermal-cloud coordinate configurations, evolves
the full blockaded two-excitation state, and prints the worst-case
infidelity against the 3-level super-atom model together with the fitted
collective-enhancement factor.
"""

import argparse

import numpy as np

from rydlink import collective as col
from rydlink.config import load_config
from rydlink.geometry import protocol_modes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = load_config()
    modes = protocol_modes(cfg.geometry)
    omega = cfg.protocol_rabi
    k1, k2, dk = modes.k1, modes.k2, modes.dk
    sigma = np.asarray(cfg.ensemble.cloud_sigma_um)
    rng = np.random.default_rng(args.seed)

    print(f"{'N':>2s} {'worst 1-F':>12s} {'freq ratio':>12s} {'sqrt(N)':>9s}")
    t_grid = np.linspace(0.0, 4.0 * np.pi / omega, 600)
    p1 = col.brute_force_collective_trace(1, omega, t_grid, k2, np.zeros((1, 3)))
    w1 = col.fit_oscillation_frequency(t_grid, p1, omega)
    for n in range(2, 7):
        worst = 0.0
        for _ in range(args.draws):
            pos = rng.normal(scale=sigma, size=(n, 3))
            t = rng.uniform(0.0, 2.0) * col.pair_oscillation_period(omega)
            bf = col.brute_force_pair(n, omega, t, k1, k2, dk, pos)
            pair = col.pair_evolution(omega, t)
            worst = max(worst, 1.0 - bf.fidelity_with(pair))
        pos = rng.normal(scale=sigma, size=(n, 3))
        pn = col.brute_force_collective_trace(n, omega, t_grid, k2, pos)
        wn = col.fit_oscillation_frequency(t_grid, pn, np.sqrt(n) * omega)
        print(f"{n:2d} {worst:12.3e} {wn / w1:12.8f} {np.sqrt(n):9.6f}")


if __name__ == "__main__":
    main()
