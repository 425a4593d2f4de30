"""The Gauss-Laguerre rule over the atoms that the Gauss-Jacobi rule replaced, kept as its oracle.

``atom_nodes`` is the rule ``dephasing`` used before the inhomogeneity axis
became the relative beam intensity: Gauss-Laguerre with ``N_U`` nodes in
u = rho^2 / (2 sigma^2), which is Exp(1) distributed, a midpoint rule in the
azimuth of an anisotropic cloud, and Gauss-Hermite in the Doppler shift.
It takes the arguments of ``dephasing.atom_nodes`` and ignores the waist,
so a test can put it in that function's place.
"""

import math

import numpy as np

from rydlink import dephasing as dp

N_U = 48  # Gauss-Laguerre, in u = rho^2 / (2 sigma^2)
N_THETA = 16  # midpoint, in the azimuth on [0, pi/2]; only when sigma_x != sigma_y
N_V = 32  # Gauss-Hermite, in the Doppler shift
MIN_FAST_SCALE = 0.25  # share of the azimuth and Doppler nodes a small budget may keep


def rule_sizes(ens, flags, budget):
    """(n_u, n_theta, n_v): the full rule when it fits the budget; otherwise the azimuth and
    Doppler axes shrink by one factor, to no less than MIN_FAST_SCALE of their nodes, and then
    n_u until the product fits."""
    sigma_x, sigma_y, _ = ens.cloud_sigma_um
    full = (
        N_U if flags.inhomo else 1,
        N_THETA if flags.inhomo and sigma_x != sigma_y else 1,
        N_V if flags.motion else 1,
    )
    if math.prod(full) <= budget:
        return full
    n_u, *fast = full
    shrunk = sum(n > 1 for n in fast)
    scale = max(MIN_FAST_SCALE, (budget / math.prod(full)) ** (1.0 / shrunk)) if shrunk else 1.0
    fast = [max(1, int(n * scale)) for n in fast]
    return (max(1, min(n_u, budget // math.prod(fast))), *fast)


def atom_nodes(ens, k_sw, waist_um, flags, budget):
    """(rho^2 in um^2, Doppler shift in rad/s, weight) at each node, rho^2 first; the weights
    are positive and sum to 1. x = sigma_x sqrt(2u) cos(theta), y = sigma_y sqrt(2u) sin(theta)
    with u ~ Exp(1) and theta uniform."""
    from numpy.polynomial import hermite_e, laguerre

    def axis(rule, n, on):
        if not on:
            return np.zeros(1), np.ones(1)
        x, w = rule(n)
        return x, w / w.sum()

    n_u, n_theta, n_v = rule_sizes(ens, flags, budget)
    u, w_u = axis(laguerre.laggauss, n_u, flags.inhomo)
    theta, w_theta = axis(lambda n: ((np.arange(n) + 0.5) * np.pi / (2 * n), np.ones(n)), n_theta, n_theta > 1)
    v, w_v = axis(hermite_e.hermegauss, n_v, flags.motion)
    sx2, sy2 = ens.cloud_sigma_um[0] ** 2, ens.cloud_sigma_um[1] ** 2
    rho_sq = 2.0 * np.outer(u, 0.5 * (sx2 + sy2) + 0.5 * (sx2 - sy2) * np.cos(2.0 * theta)).ravel()
    sigma_doppler = dp.thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu) * np.linalg.norm(k_sw)
    doppler = sigma_doppler * v * 1e6  # rad/um * um/us -> rad/us -> rad/s
    weights = np.outer(np.outer(w_u, w_theta).ravel(), w_v).ravel()
    return np.repeat(rho_sq, len(v)), np.tile(doppler, len(rho_sq)), weights
