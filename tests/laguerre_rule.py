"""The Gauss-Laguerre rule over the atoms that the Gauss-Jacobi rule replaced, kept as its oracle.

``atom_nodes`` is the rule ``dephasing`` used before the inhomogeneity axis
became the relative beam intensity: Gauss-Laguerre with ``N_U`` nodes in
u = rho^2 / (2 sigma^2), which is Exp(1) distributed, a midpoint rule in the
azimuth of an anisotropic cloud, and Gauss-Hermite in the Doppler shift.
It takes the arguments of ``dephasing.atom_nodes`` and ignores the waist and
the rule sizes, running its own full rule with a fixed ``N_V`` Hermite nodes,
so a test can put it in that function's place.
"""

import numpy as np

from rydlink import dephasing as dp

N_U = 48  # Gauss-Laguerre, in u = rho^2 / (2 sigma^2)
N_THETA = 16  # midpoint, in the azimuth on [0, pi/2]; only when sigma_x != sigma_y
N_V = 32  # Gauss-Hermite, in the Doppler shift


def atom_nodes(ens, k_sw, waist_um, flags, sizes):
    """(rho^2 in um^2, Doppler shift in rad/s, weight) at each node, rho^2 first; the weights
    are positive and sum to 1. x = sigma_x sqrt(2u) cos(theta), y = sigma_y sqrt(2u) sin(theta)
    with u ~ Exp(1) and theta uniform."""
    from numpy.polynomial import hermite_e, laguerre

    def axis(rule, n, on):
        if not on:
            return np.zeros(1), np.ones(1)
        x, w = rule(n)
        return x, w / w.sum()

    u, w_u = axis(laguerre.laggauss, N_U, flags.inhomo)
    anisotropic = flags.inhomo and ens.cloud_sigma_um[0] != ens.cloud_sigma_um[1]
    theta, w_theta = axis(lambda n: ((np.arange(n) + 0.5) * np.pi / (2 * n), np.ones(n)), N_THETA, anisotropic)
    v, w_v = axis(hermite_e.hermegauss, N_V, flags.motion)
    sx2, sy2 = ens.cloud_sigma_um[0] ** 2, ens.cloud_sigma_um[1] ** 2
    rho_sq = 2.0 * np.outer(u, 0.5 * (sx2 + sy2) + 0.5 * (sx2 - sy2) * np.cos(2.0 * theta)).ravel()
    sigma_doppler = dp.thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu) * np.linalg.norm(k_sw)
    doppler = sigma_doppler * v * 1e6  # rad/um * um/us -> rad/us -> rad/s
    weights = np.outer(np.outer(w_u, w_theta).ravel(), w_v).ravel()
    return np.repeat(rho_sq, len(v)), np.tile(doppler, len(rho_sq)), weights
