"""The spectral propagators that ``dephasing._propagate`` replaced, kept as oracles.

Each node's Liouvillian (or no-jump generator) is diagonalised once and its
eigenmodes summed on the uniform grid by recurrence, one multiply by
exp(rate dt) per mode and step. The real Liouvillian's complex modes come in
conjugate pairs with conjugate terms, so each pair is summed once. This route
shares nothing with the Pade powers of ``_propagate`` beyond the generators.
"""

import numpy as np

from rydlink import dephasing as dp


def spectral_sum(weights, rates, t_grid_s):
    """sum_k weights[:, k] exp(rates[:, k] t) at each t of the grid, as an (n_t, n) complex array.

    weights and rates are (n, m). Each step multiplies the terms by exp(rates dt), so the
    grid must be uniform to within the rounding of its points; any other raises ValueError.
    """
    t = np.asarray(t_grid_s, dtype=float)
    dt = (t[-1] - t[0]) / max(len(t) - 1, 1)
    if np.abs(t - (t[0] + dt * np.arange(len(t)))).max() > 16 * np.finfo(float).eps * np.abs(t).max():
        raise ValueError("the spectral sum needs a uniformly spaced time grid")
    z = np.exp(rates * dt)
    term = weights * np.exp(rates * t[0])
    out = np.empty((len(t), len(term)), dtype=complex)
    for it in range(len(t)):
        np.einsum("nk->n", term, out=out[it])  # several times faster than term.sum(axis=1)
        term *= z
    return out


def spectral_lindblad_trace(H, gamma, t_grid_s):
    """rho_rr (n_t, n) as dp._batched_lindblad_trace, from one eigendecomposition of each real
    Liouvillian: each conjugate pair of modes is summed once, as twice the mode with Im > 0,
    and the real part taken."""
    evals, evecs = np.linalg.eig(dp._real_liouvillian(H, gamma))
    weights = evecs[:, dp.LEVEL_R, :] * np.linalg.solve(evecs, np.eye(16)[:, [dp.LEVEL_R]])[..., 0]
    weights *= 2.0 * (evals.imag > 0) + (evals.imag == 0)
    # Im >= 0 modes first, cut to the largest per-atom count; past its own count an atom has weight 0
    kept = np.argsort(evals.imag < 0, axis=1, kind="stable")[:, : (evals.imag >= 0).sum(axis=1).max()]
    weights, evals = (np.take_along_axis(a, kept, axis=1) for a in (weights, evals))
    return spectral_sum(weights, evals, t_grid_s).real


def spectral_amplitudes(H, gamma, t_grid_s):
    """<r|psi(t)> (n_t, n) as dp._batched_amplitudes, from one eigendecomposition of each H_eff."""
    H_eff = H.astype(complex)
    H_eff[:, dp.LEVEL_E1, dp.LEVEL_E1] += -0.5j * gamma
    H_eff[:, dp.LEVEL_E2, dp.LEVEL_E2] += -0.5j * gamma
    if gamma == 0.0:
        evals, evecs = np.linalg.eigh(H_eff)
        inv_r = np.conj(evecs[:, dp.LEVEL_R, :])  # unitary inverse row
    else:
        evals, evecs = np.linalg.eig(H_eff)
        inv_r = np.linalg.solve(evecs, np.eye(4)[:, [dp.LEVEL_R]])[..., 0]
    return spectral_sum(evecs[:, dp.LEVEL_R, :] * inv_r, -1j * evals, t_grid_s)
