"""The spectral propagators that ``dephasing._propagate`` replaced, and the Pade-13
exponential that ``dephasing._expm`` replaced, kept as oracles, with a long-double
exponential that is more accurate than either.

Each node's Liouvillian (or no-jump generator) is diagonalised once and its
eigenmodes summed on the uniform grid by recurrence, one multiply by
exp(rate dt) per mode and step. The real Liouvillian's complex modes come in
conjugate pairs with conjugate terms, so each pair is summed once. This route
shares nothing with ``_propagate`` beyond the generators.
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


# Pade-13 numerator coefficients and the largest 1-norm at which it meets double precision
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3)
PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA_13 = 5.371920351148152


def pade13_expm(A):
    """exp(A) of a stack of real or complex square matrices (..., m, m), by Pade-13 scaling
    and squaring: each matrix is scaled by 2^-s to a 1-norm of at most THETA_13, and its
    approximant squared s times."""
    b = PADE_13
    with np.errstate(divide="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(np.abs(A).sum(axis=-2).max(axis=-1) / THETA_13))).astype(int)
    A = A * (0.5**s)[..., None, None]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    R = np.linalg.solve(V - U, V + U)
    for j in range(s.max(initial=0)):
        if (s > j).all():
            R = R @ R
        else:
            R[s > j] = R[s > j] @ R[s > j]
    return R


def longdouble_expm(A):
    """exp(A) of a stack of square matrices (..., m, m) of 1-norm up to about 3, as a long-double
    array: 30 terms of the Taylor series of A / 8, squared three times. Where long double has a
    64-bit mantissa (x86-64) it lies about 2^-11 of a double's rounding from exp(A)."""
    A = A.astype(np.result_type(A, np.longdouble)) / 8
    term = np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype), A.shape)
    R = term.copy()
    for k in range(1, 30):
        term = term @ A / k
        R += term
    for _ in range(3):
        R = R @ R
    return R
