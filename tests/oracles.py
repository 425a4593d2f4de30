"""Small-N brute-force oracles for the super-atom model of ``collective``,
the two envelope fits that ``dephasing.fit_envelope_time_us`` replaced (scipy's
curve_fit, then the variable-projection fit that stopped only when no step lowered
the residual), the fixed Doppler rule that ``dephasing.doppler_nodes`` replaced
and the bisection that wrote its ``DOPPLER_REACH`` table, the Doppler phase of a
window that ``dephasing.simulate_single_excitation`` sizes that rule at, and the
per-value CSV formatter that ``cli.RunWriter.csv`` replaced.

Each brute-force oracle evolves the complete blockaded many-atom state for
a handful of atoms, so the tests can check the 3-level super-atom reduction
and the sqrt(N) enhancement against exact dynamics. The package itself does
not use scipy; only the tests and these oracles do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from rydlink import dephasing as dp
from rydlink.geometry import protocol_modes


@dataclass(frozen=True)
class BruteForcePairResult:
    projections: np.ndarray  # onto (|R2,S1>, |R3,S4>, |S1,S4>/norm)
    state: np.ndarray  # full amplitudes in the pair basis
    kets: tuple  # the three collective kets (K3 unnormalized)

    def fidelity_with(self, pair) -> float:
        """Full-space overlap with the super-atom amplitudes ``pair``
        (``pair_evolution`` at one time) mapped back through the
        collective-ket definitions (K3 kept unnormalized, as produced by
        the exact pairwise evolution)."""
        k1, k2, k3 = self.kets
        a1, a2, a3 = pair
        pred = a1 * k1 + a2 * k2 + a3 * k3
        return abs(np.vdot(pred, self.state)) ** 2 / (
            np.vdot(pred, pred).real * np.vdot(self.state, self.state).real
        )


def _evolve(H: np.ndarray, psi0: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) psi0 for Hermitian H, by its eigendecomposition.

    A scalar ``t`` gives the ``(dim,)`` state; a grid gives ``(n_t, dim)``.
    """
    evals, evecs = np.linalg.eigh(H)
    coeffs = evecs.conj().T @ psi0
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), evals))
    return (phases * coeffs) @ evecs.T


def brute_force_pair(
    n_atoms: int,
    omega: float,
    t: float,
    k1_vec,
    k2_vec,
    dk_vec,
    positions_um,
) -> BruteForcePairResult:
    """Evolve the full N-atom two-excitation state under blockade.

    Basis: |s_j r_k> for ordered j != k, plus |s_j s_k> for unordered
    pairs; double-Rydberg configurations are excluded outright. The drive
    carries the Raman momentum kick as a per-atom phase e^{i dk . x}.
    """
    if not (2 <= n_atoms <= 6):
        raise ValueError("brute force supports 2 <= N <= 6")
    x = np.asarray(positions_um, dtype=float)
    if x.shape != (n_atoms, 3):
        raise ValueError(f"positions must have shape ({n_atoms}, 3)")
    k1 = np.asarray(k1_vec, dtype=float)
    k2 = np.asarray(k2_vec, dtype=float)
    dk = np.asarray(dk_vec, dtype=float)
    k3 = k1 + dk
    k4 = k2 - dk

    sr_index = {}
    for j in range(n_atoms):
        for k in range(n_atoms):
            if j != k:
                sr_index[(j, k)] = len(sr_index)
    ss_index = {}
    for j in range(n_atoms):
        for k in range(j + 1, n_atoms):
            ss_index[(j, k)] = len(sr_index) + len(ss_index)
    dim = len(sr_index) + len(ss_index)

    kick = np.exp(1j * (x @ dk))  # phase on |r_i><s_i|
    H = np.zeros((dim, dim), dtype=complex)
    for (j, k), i_sr in sr_index.items():
        i_ss = ss_index[(min(j, k), max(j, k))]
        # atom k: r -> s (conjugate kick phase); s -> r on atom j is blockaded
        H[i_ss, i_sr] += (omega / 2.0) * np.conj(kick[k])
        H[i_sr, i_ss] += (omega / 2.0) * kick[k]

    m_norm = 1.0 / np.sqrt(n_atoms * (n_atoms - 1))
    phase1 = np.exp(1j * (x @ k1))
    phase2 = np.exp(1j * (x @ k2))
    phase3 = np.exp(1j * (x @ k3))
    phase4 = np.exp(1j * (x @ k4))

    ket_r2s1 = np.zeros(dim, dtype=complex)
    ket_r3s4 = np.zeros(dim, dtype=complex)
    ket_s1s4 = np.zeros(dim, dtype=complex)
    for (j, k), i_sr in sr_index.items():
        ket_r2s1[i_sr] = m_norm * phase1[j] * phase2[k]
        ket_r3s4[i_sr] = m_norm * phase4[j] * phase3[k]
    for (j, k), i_ss in ss_index.items():
        ket_s1s4[i_ss] = m_norm * (phase1[j] * phase4[k] + phase1[k] * phase4[j])

    psi_t = _evolve(H, ket_r2s1, t)

    k3_norm = np.linalg.norm(ket_s1s4)
    projections = np.array(
        [
            np.vdot(ket_r2s1, psi_t),
            np.vdot(ket_r3s4, psi_t),
            np.vdot(ket_s1s4 / k3_norm, psi_t) if k3_norm > 0 else 0.0,
        ]
    )
    return BruteForcePairResult(projections, psi_t, (ket_r2s1, ket_r3s4, ket_s1s4))


def brute_force_collective_trace(n_atoms: int, omega: float, t_grid, k_vec, positions_um):
    """Ground-state population of the blockaded N-atom single-excitation drive.

    Basis: |g...g> plus the N singly excited Rydberg configurations; no
    double excitations. Used as the oracle for the sqrt(N) enhancement.
    """
    x = np.asarray(positions_um, dtype=float)
    k = np.asarray(k_vec, dtype=float)
    if x.shape != (n_atoms, 3):
        raise ValueError(f"positions must have shape ({n_atoms}, 3)")
    phases = np.exp(1j * (x @ k))
    dim = n_atoms + 1
    H = np.zeros((dim, dim), dtype=complex)
    for i in range(n_atoms):
        H[i + 1, 0] = (omega / 2.0) * phases[i]
        H[0, i + 1] = (omega / 2.0) * np.conj(phases[i])
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    return np.abs(_evolve(H, psi0, t_grid)[:, 0]) ** 2


def fit_oscillation_frequency(t_grid, signal, omega_guess: float) -> float:
    """Least-squares fit of a*cos(w t) + c; returns the angular frequency."""

    def model(t, a, w, c):
        return a * np.cos(w * t) + c

    t_grid = np.asarray(t_grid, dtype=float)
    signal = np.asarray(signal, dtype=float)
    a0 = (signal.max() - signal.min()) / 2.0
    c0 = signal.mean()
    popt, _ = curve_fit(model, t_grid, signal, p0=[a0, omega_guess, c0], maxfev=20000)
    return float(abs(popt[1]))


def curve_fit_envelope_time_us(t_grid_us, projection, omega_guess_rad_s: float) -> tuple:
    """(w, standard error of w) in us of exp(-(t/w)^2) (a cos(w_osc t + phi) + b) fitted by
    ``scipy.optimize.curve_fit`` over all five parameters, with the bounds and start that
    ``dephasing.fit_envelope_time_us`` used before its variable-projection fit."""

    def model(tt, a, b, w, om, phi):
        return np.exp(-((tt / w) ** 2)) * (a * np.cos(om * tt + phi) + b)

    t = np.asarray(t_grid_us, dtype=float)
    t_span = t[-1] - t[0]
    p0 = [0.5, 0.5, t_span, omega_guess_rad_s * 1e-6, 0.0]
    bounds = ([0.0, 0.0, 1e-3 * t_span, 0.0, -np.pi], [2.0, 2.0, 1e4 * t_span, np.inf, np.pi])
    popt, pcov = curve_fit(model, t, np.asarray(projection, dtype=float), p0=p0, bounds=bounds, maxfev=40000)
    return float(popt[2]), float(np.sqrt(pcov[2, 2]))


# Levenberg-Marquardt steps of no_descent_envelope_time_us
NO_DESCENT_MAX_STEPS = 200


def no_descent_envelope_residual(tau, y, s, om):
    """(RSS, residual, Kaufman Jacobian (2, m), linear coefficients) of the envelope model at
    the nonlinear parameters (s, om) on the scaled times tau, or None where its Gram matrix is
    singular.

    The coefficients (c1, c2, b) of e cos(om tau), e sin(om tau) and e, e = exp(-s tau^2),
    solve the 3 x 3 normal equations; when that b is negative the constrained optimum has
    b = 0, and (c1, c2) solve the 2 x 2 ones. The Jacobian rows are the derivatives of the
    model in s and om with the span of the basis projected out (Kaufman, BIT 15, 49 (1975)).
    """
    e = np.exp(-s * tau**2)
    basis = np.stack([e * np.cos(om * tau), e * np.sin(om * tau), e])
    gram, moments = basis @ basis.T, basis @ y
    try:
        c = np.linalg.solve(gram, moments)
        if c[2] < 0.0:
            basis, gram = basis[:2], gram[:2, :2]
            c = np.linalg.solve(gram, moments[:2])
        model = c @ basis
        derivatives = np.stack([-(tau**2) * model, tau * (c[1] * basis[0] - c[0] * basis[1])])
        jac = derivatives - np.linalg.solve(gram, basis @ derivatives.T).T @ basis
    except np.linalg.LinAlgError:
        return None
    r = y - model
    return r @ r, r, jac, np.append(c, 0.0)[:3]


def no_descent_envelope_time_us(t_grid_us, projection, omega_guess_rad_s: float) -> dp.EnvelopeTime:
    """Fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b) and return w in us, with its standard error.

    The model is linear in (a cos phi, -a sin phi, b) at fixed (w, w_osc), so a
    Levenberg-Marquardt search runs on s = 1/w^2 and w_osc alone with the linear part solved at
    each step (variable projection: Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)),
    within w in [1e-3, 1e4] times the window, w_osc >= 0 and b >= 0. The standard error comes
    from the full five-parameter Jacobian at the optimum, as (J^T J)^-1 RSS / (m - 5).
    An effectively undamped trace returns a very large w rather than failing, so the caller
    can treat "no decay" uniformly; its standard error then exceeds w. A fit that does not
    converge within NO_DESCENT_MAX_STEPS steps raises FitError.
    """
    t = np.asarray(t_grid_us, dtype=float)
    y = np.asarray(projection, dtype=float)
    t_span = t[-1] - t[0] if len(t) > 1 else 1.0
    tau = t / t_span  # in units of the window, so that (s, w_osc) = (1, w_osc t_span) at the start
    lo, hi = np.array([1e-8, 0.0]), np.array([1e6, np.inf])
    theta = np.array([1.0, omega_guess_rad_s * 1e-6 * t_span])
    state = no_descent_envelope_residual(tau, y, *theta)
    if state is None or not np.isfinite(state[0]):
        raise dp.FitError("envelope fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b): no finite start")
    damping = 1e-3
    for _ in range(NO_DESCENT_MAX_STEPS):
        rss, r, jac, _ = state
        # -g is the exact gradient of RSS / 2: the terms Kaufman drops are normal to r
        A, g = jac @ jac.T, jac @ r
        scale = np.diag(np.maximum(np.diag(A), np.finfo(float).tiny))
        new = None
        while damping < 1e16:
            trial = np.clip(theta + np.linalg.solve(A + damping * scale, g), lo, hi)
            if np.all(np.abs(trial - theta) <= 1e-10 * (np.abs(theta) + 1e-10)):
                break
            new = no_descent_envelope_residual(tau, y, *trial)
            if new is not None and new[0] < rss:
                break
            damping *= 10.0
        if new is None or not new[0] < rss:
            break  # no step beyond rounding lowers the residual: a minimum, or one on a bound
        theta, state = trial, new
        damping = max(damping / 10.0, 1e-12)
    else:
        raise dp.FitError(f"envelope fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b): no convergence in {NO_DESCENT_MAX_STEPS} steps")
    rss, _, _, (c1, c2, b) = state
    w, om = t_span / math.sqrt(theta[0]), theta[1] / t_span
    if len(t) <= 5:
        return dp.EnvelopeTime(w, None)
    e, cos, sin = np.exp(-((t / w) ** 2)), np.cos(om * t), np.sin(om * t)
    model = e * (c1 * cos + c2 * sin + b)
    J = np.stack([e * cos, e * sin, e, 2 * t**2 / w**3 * model, t * e * (c2 * cos - c1 * sin)], axis=1)
    norms = np.linalg.norm(J, axis=0)
    norms[norms == 0.0] = 1.0
    # pseudo-inverse of J^T J with the columns scaled to unit norm, dropping singular values as
    # scipy's curve_fit does
    _, sv, vt = np.linalg.svd(J / norms, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(J.shape) * sv[0]
    var = np.sum((vt[keep, 3] / sv[keep]) ** 2) / norms[3] ** 2 * rss / (len(t) - 5)
    return dp.EnvelopeTime(w, math.sqrt(var) if math.isfinite(var) else None)


FIXED_N_V = 32  # Hermite nodes of the Doppler axis at every phase up to the 5 rad it admitted


def fixed_doppler_nodes(phase: float) -> int:
    """The Doppler axis before it was sized by the run: FIXED_N_V nodes whatever the phase. A test
    puts it in the place of ``dephasing.doppler_nodes``."""
    return FIXED_N_V


def doppler_reach(n: int, tol: float) -> float:
    """The Doppler phase, to 1e-9 relative, up to which ``dephasing.doppler_miss(n, x)`` stays within
    ``tol``: from [0, 10] rad, where every rule of at most N_V nodes fails, each grid of 32 cells
    narrows to the cell of the previous one in which the miss first exceeds the tolerance."""
    lo, hi = 0.0, 10.0
    while hi - lo > 1e-9 * hi:
        x = np.linspace(lo, hi, 33)[1:]
        over = dp.doppler_miss(n, x) > tol
        if not over.any():
            return float(hi)  # the miss at hi was within rounding of the tolerance
        first = over.argmax()
        lo, hi = x[first - 1] if first else lo, x[first]
    return float(lo)


def doppler_phase(geo, ens, t_max_us: float) -> float:
    """sigma_D t_max, rad, of a window of ``t_max_us``: sigma_D = 1 / tau_free is the sigma of the
    Doppler shift v.k_sw of the Rydberg spin wave, as the dephasing run computes it."""
    k_sw = np.linalg.norm(protocol_modes(geo).k2)
    return t_max_us / dp.motional_coherence_time_us(k_sw, ens.temperature_uK, ens.atomic_mass_amu)


def csv_bytes_per_value(header, rows) -> bytes:
    """A CSV as ``RunWriter.csv`` wrote it before its one row format: each value through float() and .12g."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(x):.12g}" for x in row))
    return ("\n".join(lines) + "\n").encode()
