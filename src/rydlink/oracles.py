"""Small-N brute-force oracles for the super-atom model of ``collective``.

Each oracle evolves the complete blockaded many-atom state for a handful
of atoms, so the tests and ``scripts/blockade_scaling_scan.py`` can check
the 3-level super-atom reduction and the sqrt(N) enhancement against
exact dynamics. No command of the CLI imports this module, so scipy is
imported here at the top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit


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
