"""Super-atom model of the blockaded ensemble.

Covers the collectively enhanced Rabi oscillation, the blockaded
two-excitation evolution, and the full protocol run producing the
atom-photon entangled state. The protocol depends only on the Raman
duration and the Rabi frequency: that the Raman-kicked momentum modes are
distinguishable is a property of the beam geometry, checked once when the
configuration is loaded (``geometry.modes_distinguishable``). The small-N
brute-force oracles that check this model are in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnsembleConfig:
    effective_atom_number: float
    temperature_uK: float
    cloud_sigma_um: tuple
    ground_spinwave_lifetime_us: float
    atomic_mass_amu: float


def collective_rabi_population(n_eff: float, omega: float, t) -> float | np.ndarray:
    """Rydberg population of the blockaded ensemble: sin^2(sqrt(N) Omega t / 2)."""
    if n_eff < 1:
        raise ValueError("effective atom number must be >= 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = np.sin(np.sqrt(n_eff) * omega * t / 2.0) ** 2
    return float(out) if out.ndim == 0 else out


def single_excitation_period(omega: float) -> float:
    if omega <= 0:
        raise ValueError("Omega must be positive")
    return 2.0 * np.pi / omega


def pair_oscillation_period(omega: float) -> float:
    """The blockade-enhanced two-excitation period, 2 pi / (sqrt(2) Omega)."""
    if omega <= 0:
        raise ValueError("Omega must be positive")
    return 2.0 * np.pi / (np.sqrt(2.0) * omega)


def pair_evolution(omega: float, t) -> np.ndarray:
    """Blockaded two-excitation evolution from |R2,S1> under the Raman drive.

    Returns the ``(..., 3)`` amplitudes over (|R2,S1>, |R3,S4>, |S1,S4>)
    at each time in ``t``; the double-Rydberg state is blockaded. The
    antisymmetric combination of |R2,S1> and |R3,S4> is dark; the
    symmetric one oscillates to |S1,S4> at the sqrt(2)-enhanced rate.
    """
    half = np.sqrt(2.0) * omega * np.asarray(t, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    return np.stack([(1.0 + c) / 2.0, (c - 1.0) / 2.0, -1j * s / np.sqrt(2.0)], axis=-1)


def run_protocol(raman_duration, omega: float):
    """Execute the pi, pi, pi preparation, the Raman pulse, and the read-out.

    Returns (amplitudes, success_probability) at each duration: the
    ``(..., 2)`` amplitudes over (|k_up>|S1>, |k_down>|S4>), conditioned
    on the Rydberg-containing subspace, and the probability of that
    subspace. The |S1,S4> branch emits no first photon and is reported as
    failure, not renormalized away silently. Its probability never exceeds
    1/2, so the conditional amplitudes are always defined.
    """
    t = np.asarray(raman_duration, dtype=float)
    if np.any(t < 0):
        raise ValueError("raman_duration must be >= 0")
    amps = pair_evolution(omega, t)[..., :2]
    p_rydberg = np.abs(amps[..., 0]) ** 2 + np.abs(amps[..., 1]) ** 2
    return amps / np.sqrt(p_rydberg)[..., None], p_rydberg
