"""Monte Carlo model of single-excitation read-out losses.

Each sampled atom carries a frozen position (for Gaussian-beam intensity)
and a Maxwell-Boltzmann velocity (for Doppler dephasing of the Rydberg
spin wave), and evolves as a four-level {s, e1, e2, r} system under the
two-path Raman coupling. Intermediate-state scattering enters as Lindblad
collapse back into |s>: it feeds the incoherent Rydberg population while
destroying the spin-wave coherence, which is exactly the gap between the
population curve and the collective-projection curve.

Per-atom Liouvillians are time independent, so the batch is propagated
spectrally (one eigendecomposition per atom) rather than by stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .collective import EnsembleConfig
from .geometry import BeamGeometry, protocol_modes

K_BOLTZMANN = 1.380649e-23  # J/K
AMU = 1.66053906892e-27  # kg

# level ordering in the four-level space
LEVEL_S, LEVEL_E1, LEVEL_E2, LEVEL_R = 0, 1, 2, 3


class SeedRequiredError(ValueError):
    """Monte Carlo runs must be seeded; silent nondeterminism is a bug."""


class SampleCountError(ValueError):
    """Too few sampled atoms for a meaningful ensemble average."""


class FitError(RuntimeError):
    """The envelope fit of the spin-wave projection did not converge."""


@dataclass(frozen=True)
class RamanLevelScheme:
    """Two-photon coupling of |s> and |r> through |e1> and |e2>.

    ``detuning_1`` / ``detuning_2`` are the signed single-photon detunings
    of the two paths (rad/s). ``branch_1`` / ``branch_2`` are the signed
    path weights: their magnitudes are the intermediate-state admixtures
    and their relative sign is the product of the transition-amplitude
    signs along each path.
    """

    omega_ground: float  # peak single-photon Rabi of the ground-side beam, rad/s
    omega_rydberg: float  # peak single-photon Rabi of the Rydberg-side beam, rad/s
    detuning_1: float
    detuning_2: float
    branch_1: float
    branch_2: float
    gamma_e: float  # intermediate-state decay rate, rad/s
    waist_ground_um: float
    waist_rydberg_um: float

    def __post_init__(self):
        if self.detuning_1 == 0.0 or self.detuning_2 == 0.0:
            raise ValueError("single-photon detunings must be nonzero")
        if self.gamma_e <= 0:
            raise ValueError("intermediate-state decay rate must be positive")


def shift_cancelling_branch_weights(detuning_1: float, detuning_2: float) -> tuple:
    """Signed path weights that null the differential light shift.

    Requires opposite-sign detunings; the weights then also make the two
    Raman paths add constructively.
    """
    if detuning_1 * detuning_2 >= 0:
        raise ValueError("shift cancellation needs opposite-sign detunings")
    a1, a2 = abs(detuning_1), abs(detuning_2)
    w1 = a1 / (a1 + a2)
    w2 = a2 / (a1 + a2)
    return (np.sign(detuning_1) * w1, np.sign(detuning_2) * w2)


def scheme_from_geometry(geo: BeamGeometry, gamma_e: float) -> RamanLevelScheme:
    """The Raman scheme of beams C (ground side) and E (Rydberg side)."""
    b1, b2 = shift_cancelling_branch_weights(geo.detuning_1, geo.detuning_2)
    ground, rydberg = geo.beams["C"], geo.beams["E"]
    return RamanLevelScheme(
        omega_ground=ground.rabi,
        omega_rydberg=rydberg.rabi,
        detuning_1=geo.detuning_1,
        detuning_2=geo.detuning_2,
        branch_1=b1,
        branch_2=b2,
        gamma_e=gamma_e,
        waist_ground_um=ground.waist_um,
        waist_rydberg_um=rydberg.waist_um,
    )


@dataclass(frozen=True)
class SimulationFlags:
    motion: bool = False
    inhomogeneity: bool = False
    scattering: bool = False


@dataclass(frozen=True)
class DephasingResult:
    t_grid_us: np.ndarray
    population_r: np.ndarray
    spinwave_projection: np.ndarray
    tau_osc_us: float
    tau_free_us: float
    metadata: dict


def thermal_velocity_sigma(temperature_uK: float, mass_amu: float) -> float:
    """1-d Maxwell-Boltzmann sigma, sqrt(kB T / m), in um/us."""
    if temperature_uK <= 0:
        raise ValueError("temperature must be positive")
    return float(np.sqrt(K_BOLTZMANN * temperature_uK * 1e-6 / (mass_amu * AMU)))


def motional_coherence_time_us(delta_k_rad_per_um: float, temperature_uK: float, mass_amu: float) -> float:
    """1/(|dk| sigma_v): the 1/e time of the retrieved-signal envelope C(t)^2."""
    sigma_v = thermal_velocity_sigma(temperature_uK, mass_amu)
    dk = abs(delta_k_rad_per_um)
    if dk == 0.0:
        return float("inf")
    return float(1.0 / (dk * sigma_v))


def raman_rabi_local(scheme: RamanLevelScheme) -> tuple:
    """Effective two-photon Rabi frequency and residual differential shift.

    Evaluated at the peak of both beams; the Gaussian profile across the
    cloud enters the simulation through ``_four_level_hamiltonian``. The
    differential shift vanishes by construction for the shift-cancelling
    weights.
    """
    o1 = scheme.omega_ground
    o2 = scheme.omega_rydberg
    path_sum = scheme.branch_1 / scheme.detuning_1 + scheme.branch_2 / scheme.detuning_2
    omega_eff = (o1 * o2 / 2.0) * path_sum
    shift_weight = abs(scheme.branch_1) / scheme.detuning_1 + abs(scheme.branch_2) / scheme.detuning_2
    light_shift = (o1**2 / 4.0 - o2**2 / 4.0) * shift_weight
    return float(omega_eff), float(light_shift)


def _four_level_hamiltonian(scheme: RamanLevelScheme, s1, s2, doppler):
    """Batched 4x4 Hamiltonians, shape (n, 4, 4). Inputs are arrays of n."""
    n = len(s1)
    d1 = np.sqrt(abs(scheme.branch_1))
    d2 = np.sqrt(abs(scheme.branch_2))
    g1 = np.sign(scheme.branch_1) * d1
    g2 = np.sign(scheme.branch_2) * d2
    H = np.zeros((n, 4, 4), dtype=complex)
    H[:, LEVEL_E1, LEVEL_E1] = -scheme.detuning_1
    H[:, LEVEL_E2, LEVEL_E2] = -scheme.detuning_2
    oc = scheme.omega_ground * s1 / 2.0
    od = scheme.omega_rydberg * s2 / 2.0
    H[:, LEVEL_E1, LEVEL_S] = d1 * oc
    H[:, LEVEL_S, LEVEL_E1] = d1 * oc
    H[:, LEVEL_E2, LEVEL_S] = d2 * oc
    H[:, LEVEL_S, LEVEL_E2] = d2 * oc
    H[:, LEVEL_E1, LEVEL_R] = g1 * od
    H[:, LEVEL_R, LEVEL_E1] = g1 * od
    H[:, LEVEL_E2, LEVEL_R] = g2 * od
    H[:, LEVEL_R, LEVEL_E2] = g2 * od
    H[:, LEVEL_R, LEVEL_R] = doppler
    return H


def raman_splitting_exact(scheme: RamanLevelScheme) -> float:
    """Exact s-r oscillation frequency from the 4-level eigenvalues.

    This is what the simulated homogeneous oscillation actually runs at;
    it deviates from the adiabatic-elimination formula at relative order
    (Omega / 2 Delta)^2, about a percent for the default parameters.
    """
    H = _four_level_hamiltonian(scheme, np.ones(1), np.ones(1), np.zeros(1))[0]
    evals, evecs = np.linalg.eigh(H)
    weights = abs(evecs[LEVEL_S, :]) ** 2 * abs(evecs[LEVEL_R, :]) ** 2
    idx = np.argsort(weights)[-2:]
    return float(abs(evals[idx[0]] - evals[idx[1]]))


def sample_atoms(ens: EnsembleConfig, n_samples: int, seed: int) -> tuple:
    """(positions in um, velocities in um/us), each of shape (n_samples, 3).

    Sample i comes from its own stream derived from (seed, i), so it does
    not depend on how many samples are drawn. A velocity in um/us is
    numerically identical to one in m/s.
    """
    if seed is None:
        raise SeedRequiredError("an explicit RNG seed is required")
    sigma_x = np.asarray(ens.cloud_sigma_um, dtype=float)
    sigma_v = thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu)
    positions = np.empty((n_samples, 3))
    velocities = np.empty((n_samples, 3))
    for i in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        positions[i] = rng.normal(0.0, sigma_x, size=3)
        velocities[i] = rng.normal(0.0, sigma_v, size=3)
    return positions, velocities


def _vec_index(i, j):
    return 4 * i + j


def _batched_lindblad_trace(H, gamma, t_grid_s):
    """Rydberg population for a batch of time-independent Liouvillians.

    H: (n, 4, 4); collapse: sqrt(gamma)|s><e1|, sqrt(gamma)|s><e2|.
    Returns (n_t, n) array of rho_rr. Row-major vec convention.
    """
    n = H.shape[0]
    eye = np.eye(4)

    def kron_batch(A, B):
        if A.ndim == 2:
            A = np.broadcast_to(A, (n, 4, 4))
        if B.ndim == 2:
            B = np.broadcast_to(B, (n, 4, 4))
        return np.einsum("nij,nkl->nikjl", A, B).reshape(n, 16, 16)

    L_super = -1j * (kron_batch(H, eye) - kron_batch(eye, np.transpose(H, (0, 2, 1))))
    for e_level in (LEVEL_E1, LEVEL_E2):
        L = np.zeros((4, 4), dtype=complex)
        L[LEVEL_S, e_level] = np.sqrt(gamma)
        LdL = L.conj().T @ L
        L_super += kron_batch(L, L.conj())
        L_super -= 0.5 * (kron_batch(LdL, eye) + kron_batch(eye, LdL.T))

    evals, evecs = np.linalg.eig(L_super)
    rho0 = np.zeros(16, dtype=complex)
    rho0[_vec_index(LEVEL_R, LEVEL_R)] = 1.0
    c0 = np.linalg.solve(evecs, np.broadcast_to(rho0, (n, 16)).copy()[..., None])[..., 0]
    rr = _vec_index(LEVEL_R, LEVEL_R)
    out = np.empty((len(t_grid_s), n))
    row = evecs[:, rr, :]  # (n, 16)
    for it, t in enumerate(t_grid_s):
        out[it] = np.einsum("nk,nk->n", row, np.exp(evals * t) * c0).real
    return out


def _batched_amplitudes(H, gamma, t_grid_s):
    """<r|psi(t)> for the no-jump (non-Hermitian) evolution from |r>.

    With gamma == 0 this is the exact unitary amplitude. Returns
    (n_t, n) complex array.
    """
    H_eff = H.astype(complex).copy()
    H_eff[:, LEVEL_E1, LEVEL_E1] += -0.5j * gamma
    H_eff[:, LEVEL_E2, LEVEL_E2] += -0.5j * gamma
    if gamma == 0.0:
        evals, evecs = np.linalg.eigh(H_eff)
        inv_r = np.conj(evecs[:, LEVEL_R, :])  # unitary inverse row
    else:
        evals, evecs = np.linalg.eig(H_eff)
        e_r = np.zeros(4, dtype=complex)
        e_r[LEVEL_R] = 1.0
        inv_r = np.linalg.solve(evecs, np.broadcast_to(e_r, (H.shape[0], 4)).copy()[..., None])[..., 0]
    row = evecs[:, LEVEL_R, :]
    out = np.empty((len(t_grid_s), H.shape[0]), dtype=complex)
    for it, t in enumerate(t_grid_s):
        out[it] = np.einsum("nk,nk->n", row, np.exp(-1j * evals * t) * inv_r)
    return out


def simulate_single_excitation(
    geo: BeamGeometry,
    ens: EnsembleConfig,
    scheme: RamanLevelScheme,
    flags: SimulationFlags,
    n_samples: int,
    seed: int,
    t_grid_us,
) -> DephasingResult:
    """Ensemble-averaged Rydberg population and spin-wave projection.

    The projection is |mean over atoms of the coherent r amplitude|^2,
    normalized to 1 at t = 0; it can never exceed the population.
    """
    if n_samples < 100:
        raise SampleCountError(f"need at least 100 samples, got {n_samples}")
    if seed is None:
        raise SeedRequiredError("an explicit RNG seed is required")
    t_grid_us = np.asarray(t_grid_us, dtype=float)
    t_grid_s = t_grid_us * 1e-6

    k_sw = protocol_modes(geo).k2  # Rydberg spin-wave wave vector, rad/um
    pos, vel = sample_atoms(ens, n_samples, seed)

    if flags.inhomogeneity:
        rho_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2
        s1 = np.exp(-rho_sq / scheme.waist_ground_um**2)
        s2 = np.exp(-rho_sq / scheme.waist_rydberg_um**2)
    else:
        s1 = np.ones(n_samples)
        s2 = np.ones(n_samples)

    if flags.motion:
        doppler = (vel @ k_sw) * 1e6  # rad/um * um/us -> rad/us -> rad/s
    else:
        doppler = np.zeros(n_samples)

    H = _four_level_hamiltonian(scheme, s1, s2, doppler)
    gamma = scheme.gamma_e if flags.scattering else 0.0

    amps = _batched_amplitudes(H, gamma, t_grid_s)
    projection = np.abs(amps.mean(axis=1)) ** 2
    if t_grid_us[0] == 0.0:
        projection = projection / projection[0]

    if flags.scattering:
        population = _batched_lindblad_trace(H, gamma, t_grid_s).mean(axis=1)
    else:
        population = (np.abs(amps) ** 2).mean(axis=1)

    omega_eff, _ = raman_rabi_local(scheme)
    tau_osc = fit_envelope_time_us(t_grid_us, projection, abs(raman_splitting_exact(scheme)))
    tau_free = motional_coherence_time_us(
        np.linalg.norm(k_sw), ens.temperature_uK, ens.atomic_mass_amu
    )
    return DephasingResult(
        t_grid_us=t_grid_us,
        population_r=population,
        spinwave_projection=projection,
        tau_osc_us=tau_osc,
        tau_free_us=tau_free,
        metadata={
            "n_samples": n_samples,
            "seed": seed,
            "flags": {"motion": flags.motion, "inhomogeneity": flags.inhomogeneity,
                      "scattering": flags.scattering},
            "omega_eff_rad_s": omega_eff,
            "spinwave_k_rad_um": float(np.linalg.norm(k_sw)),
            "tau_convention": (
                "tau_osc: 1/e time of the fitted Gaussian envelope of the projection "
                "(intensity level); tau_free: 1/e time of the free retrieved-signal "
                "envelope, 1/(|dk| sigma_v)"
            ),
        },
    )


def fit_envelope_time_us(t_grid_us, projection, omega_guess_rad_s: float) -> float:
    """Fit exp(-(t/w)^2) (a cos(w_osc t) + b) and return w in us.

    An effectively undamped trace returns a very large w rather than
    failing, so the caller can treat "no decay" uniformly. A fit that does
    not converge raises FitError.
    """
    t = np.asarray(t_grid_us, dtype=float)
    p = np.asarray(projection, dtype=float)
    t_span = t[-1] - t[0] if len(t) > 1 else 1.0
    w_guess = t_span
    omega_us = omega_guess_rad_s * 1e-6  # rad/us

    def model(tt, a, b, w, om, phi):
        return np.exp(-((tt / w) ** 2)) * (a * np.cos(om * tt + phi) + b)

    p0 = [0.5, 0.5, w_guess, omega_us, 0.0]
    bounds = ([0.0, 0.0, 1e-3 * t_span, 0.0, -np.pi], [2.0, 2.0, 1e4 * t_span, np.inf, np.pi])
    try:
        popt, _ = curve_fit(model, t, p, p0=p0, bounds=bounds, maxfev=40000)
    except RuntimeError as exc:
        raise FitError(f"envelope fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b): {exc}") from None
    return float(popt[2])
