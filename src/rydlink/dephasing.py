"""Monte Carlo model of single-excitation read-out losses.

Each sampled atom carries a frozen position (for Gaussian-beam intensity)
and a Maxwell-Boltzmann velocity (for Doppler dephasing of the Rydberg
spin wave), and evolves as a four-level {s, e1, e2, r} system under the
two-path Raman coupling of beams C (ground side) and E (Rydberg side) of
the ``BeamGeometry``. Intermediate-state scattering enters as Lindblad
collapse back into |s>: it feeds the incoherent Rydberg population while
destroying the spin-wave coherence, which is exactly the gap between the
population curve and the collective-projection curve.

Per-atom Liouvillians are time independent, so the batch is propagated
spectrally (one eigendecomposition per atom) rather than by stepping. On
the 16 real coordinates of rho (populations, then Re and Im of each
coherence) the Liouvillian is a real matrix, so its complex eigenmodes come
in conjugate pairs and each pair is summed once. The spectral sum over
eigenmodes is evaluated on a uniform time grid by recurrence: one multiply
by exp(rate dt) per mode and step, not one complex exponential per mode and
time point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .collective import EnsembleConfig
from .geometry import BeamGeometry, protocol_modes
from .measurement import ATOM_STREAM, rng_blocks

K_BOLTZMANN = 1.380649e-23  # J/K
AMU = 1.66053906892e-27  # kg

# level ordering in the four-level space
LEVEL_S, LEVEL_E1, LEVEL_E2, LEVEL_R = 0, 1, 2, 3

BOUNDS_TOL = 1e-9  # rounding allowed in 0 <= projection <= population <= 1
MIN_SAMPLES = 100  # fewest sampled atoms for a meaningful ensemble average
STIFFNESS_TOL = 1e-10  # largest eps |Re lambda| t_max the spectral Lindblad sum may lose to rounding


@functools.cache
def _liouville_maps():
    """(dual, hmap, dissipator) of the real coordinates of a Hermitian 4x4 X: the populations
    X_ii, then Re X_ij and Im X_ij for each i < j, so rho_rr is coordinate LEVEL_R.

    x_k = Tr(dual[k] X). The real Liouvillian of H is (coords of H) @ hmap reshaped to
    16 x 16, plus gamma dissipator, the collapse part of |s><e1| and |s><e2| at unit rate.
    Column l of either holds the coordinates of the image of basis matrix l, which is
    Hermitian, so both are real. Built on first use, so commands without scattering skip it.
    """
    i, j = np.triu_indices(4, 1)
    re, im = np.arange(4, 16, 2), np.arange(5, 16, 2)
    basis = np.zeros((16, 4, 4), dtype=complex)
    basis[range(4), range(4), range(4)] = basis[re, i, j] = basis[re, j, i] = 1.0
    basis[im, i, j], basis[im, j, i] = 1j, -1j
    dual = basis / np.einsum("kab,kba->k", basis, basis)[:, None, None]
    jump = np.zeros((2, 4, 4))
    jump[0, LEVEL_S, LEVEL_E1] = jump[1, LEVEL_S, LEVEL_E2] = 1.0
    excited = np.einsum("eab,eab->b", jump, jump)  # diagonal of |e1><e1| + |e2><e2|
    commutators = -1j * (basis[:, None] @ basis - basis @ basis[:, None])  # -i[basis[k], basis[l]]
    collapse = np.einsum("eab,lbc,edc->lad", jump, basis, jump) - 0.5 * (excited[:, None] + excited) * basis
    hmap, dissipator = (np.einsum("mab,...ba->...m", dual, X).real for X in (commutators, collapse))
    return dual, hmap.transpose(0, 2, 1).reshape(16, 256), dissipator.T


class SampleCountError(ValueError):
    """Too few sampled atoms for a meaningful ensemble average."""


class FitError(RuntimeError):
    """The envelope fit of the spin-wave projection did not converge."""


class BatchError(RuntimeError):
    """The ensemble batch is too stiff, or gave a population outside [0, 1] or a projection above it."""


def shift_cancelling_branch_weights(detuning_1: float, detuning_2: float) -> tuple:
    """Signed weights of the paths via |e1> and |e2> that null the differential light shift.

    Their magnitudes are the intermediate-state admixtures and their relative
    sign is the product of the transition-amplitude signs along each path.
    Requires opposite-sign detunings; the weights then also make the two
    Raman paths add constructively.
    """
    if detuning_1 * detuning_2 >= 0:
        raise ValueError("light-shift cancellation needs nonzero detunings of opposite sign")
    a1, a2 = abs(detuning_1), abs(detuning_2)
    w1 = a1 / (a1 + a2)
    w2 = a2 / (a1 + a2)
    return (np.sign(detuning_1) * w1, np.sign(detuning_2) * w2)


@dataclass(frozen=True)
class SimulationFlags:
    motion: bool = False
    inhomogeneity: bool = False
    scattering: bool = False


@dataclass(frozen=True)
class DephasingResult:
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


def raman_rabi_local(geo: BeamGeometry) -> tuple:
    """Effective two-photon Rabi frequency and residual differential shift.

    Evaluated at the peak of both beams; the Gaussian profile across the
    cloud enters the simulation through ``_four_level_hamiltonian``. The
    differential shift vanishes by construction for the shift-cancelling
    weights.
    """
    o1, o2 = geo.beams["C"].rabi, geo.beams["E"].rabi
    b1, b2 = shift_cancelling_branch_weights(geo.detuning_1, geo.detuning_2)
    path_sum = b1 / geo.detuning_1 + b2 / geo.detuning_2
    omega_eff = (o1 * o2 / 2.0) * path_sum
    shift_weight = abs(b1) / geo.detuning_1 + abs(b2) / geo.detuning_2
    light_shift = (o1**2 / 4.0 - o2**2 / 4.0) * shift_weight
    return float(omega_eff), float(light_shift)


def _four_level_hamiltonian(geo: BeamGeometry, s1, s2, doppler):
    """Batched 4x4 Hamiltonians, shape (n, 4, 4). Inputs are arrays of n: the
    relative intensities of beam C (ground side, s1) and beam E (Rydberg side,
    s2) and the Doppler shift of |r>, rad/s."""
    H = np.zeros((len(s1), 4, 4), dtype=complex)
    oc = geo.beams["C"].rabi * s1 / 2.0
    od = geo.beams["E"].rabi * s2 / 2.0
    branches = shift_cancelling_branch_weights(geo.detuning_1, geo.detuning_2)
    for e, detuning, branch in zip((LEVEL_E1, LEVEL_E2), (geo.detuning_1, geo.detuning_2), branches):
        d = np.sqrt(abs(branch))
        H[:, e, e] = -detuning
        H[:, e, LEVEL_S] = H[:, LEVEL_S, e] = d * oc
        H[:, e, LEVEL_R] = H[:, LEVEL_R, e] = np.sign(branch) * d * od
    H[:, LEVEL_R, LEVEL_R] = doppler
    return H


def raman_splitting_exact(geo: BeamGeometry) -> float:
    """Exact s-r oscillation frequency from the 4-level eigenvalues.

    This is what the simulated homogeneous oscillation actually runs at;
    it deviates from the adiabatic-elimination formula at relative order
    (Omega / 2 Delta)^2, about a percent for the default parameters.
    """
    H = _four_level_hamiltonian(geo, np.ones(1), np.ones(1), np.zeros(1))[0]
    evals, evecs = np.linalg.eigh(H)
    weights = abs(evecs[LEVEL_S, :]) ** 2 * abs(evecs[LEVEL_R, :]) ** 2
    idx = np.argsort(weights)[-2:]
    return float(abs(evals[idx[0]] - evals[idx[1]]))


def sample_atoms(ens: EnsembleConfig, n_samples: int, seed: int) -> tuple:
    """(positions in um, velocities in um/us), each of shape (n_samples, 3).

    Samples are drawn in blocks from streams (ATOM_STREAM, b) of
    ``measurement.rng_blocks``, positions then velocities per sample, so
    sample i does not depend on how many samples are drawn. A velocity in
    um/us is numerically identical to one in m/s.
    """
    sigma_v = thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu)
    scale = np.stack([np.asarray(ens.cloud_sigma_um, dtype=float), np.full(3, sigma_v)])
    blocks = rng_blocks(seed, n_samples, ATOM_STREAM)
    draws = np.concatenate([rng.normal(0.0, scale, size=(n, 2, 3)) for rng, n in blocks])
    return draws[:, 0], draws[:, 1]


def _spectral_sum(weights, rates, t_grid_s):
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


def _real_liouvillian(H, gamma):
    """(n, 16, 16) real Liouvillians of the Hamiltonians H (n, 4, 4) with the collapses
    sqrt(gamma)|s><e1| and sqrt(gamma)|s><e2|, acting on the coordinates of rho."""
    dual, hmap, dissipator = _liouville_maps()
    h = np.einsum("kab,nba->nk", dual, H).real
    return (h @ hmap).reshape(-1, 16, 16) + gamma * dissipator


def _batched_lindblad_trace(H, gamma, t_grid_s):
    """Rydberg population for a batch of time-independent Liouvillians.

    H: (n, 4, 4); collapse: sqrt(gamma)|s><e1|, sqrt(gamma)|s><e2|.
    Returns (n_t, n) array of rho_rr. The Liouvillian is real, so its complex modes come in
    exactly conjugate pairs with conjugate terms: each pair is summed once, as twice the
    mode with Im > 0, and the real part taken. A batch so stiff that its fastest decay
    rate times the last time exceeds STIFFNESS_TOL / eps raises BatchError.
    """
    evals, evecs = np.linalg.eig(_real_liouvillian(H, gamma))
    stiffness = np.finfo(float).eps * np.abs(evals.real).max() * np.abs(t_grid_s).max()
    if not stiffness <= STIFFNESS_TOL:
        raise BatchError(f"gamma_e {gamma:.6g} rad/s: too stiff, eps |Re lambda| t_max = {stiffness:.3g}")
    weights = evecs[:, LEVEL_R, :] * np.linalg.solve(evecs, np.eye(16)[:, [LEVEL_R]])[..., 0]
    weights *= 2.0 * (evals.imag > 0) + (evals.imag == 0)
    # Im >= 0 modes first, cut to the largest per-atom count; past its own count an atom has weight 0
    kept = np.argsort(evals.imag < 0, axis=1, kind="stable")[:, : (evals.imag >= 0).sum(axis=1).max()]
    weights, evals = (np.take_along_axis(a, kept, axis=1) for a in (weights, evals))
    return _spectral_sum(weights, evals, t_grid_s).real


def _batched_amplitudes(H, gamma, t_grid_s):
    """<r|psi(t)> for the no-jump (non-Hermitian) evolution from |r>.

    With gamma == 0 this is the exact unitary amplitude. Returns
    (n_t, n) complex array.
    """
    H_eff = H.astype(complex)
    H_eff[:, LEVEL_E1, LEVEL_E1] += -0.5j * gamma
    H_eff[:, LEVEL_E2, LEVEL_E2] += -0.5j * gamma
    if gamma == 0.0:
        evals, evecs = np.linalg.eigh(H_eff)
        inv_r = np.conj(evecs[:, LEVEL_R, :])  # unitary inverse row
    else:
        evals, evecs = np.linalg.eig(H_eff)
        inv_r = np.linalg.solve(evecs, np.eye(4)[:, [LEVEL_R]])[..., 0]
    return _spectral_sum(evecs[:, LEVEL_R, :] * inv_r, -1j * evals, t_grid_s)


def simulate_single_excitation(
    geo: BeamGeometry,
    ens: EnsembleConfig,
    gamma_e: float,
    flags: SimulationFlags,
    n_samples: int,
    seed: int,
    t_grid_us,
) -> DephasingResult:
    """Ensemble-averaged Rydberg population and spin-wave projection.

    Beams C and E of ``geo`` drive the Raman coupling; ``gamma_e`` is the
    intermediate-state decay rate, rad/s, used with ``flags.scattering``.
    The projection is |mean over atoms of the coherent r amplitude|^2,
    normalized to 1 at t = 0; it can never exceed the population, and a
    batch that breaks this or [0, 1] raises BatchError.
    """
    if n_samples < MIN_SAMPLES:
        raise SampleCountError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    t_grid_us = np.asarray(t_grid_us, dtype=float)
    t_grid_s = t_grid_us * 1e-6

    k_sw = protocol_modes(geo).k2  # Rydberg spin-wave wave vector, rad/um
    pos, vel = sample_atoms(ens, n_samples, seed)

    if flags.inhomogeneity:
        rho_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2
        s1 = np.exp(-rho_sq / geo.beams["C"].waist_um**2)
        s2 = np.exp(-rho_sq / geo.beams["E"].waist_um**2)
    else:
        s1 = np.ones(n_samples)
        s2 = np.ones(n_samples)

    if flags.motion:
        doppler = (vel @ k_sw) * 1e6  # rad/um * um/us -> rad/us -> rad/s
    else:
        doppler = np.zeros(n_samples)

    H = _four_level_hamiltonian(geo, s1, s2, doppler)
    gamma = gamma_e if flags.scattering else 0.0

    with np.errstate(over="ignore", invalid="ignore"):  # too fast a rate overflows: see the bounds check
        amps = _batched_amplitudes(H, gamma, t_grid_s)
        projection = np.abs(amps.mean(axis=1)) ** 2
        if t_grid_us[0] == 0.0:
            projection = projection / projection[0]
        if flags.scattering:
            del amps  # freed before the Lindblad batch allocates its stacks and output
            population = _batched_lindblad_trace(H, gamma, t_grid_s).mean(axis=1)
        else:
            population = (np.abs(amps) ** 2).mean(axis=1)
    bad = ~((np.abs(population - 0.5) <= 0.5 + BOUNDS_TOL) & (projection <= population + BOUNDS_TOL))
    if bad.any():
        raise BatchError(
            f"gamma_e {gamma:.6g} rad/s at detunings {geo.detuning_1:.6g}, {geo.detuning_2:.6g} rad/s: "
            f"a population outside [0, 1] or a projection above it at {bad.sum()} of {len(bad)} times"
        )

    omega_eff, _ = raman_rabi_local(geo)
    tau_osc = fit_envelope_time_us(t_grid_us, projection, abs(raman_splitting_exact(geo)))
    tau_free = motional_coherence_time_us(
        np.linalg.norm(k_sw), ens.temperature_uK, ens.atomic_mass_amu
    )
    return DephasingResult(
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


def curve_fit(*args, **kwargs):
    """``scipy.optimize.curve_fit``, imported on first call, so that commands
    without an envelope fit start without loading scipy."""
    from scipy.optimize import curve_fit as fit

    return fit(*args, **kwargs)


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
