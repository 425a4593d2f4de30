"""Deterministic ensemble model of single-excitation read-out losses.

Each atom carries a frozen position (for Gaussian-beam intensity) and a
Maxwell-Boltzmann velocity (for Doppler dephasing of the Rydberg spin wave),
and evolves as a four-level {s, e1, e2, r} system under the two-path Raman
coupling of beams C (ground side) and E (Rydberg side) of the
``BeamGeometry``. Intermediate-state scattering enters as Lindblad collapse
back into |s>: it feeds the incoherent Rydberg population while destroying
the spin-wave coherence, which is exactly the gap between the population
curve and the collective-projection curve.

An atom enters the model only through rho^2 = x^2 + y^2, which sets the
intensities of beams C and E, and its Doppler shift v.k2, so the ensemble
mean is an integral over those two variables (three for a cloud with
sigma_x != sigma_y). It is evaluated by a product Gauss rule (Golub and
Welsch, Math. Comp. 23, 221 (1969)): Gauss-Jacobi in the relative intensity
I = exp(-rho^2 / w^2) of the narrower beam, whose density on a Gaussian cloud
is proportional to I^(w^2 / (2 sigma^2) - 1), a midpoint rule in the azimuth
when the cloud is anisotropic, each azimuth node with its own sigma and so
its own Jacobi rule, and Gauss-Hermite in the Doppler shift. The other beam's
intensity is I^(w^2 / w_other^2). An axis whose mechanism is off collapses to
one node. The Doppler axis is sized by the run: it has the fewest Hermite nodes
whose mean of cos(x v), v standard normal, stays within DOPPLER_TOL of the exact
exp(-x^2 / 2) at every Doppler phase x up to the run's sigma_D t_max.

Per-node generators are time independent and the time grid is uniform from
t = 0, so exp(G t_i) = P^i with P = exp(G dt). P comes from Taylor-24 scaling
and squaring (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)),
and the n_t values of a node from about 2 sqrt(n_t) row and column powers of P
and one batched product, all matrix products over a stack of nodes. The nodes
go through BLOCK at a time, each stack reduced to its weighted sums before the
next is propagated, so no (points, nodes) array is held. On the 16
real coordinates of rho (populations, then Re and Im of each coherence) the
Liouvillian is a real matrix, and the no-jump generator -i H_eff is built real,
on the 8 coordinates (Re psi, Im psi) of the state.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .collective import EnsembleConfig
from .geometry import BeamGeometry, protocol_modes

K_BOLTZMANN = 1.380649e-23  # J/K
AMU = 1.66053906892e-27  # kg

# level ordering in the four-level space
LEVEL_S, LEVEL_E1, LEVEL_E2, LEVEL_R = 0, 1, 2, 3

BOUNDS_TOL = 1e-9  # rounding allowed in 0 <= projection <= population <= 1
# a run holds (points, BLOCK) arrays, so its memory grows with the points, not the nodes: the packaged
# 400 nodes at 2**16 points allocate about 100 MiB (0.6 GB when whole (points, nodes) arrays were held).
# The values, points x nodes, bound the propagation's work: 640 nodes take 2**16 points, and a rule of
# more nodes is refused beyond that many
MAX_DEPHASING_POINTS = 2**16
MAX_DEPHASING_VALUES = 640 * MAX_DEPHASING_POINTS
# smallest node budget, set under the fixed 32-node Doppler rule that the sized one replaced: the rule
# of a motion + inhomo run there shrinks to 11 x 4 x 8 nodes on a (3.5, 5.0) um cloud, 3.6e-5 from the
# full rule in population and projection (40 points over 4 us), and one node fewer to 10 x 4 x 8, 2.2e-4
# from it. The sized rule shrinks to 17 x 4 x 5 there, 3.7e-5 from its full rule (as at every budget from
# 240 to 359), and to 20 x 17 on the packaged cloud, 1.1e-13 from it
MIN_SAMPLES = 352
STIFFNESS_TOL = 1e-10  # largest eps gamma t_max, the rounding the Lindblad propagation may lose
# Levenberg-Marquardt steps of the envelope fit; the dataset and ensemble fits take 4 to 12 residual evaluations
FIT_MAX_STEPS = 200
# smallest Raman phase omega t_max the envelope fit starts from, one Raman period: in a window of less
# the cosine term and the Gaussian envelope fit the same parabola, so the envelope time cannot be told
# (with no mechanism the fit writes 3.4 us at 1.9 rad, and no decay from 3.4 rad up)
MIN_FIT_PHASE = 2.0 * math.pi
# smallest Raman splitting, in units of the rounding raman_splitting gives: eigh leaves at most 0.62
# of that in the splitting (either detuning alone from 1e2 to 1e13 MHz, against 50 digits), so one
# above 100 of it is within a percent
MIN_SPLITTING_ROUNDINGS = 100.0

# nodes of the full product rule over the atoms, at which it matches a rule of twice
# the nodes on every axis to 1e-12 on the packaged cloud and to 1e-8 on a 7 um one
N_X = 20  # Gauss-Jacobi, in the relative intensity of the narrower of beams C and E
N_THETA = 16  # midpoint, in the azimuth on [0, pi/2]; only when sigma_x != sigma_y
# Gauss-Hermite, in the Doppler shift: a run takes the fewest nodes n whose mean of cos(x v) stays
# within DOPPLER_TOL of exp(-x^2 / 2) for every Doppler phase x up to its own sigma_D t_max, the
# first n whose reach DOPPLER_REACH[n - 1] covers it (20 for the packaged 2.56 rad). The reach of
# n nodes is the phase, to 1e-9 relative, where their miss first exceeds 0.99 DOPPLER_TOL, which
# leaves the 1e-16 of rounding in the miss room below the tolerance; beyond it the miss oscillates,
# and may pass through zero, so the reach, not the miss at t_max alone, sizes a run (tests check
# the table against oracles.doppler_reach, the bisection that wrote it).
DOPPLER_TOL = 1e-13
DOPPLER_REACH = (
    4.448954354918655e-07, 0.0010439753532409668, 0.015101470262379735, 0.059947986164843314,
    0.14052398706553504, 0.2523735169052088, 0.38830291625345126, 0.541734398866538,
    0.7073531491914764, 0.8812904357910156, 1.0606765843112953, 1.2432882192661054,
    1.4277747366577387, 1.612979769706726, 1.7980194187839516, 1.9822034999378957,
    2.1657348456210457, 2.348022470541764, 2.528305081941653, 2.706823367625475,
    2.883954171265941, 3.058849271328654, 3.2319283590186387, 3.4032186868716963,
    3.572444936435204, 3.739843698567711, 3.9056396487285383, 4.06917307554977,
    4.231300354877021, 4.390926164051052, 4.549589027301408, 4.70591576769948,
    4.861145317554474, 5.014239550509956,
)
N_V = len(DOPPLER_REACH)
# largest Doppler phase sigma_D t_max a run may reach, 5.014 rad for the N_V = 34 nodes: every phase
# up to 5 rad runs (32 nodes reach only 4.71, and miss by 2.4e-12 at 5)
DOPPLER_PHASE_MAX = DOPPLER_REACH[-1]
# smallest b = w^2 / (2 sigma^2) of the Gauss-Jacobi axis: there the N_X-node rule's moments <I^k>,
# k < 2 N_X, are exact to 2e-8 relative (4e-6 at 1e-10). Its nodes are (1 + t) / 2 with an absolute
# rounding of eps, and the smallest, about b / 400, is zero or negative from b ~ 1e-14
MIN_JACOBI_B = 1e-8
# a budget below the full rule shrinks the azimuth and Doppler axes to no less than this share
# of their nodes before n_x: 4 x 5 nodes (of 16 x 20 at the packaged phase) lose 3.7e-5 on a
# (3.5, 5.0) um cloud
MIN_FAST_SCALE = 0.25


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


class FitError(RuntimeError):
    """The envelope fit of the spin-wave projection did not converge."""


class BatchError(RuntimeError):
    """The ensemble batch gave a population outside [0, 1] or a projection above it."""


class Refused(ValueError):
    """A run that the inputs rule out before any propagation. ``limit`` names the limit it breaks:
    "detunings", "thermal", "splitting", "fit_phase", "tau_free", "doppler", "stiffness", "jacobi"
    or "values"."""

    def __init__(self, limit: str, message: str):
        super().__init__(message)
        self.limit = limit


def shift_cancelling_branch_weights(detuning_1: float, detuning_2: float) -> tuple:
    """Signed weights of the paths via |e1> and |e2> that null the differential light shift.

    Their magnitudes are the intermediate-state admixtures and their relative
    sign is the product of the transition-amplitude signs along each path.
    Requires opposite-sign detunings, and raises Refused otherwise; the weights
    then also make the two Raman paths add constructively.
    """
    if detuning_1 * detuning_2 >= 0:
        raise Refused("detunings", "light-shift cancellation needs nonzero detunings of opposite sign")
    a1, a2 = abs(detuning_1), abs(detuning_2)
    w1 = a1 / (a1 + a2)
    w2 = a2 / (a1 + a2)
    return (np.sign(detuning_1) * w1, np.sign(detuning_2) * w2)


@dataclass(frozen=True)
class SimulationFlags:
    """The mechanisms of a run, named as the ``--flags`` of ``rydlink dephasing``."""

    motion: bool = False
    inhomo: bool = False
    scatter: bool = False


class EnvelopeTime(float):
    """A fitted envelope time w in us that also carries ``se_us``, the standard error of w from
    the fit's covariance, or None where that is not finite; callers that need only w use it as
    the float it is."""

    def __new__(cls, w_us: float, se_us: float | None):
        self = super().__new__(cls, w_us)
        self.se_us = se_us
        return self


def thermal_velocity_sigma(temperature_uK: float, mass_amu: float) -> float:
    """1-d Maxwell-Boltzmann sigma, sqrt(kB T / m), in um/us."""
    return float(np.sqrt(K_BOLTZMANN * temperature_uK * 1e-6 / (mass_amu * AMU)))


def motional_coherence_time_us(delta_k_rad_per_um: float, temperature_uK: float, mass_amu: float) -> float:
    """1/(|dk| sigma_v): the 1/e time of the retrieved-signal envelope C(t)^2."""
    sigma_v = thermal_velocity_sigma(temperature_uK, mass_amu)
    dk = abs(delta_k_rad_per_um)
    if dk == 0.0:
        return float("inf")
    return float(1.0 / (dk * sigma_v))


def raman_rabi_local(geo: BeamGeometry) -> float:
    """Effective two-photon Rabi frequency, rad/s, by adiabatic elimination.

    Evaluated at the peak of both beams; the Gaussian profile across the
    cloud enters the simulation through ``_four_level_hamiltonian``.
    """
    b1, b2 = shift_cancelling_branch_weights(geo.detuning_1, geo.detuning_2)
    return float(geo.beams["C"].rabi * geo.beams["E"].rabi / 2.0 * (b1 / geo.detuning_1 + b2 / geo.detuning_2))


def _four_level_hamiltonian(geo: BeamGeometry, s1, s2, doppler):
    """Batched real symmetric 4x4 Hamiltonians, shape (n, 4, 4). Inputs are arrays of n: the
    relative intensities of beam C (ground side, s1) and beam E (Rydberg side,
    s2) and the Doppler shift of |r>, rad/s."""
    H = np.zeros((len(s1), 4, 4))
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


def raman_splitting(geo: BeamGeometry) -> tuple:
    """(splitting, rounding), rad/s: the exact s-r oscillation frequency from the eigenvalues E of
    the 4-level Hamiltonian at the peak of both beams, at rest, and eps max|E|, the scale of the
    absolute rounding eigh leaves in each of them, and so in the splitting.

    The splitting is what the simulated homogeneous oscillation actually runs at; it deviates
    from the adiabatic-elimination formula at relative order (Omega / 2 Delta)^2, about a
    percent for the default parameters.
    """
    evals, evecs = np.linalg.eigh(_four_level_hamiltonian(geo, np.ones(1), np.ones(1), np.zeros(1))[0])
    weights = abs(evecs[LEVEL_S, :]) ** 2 * abs(evecs[LEVEL_R, :]) ** 2
    idx = np.argsort(weights)[-2:]
    return float(abs(evals[idx[0]] - evals[idx[1]])), float(np.finfo(float).eps * np.abs(evals).max())


def rule_sizes(ens: EnsembleConfig, flags: SimulationFlags, budget: int, phase: float) -> tuple:
    """(n_x, n_theta, n_v), the nodes of the product rule on each axis of a run that reaches the
    Doppler phase sigma_D t_max = ``phase``.

    An axis whose mechanism is off has one node, and so has the azimuth of an
    isotropic cloud; the Doppler axis has doppler_nodes(phase). A full rule of more
    than ``budget`` nodes first shrinks the azimuth and Doppler axes by one factor, to no
    less than MIN_FAST_SCALE of their nodes, and then n_x until the product fits.
    """
    sigma_x, sigma_y, _ = ens.cloud_sigma_um
    full = (
        N_X if flags.inhomo else 1,
        N_THETA if flags.inhomo and sigma_x != sigma_y else 1,
        doppler_nodes(phase) if flags.motion else 1,
    )
    if math.prod(full) <= budget:
        return full
    n_x, *fast = full
    shrunk = sum(n > 1 for n in fast)
    scale = max(MIN_FAST_SCALE, (budget / math.prod(full)) ** (1.0 / shrunk)) if shrunk else 1.0
    fast = [max(1, int(n * scale)) for n in fast]
    return (max(1, min(n_x, budget // math.prod(fast))), *fast)


def jacobi_rule(b, n: int) -> tuple:
    """(nodes, weights), each (len(b), n): the n-point Gauss rules on (0, 1) for the densities
    b x^(b - 1), one row per entry of b > 0, with weights summing to 1.

    Golub-Welsch: the nodes are (1 + t) / 2 for the eigenvalues t of the Jacobi matrix of the
    weight (1 + t)^beta on [-1, 1], beta = b - 1, and the weights the squared first components
    of its eigenvectors. The entries are written in b, not beta, so that they stay finite for
    b from the smallest normal float to its reciprocal.
    """
    b = np.asarray(b, dtype=float)[:, None]
    k = np.arange(1, n)
    m = 2 * k - 2 + b  # 2k + beta - 1
    J = np.zeros((len(b), n, n))
    J[:, 0, 0] = ((b - 1) / (b + 1))[:, 0]
    J[:, k, k] = ((b - 1) / (m + 1)) * ((b - 1) / (m + 3))
    J[:, k, k - 1] = J[:, k - 1, k] = 2 * k * ((k - 1 + b) / (m + 1)) / (np.sqrt(m) * np.sqrt(m + 2))
    t, vectors = np.linalg.eigh(J)
    weights = vectors[:, 0, :] ** 2
    return 0.5 * (1.0 + t), weights / weights.sum(axis=1, keepdims=True)


@functools.cache
def _hermite_rule(n: int) -> tuple:
    """(nodes, weights) of the n-point Gauss-Hermite rule for the standard normal density, the
    weights summing to 1; read-only, as every caller in the process shares them."""
    from numpy.polynomial import hermite_e

    v, w = hermite_e.hermegauss(n)
    w = w / w.sum()
    v.flags.writeable = w.flags.writeable = False
    return v, w


def doppler_miss(n: int, phase) -> np.ndarray:
    """|mean of cos(x v) over the n-node Hermite rule - exp(-x^2 / 2)| at each Doppler phase x:
    the error of the rule's mean of the phase factor exp(i x v) that a Doppler shift of v sigma_D
    winds up in |r> by the time x / sigma_D."""
    v, w = _hermite_rule(n)
    x = np.asarray(phase, dtype=float)
    return np.abs(np.cos(np.multiply.outer(x, v)) @ w - np.exp(-0.5 * x * x))


def doppler_nodes(phase: float) -> int:
    """The fewest Hermite nodes whose reach covers the Doppler phase, or N_V past DOPPLER_PHASE_MAX."""
    return min(bisect.bisect_left(DOPPLER_REACH, phase) + 1, N_V)


def atom_nodes(ens: EnsembleConfig, k_sw, waist_um: float, flags: SimulationFlags, sizes: tuple) -> tuple:
    """(rho^2 in um^2, Doppler shift in rad/s, weight) at each node of the rule over the atoms, with
    ``sizes`` = (n_x, n_theta, n_v) nodes on its axes, as rule_sizes gives them.

    Positions are Gaussian with sigma ``ens.cloud_sigma_um``, so x = sigma_x sqrt(2u) cos(theta),
    y = sigma_y sqrt(2u) sin(theta) with u ~ Exp(1) and theta uniform, and rho^2 = 2 u sigma_t^2
    with sigma_t^2 = sigma_x^2 cos^2(theta) + sigma_y^2 sin^2(theta). The relative intensity
    I = exp(-rho^2 / waist^2) of a beam of waist ``waist_um`` then has the density b I^(b - 1)
    on (0, 1], b = waist^2 / (2 sigma_t^2), and each azimuth node (one, at theta = pi/4, on an
    isotropic cloud) carries the Gauss rule of its own b. The Doppler shift v.k_sw is Gaussian
    with sigma sigma_v |k_sw|. Nodes run over rho^2 first, then the Doppler shift; the weights
    are positive and sum to 1.
    """
    n_x, n_theta, n_v = sizes
    rho_sq, w_rho = np.zeros(1), np.ones(1)
    if flags.inhomo:
        theta = (np.arange(n_theta) + 0.5) * np.pi / (2 * n_theta)
        tiny = np.finfo(float).tiny
        with np.errstate(over="ignore", divide="ignore"):
            # a cloud far wider or narrower than the beam gives b = 0 or inf: clipped, every atom
            # then sits at I = 0 or 1; below b ~ 1e-14 a node rounds to I <= 0, clipped to I = 0
            sx2, sy2 = np.square(np.divide(ens.cloud_sigma_um[:2], waist_um))
            b = np.clip(0.5 / (sx2 * np.cos(theta) ** 2 + sy2 * np.sin(theta) ** 2), tiny, 1.0 / tiny)
            intensity, w_x = jacobi_rule(b, n_x)
            rho_sq = -(waist_um**2) * np.log(np.clip(intensity, 0.0, 1.0)).ravel()
        w_rho = (w_x / n_theta).ravel()
    v, w_v = _hermite_rule(n_v) if flags.motion else (np.zeros(1), np.ones(1))
    sigma_doppler = thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu) * np.linalg.norm(k_sw)
    doppler = sigma_doppler * v * 1e6  # rad/um * um/us -> rad/us -> rad/s
    weights = np.outer(w_rho, w_v).ravel()
    return np.repeat(rho_sq, len(v)), np.tile(doppler, len(rho_sq)), weights


# 1/k! to degree 24 in rows of six; the largest 1-norm at which that polynomial's backward error is <= 2^-53
TAYLOR_24 = np.array([1.0 / math.factorial(k) if k <= 24 else 0.0 for k in range(30)]).reshape(5, 6)
THETA_24 = 2.2190488693650896
# nodes propagated, and reduced to their weighted sums, at once: bounds the temporaries of _expm and
# _powers and the (points, BLOCK) values a stack returns. The packaged motion + inhomo + scatter run at
# 640 points allocates at most 1.5 MiB above what is live before it (2.8 MiB at 128, 6.9 MiB when the
# whole (points, nodes) arrays were held). At 128 the Lindblad stack of a chunk outgrows twice the
# amplitude stack, the largest block glibc has mapped, so the heap is trimmed after each chunk: a warm
# benchmark ensemble pass faults about 1,600 pages in it, and about 400 at 64, though a call that
# faults at neither size computes 2-8% longer at 64.
BLOCK = 64


def _expm(A):
    """exp(A) of a stack of real square matrices (..., m, m), by Taylor-24 scaling and
    squaring: each matrix is scaled by 2^-s to a 1-norm of at most THETA_24, and its polynomial,
    sum_j B_j A^6j with B_j the row TAYLOR_24[j] times the stacked powers A^0 ... A^5, taken by
    Horner in A^6 (Paterson and Stockmeyer, SIAM J. Comput. 2, 60 (1973)) and squared s times."""
    with np.errstate(divide="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(np.abs(A).sum(axis=-2).max(axis=-1) / THETA_24))).astype(int)
    powers = np.empty((6, *A.shape), dtype=A.dtype)
    powers[0] = np.eye(A.shape[-1])
    np.multiply(A, (0.5**s)[..., None, None], out=powers[1])
    for i in range(2, 6):
        np.matmul(powers[i - 1], powers[1], out=powers[i])
    A6 = powers[3] @ powers[3]
    AR, R = TAYLOR_24[4, 0] * A6, np.empty_like(A6)  # A^6 B_4, and the buffer each B_j is built in
    for j in (3, 2, 1, 0):
        np.matmul(TAYLOR_24[j], powers.reshape(6, -1), out=R.reshape(-1))
        R += AR
        if j:
            np.matmul(A6, R, out=AR)
    del powers, A6, AR  # freed before the squarings allocate
    for j in range(s.max(initial=0)):
        if (s > j).all():
            R = R @ R
        else:
            R[s > j] = R[s > j] @ R[s > j]
    return R


def _powers(M, x, count):
    """(the rows x M^j for j < count, the last power of M they were multiplied by) for a real
    M (n, m, m) and x (r, m) or (n, r, m): an (n, count r, m) array with j outermost, built by
    doubling, and M^(2^c) with 2^c < count <= 2^(c + 1), or M itself when count is 1."""
    r = x.shape[-2]
    out = np.empty((len(M), count * r, M.shape[-1]))
    out[:, :r] = x
    done = r
    while done < count * r:
        if done > r:
            M = M @ M
        step = min(done, count * r - done)
        np.matmul(out[:, :step], M, out=out[:, done : done + step])
        done += step
    return out, M


def _propagate(G, rows, t_grid_s):
    """exp(G t)[rows, rows[0]] at each t of the grid for the real stack G (n, m, m), as an
    (n, n_t, len(rows)) array.

    The grid must start at t = 0 and be uniform to within the rounding of its points (any
    other raises ValueError), so exp(G t_i) = P^i with P = exp(G dt). Writing i = a B + b with
    B the least power of two >= sqrt(n_t), each value is the row e_j^T P^b times the column
    Q^a e_k, Q = P^B, k = rows[0]: the rows and columns come by doubling, and the values from
    one batched product over the stack, which holds all n_a B values of a < n_a = ceil(n_t / B)
    and is returned as its first n_t. simulate_single_excitation hands it BLOCK nodes at a time.
    """
    t = np.asarray(t_grid_s, dtype=float)
    n_t = len(t)
    dt = t[-1] / max(n_t - 1, 1)
    if t[0] != 0.0 or np.abs(t - dt * np.arange(n_t)).max() > 16 * np.finfo(float).eps * np.abs(t).max():
        raise ValueError("the propagator needs a uniformly spaced time grid from t = 0")
    eye = np.eye(G.shape[-1])
    n_b = 1 << math.ceil(math.log2(n_t) / 2)
    n_a = -(-n_t // n_b)
    powers, half = _powers(_expm(G * dt), eye[rows], n_b)  # e_j^T P^b, and P^(B/2)
    Q = half @ half
    cols, _ = _powers(Q.transpose(0, 2, 1), eye[rows[:1]], n_a)  # (Q^a e_k)^T
    # (n, a, b j): each value at a B + b
    return (cols @ powers.transpose(0, 2, 1)).reshape(len(G), n_a * n_b, -1)[:, :n_t]


def _real_liouvillian(H, gamma):
    """(n, 16, 16) real Liouvillians of the Hamiltonians H (n, 4, 4) with the collapses
    sqrt(gamma)|s><e1| and sqrt(gamma)|s><e2|, acting on the coordinates of rho."""
    dual, hmap, dissipator = _liouville_maps()
    h = np.einsum("kab,nba->nk", dual, H).real
    return (h @ hmap).reshape(-1, 16, 16) + gamma * dissipator


def _batched_lindblad_trace(H, gamma, t_grid_s):
    """Rydberg population for a batch of time-independent Liouvillians.

    H: (n, 4, 4); collapse: sqrt(gamma)|s><e1|, sqrt(gamma)|s><e2|.
    Returns (n_t, n) array of rho_rr. The fastest decay rate of this Liouvillian is gamma,
    so eps gamma t_max is the rounding it loses: simulate_single_excitation refuses a run
    where that exceeds STIFFNESS_TOL.
    """
    return _propagate(_real_liouvillian(H, gamma), [LEVEL_R], t_grid_s)[..., 0].T


def _batched_amplitudes(H, gamma, t_grid_s):
    """<r|psi(t)> for the no-jump (non-Hermitian) evolution from |r>.

    With gamma == 0 this is the exact unitary amplitude. Returns
    (n_t, n) complex array. The generator -i H_eff, H_eff = H - (i gamma / 2) on |e1> and
    |e2>, acts on (Re psi, Im psi) as the real [[D, H], [-H, D]], D = -gamma/2 there.
    """
    G = np.zeros((len(H), 8, 8))
    G[:, :4, 4:] = H
    np.negative(H, out=G[:, 4:, :4])
    excited = [LEVEL_E1, LEVEL_E2, 4 + LEVEL_E1, 4 + LEVEL_E2]
    G[:, excited, excited] = -0.5 * gamma
    return _propagate(G, [LEVEL_R, 4 + LEVEL_R], t_grid_s).view(complex)[..., 0].T


def simulate_single_excitation(
    geo: BeamGeometry,
    ens: EnsembleConfig,
    gamma_e: float,
    flags: SimulationFlags,
    n_samples: int,
    seed: int,
    t_grid_us,
) -> tuple:
    """(population, projection, record): the ensemble-averaged Rydberg population and spin-wave
    projection on ``t_grid_us``, and the record that ``rydlink dephasing`` writes as its JSON.

    Beams C and E of ``geo`` drive the Raman coupling; ``gamma_e`` is the
    intermediate-state decay rate, rad/s, used with ``flags.scatter``.
    The mean over atoms is the product rule of ``atom_nodes`` with at most
    ``n_samples`` nodes; it draws nothing, so ``seed`` is only recorded. The
    projection is |weighted mean of the coherent r amplitude|^2, normalized
    to 1 at t = 0; it can never exceed the population, and a batch that
    breaks this or [0, 1] raises BatchError.

    Every limit the inputs decide is checked first, before any node is built, and a run that breaks one
    raises Refused: detunings of one sign, a zero or infinite thermal velocity, MIN_SPLITTING_ROUNDINGS,
    MIN_FIT_PHASE, an infinite tau_free (every record writes it), DOPPLER_PHASE_MAX (with motion),
    STIFFNESS_TOL (with scatter), MIN_JACOBI_B (with inhomo) and MAX_DEPHASING_VALUES.
    """
    t_grid_us = np.asarray(t_grid_us, dtype=float)
    t_grid_s = t_grid_us * 1e-6
    t_max_s = np.abs(t_grid_s).max()

    shift_cancelling_branch_weights(geo.detuning_1, geo.detuning_2)  # refuses detunings of one sign
    sigma_v = thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu)
    if not 0.0 < sigma_v < math.inf:  # before tau_free divides by it
        raise Refused("thermal", f"the thermal velocity sqrt(kB T / m) is {sigma_v:.3g} um/us, not finite and nonzero")
    splitting, rounding = raman_splitting(geo)  # where the envelope fit starts
    floor, raman_phase = MIN_SPLITTING_ROUNDINGS * rounding, splitting * t_max_s
    if not splitting > floor:
        raise Refused("splitting", f"the Raman splitting {splitting:.3g} rad/s is below {floor:.3g} rad/s, "
                      f"{MIN_SPLITTING_ROUNDINGS:g} times the rounding of the eigenvalues it is the difference of")
    if not raman_phase >= MIN_FIT_PHASE:
        raise Refused("fit_phase", f"the dephasing window spans {raman_phase:.3g} rad of the Raman oscillation, too "
                      "little for the envelope fit to tell its decay from the oscillation (at least one period, "
                      f"{MIN_FIT_PHASE:.3g} rad)")
    k_sw = protocol_modes(geo).k2  # Rydberg spin-wave wave vector, rad/um
    k_len = np.linalg.norm(k_sw)
    tau_free = motional_coherence_time_us(k_len, ens.temperature_uK, ens.atomic_mass_amu)
    if not math.isfinite(tau_free):
        raise Refused("tau_free", f"the spin-wave wave vector k_A + k_B ({k_len:.6g} rad/um) gives no finite motional "
                      "coherence time 1/(|k2| sigma_v)")
    phase = np.abs(t_grid_us).max() / tau_free  # sigma_D t_max, the Doppler phase of the window
    if flags.motion and not phase <= DOPPLER_PHASE_MAX:
        raise Refused("doppler", f"Doppler phase sigma_D t_max = {phase:.3g} rad, above the {DOPPLER_PHASE_MAX:.4g} "
                      f"rad up to which the Doppler mean meets its tolerance {DOPPLER_TOL:g}")
    gamma = gamma_e if flags.scatter else 0.0
    stiffness = np.finfo(float).eps * gamma * t_max_s
    if not stiffness <= STIFFNESS_TOL:
        raise Refused("stiffness", f"gamma_e {gamma:.6g} rad/s is too stiff to propagate: eps gamma t_max = "
                      f"{stiffness:.3g}, above {STIFFNESS_TOL:g}")
    w_c, w_e = geo.beams["C"].waist_um, geo.beams["E"].waist_um
    ratio = min(w_c, w_e) / max(ens.cloud_sigma_um[:2])  # the Gauss-Jacobi axis is in the narrower beam
    if flags.inhomo and not 0.5 * ratio * ratio >= MIN_JACOBI_B:
        raise Refused("jacobi", f"the narrower Raman beam gives b = w^2 / (2 sigma^2) = {0.5 * ratio * ratio:.3g}, "
                      f"below the {MIN_JACOBI_B:g} down to which the atom rule keeps its nodes clear of rounding")
    sizes = rule_sizes(ens, flags, n_samples, phase)
    if len(t_grid_us) * math.prod(sizes) > MAX_DEPHASING_VALUES:
        raise Refused("values", f"{len(t_grid_us)} points at the {math.prod(sizes)} nodes of the rule take more "
                      f"than {MAX_DEPHASING_VALUES} values per array")

    rho_sq, doppler, weights = atom_nodes(ens, k_sw, min(w_c, w_e), flags, sizes)
    s1 = np.exp(-rho_sq / w_c**2)
    s2 = np.exp(-rho_sq / w_e**2)

    H = _four_level_hamiltonian(geo, s1, s2, doppler)

    # the weighted sums of the coherent r amplitude and of the Rydberg population, BLOCK nodes at a time
    amplitude, population = np.zeros(len(t_grid_s), dtype=complex), np.zeros(len(t_grid_s))
    with np.errstate(over="ignore", invalid="ignore"):  # too fast a rate overflows: see the bounds check
        for lo in range(0, len(weights), BLOCK):
            h, w = H[lo : lo + BLOCK], weights[lo : lo + BLOCK]
            amps = _batched_amplitudes(h, gamma, t_grid_s)
            amplitude += amps @ w
            if flags.scatter:
                del amps  # freed before the Lindblad batch allocates its stacks
                population += _batched_lindblad_trace(h, gamma, t_grid_s) @ w
            else:
                population += (np.abs(amps) ** 2) @ w
                del amps  # freed before the next chunk propagates
        projection = np.abs(amplitude) ** 2
        projection = projection / projection[0]
    bad = ~((np.abs(population - 0.5) <= 0.5 + BOUNDS_TOL) & (projection <= population + BOUNDS_TOL))
    if bad.any():
        raise BatchError(f"a population outside [0, 1] or a projection above it at {bad.sum()} of {len(bad)} times")
    # within BOUNDS_TOL of [0, 1] is rounding (the Taylor-24 step is not exactly unitary): written as the bound
    population, projection = np.clip(population, 0.0, 1.0), np.clip(projection, 0.0, 1.0)

    omega_eff = raman_rabi_local(geo)
    tau_osc = fit_envelope_time_us(t_grid_us, projection, splitting)
    record = {
        "flags": asdict(flags),
        "n_samples": n_samples,
        "n_nodes": len(weights),
        "seed": seed,
        "tau_osc_us": float(tau_osc),
        "tau_osc_se_us": tau_osc.se_us,
        "tau_free_us": tau_free,
        "metadata": {
            "omega_eff_rad_s": omega_eff,
            "spinwave_k_rad_um": float(k_len),
            "tau_convention": (
                "tau_osc: 1/e time of the fitted Gaussian envelope of the projection "
                "(intensity level); tau_free: 1/e time of the free retrieved-signal "
                "envelope, 1/(|dk| sigma_v)"
            ),
        },
    }
    if flags.motion:
        # the largest miss of the n_v that ran over the written times: up to its reach the miss only
        # grows, so up to rounding it is the miss at t_max, unless the budget shrank the axis below
        # the nodes the run's phase needs
        n_v = sizes[2]
        x = phase if n_v >= doppler_nodes(phase) else np.abs(t_grid_us) / tau_free
        record.update(doppler_tolerance=DOPPLER_TOL, doppler_miss=float(doppler_miss(n_v, x).max()))
    return population, projection, record


def _envelope_residual(tau, tau_sq, y, s, om):
    """(RSS, residual, Kaufman Jacobian (2, m), linear coefficients) of the envelope model at
    the nonlinear parameters (s, om) on the scaled times tau, with tau_sq = tau^2, or None
    where its Gram matrix is singular.

    The coefficients (c1, c2, b) of e cos(om tau), e sin(om tau) and e, e = exp(-s tau^2),
    solve the 3 x 3 normal equations; when that b is negative the constrained optimum has
    b = 0, and (c1, c2) solve the 2 x 2 ones. The Jacobian rows are the derivatives of the
    model in s and om with the span of the basis projected out (Kaufman, BIT 15, 49 (1975)),
    by the same Gram inverse as the coefficients.
    """
    basis = np.empty((3, len(tau)))
    np.multiply(om, tau, out=basis[1])
    np.cos(basis[1], out=basis[0])
    np.sin(basis[1], out=basis[1])
    np.multiply(-s, tau_sq, out=basis[2])
    np.exp(basis[2], out=basis[2])
    basis[:2] *= basis[2]
    gram, moments = basis @ basis.T, basis @ y
    try:
        inverse = np.linalg.inv(gram)
        c = inverse @ moments
        if c[2] < 0.0:
            basis, inverse = basis[:2], np.linalg.inv(gram[:2, :2])
            c = inverse @ moments[:2]
    except np.linalg.LinAlgError:
        return None
    model = c @ basis
    jac = np.empty((2, len(tau)))
    np.multiply(tau_sq, model, out=jac[0])
    np.negative(jac[0], out=jac[0])
    np.multiply(c[1], basis[0], out=jac[1])
    jac[1] -= c[0] * basis[1]
    jac[1] *= tau
    jac -= (jac @ basis.T) @ inverse @ basis
    r = y - model
    return r @ r, r, jac, np.append(c, 0.0)[:3]


def fit_envelope_time_us(t_grid_us, projection, omega_guess_rad_s: float) -> EnvelopeTime:
    """Fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b) and return w in us, with its standard error.

    The model is linear in (a cos phi, -a sin phi, b) at fixed (w, w_osc), so a
    Levenberg-Marquardt search runs on s = 1/w^2 and w_osc alone with the linear part solved at
    each step (variable projection: Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)),
    within w in [1e-3, 1e4] times the window, w_osc >= 0 and b >= 0. The search stops where the
    Gauss-Newton step would lower the RSS by at most eps RSS, a drop no evaluation of it could
    confirm, or where no damped step beyond rounding lowers it; the dataset and ensemble fits
    take 4 to 12 residual evaluations. The standard error comes
    from the full five-parameter Jacobian at the optimum, as (J^T J)^-1 RSS / (m - 5).
    An effectively undamped trace returns a very large w rather than failing, so the caller
    can treat "no decay" uniformly; its standard error then exceeds w. A fit that does not
    converge within FIT_MAX_STEPS steps raises FitError.
    """
    t = np.asarray(t_grid_us, dtype=float)
    y = np.asarray(projection, dtype=float)
    t_span = t[-1] - t[0] if len(t) > 1 else 1.0
    tau = t / t_span  # in units of the window, so that (s, w_osc) = (1, w_osc t_span) at the start
    tau_sq = tau**2
    lo, hi = np.array([1e-8, 0.0]), np.array([1e6, np.inf])
    theta = np.array([1.0, omega_guess_rad_s * 1e-6 * t_span])
    state = _envelope_residual(tau, tau_sq, y, *theta)
    if state is None or not np.isfinite(state[0]):
        raise FitError("envelope fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b): no finite start")
    damping, eps = 1e-3, np.finfo(float).eps
    for _ in range(FIT_MAX_STEPS):
        rss, r, jac, _ = state
        # -g is the exact gradient of RSS / 2: the terms Kaufman drops are normal to r
        A, g = jac @ jac.T, jac @ r
        scale = np.diag(np.maximum(np.diag(A), np.finfo(float).tiny))
        # the Gauss-Newton step would lower RSS by g A^-1 g (regularised by eps on a flat
        # direction); a drop of at most eps RSS is below what an evaluation of RSS resolves
        if g @ np.linalg.solve(A + eps * scale, g) <= eps * rss:
            break
        new = None
        while damping < 1e16:
            trial = np.clip(theta + np.linalg.solve(A + damping * scale, g), lo, hi)
            if np.all(np.abs(trial - theta) <= 1e-10 * (np.abs(theta) + 1e-10)):
                break
            new = _envelope_residual(tau, tau_sq, y, *trial)
            if new is not None and new[0] < rss:
                break
            damping *= 10.0
        if new is None or not new[0] < rss:
            break  # no step beyond rounding lowers the residual: a minimum, or one on a bound
        theta, state = trial, new
        damping = max(damping / 10.0, 1e-12)
    else:
        raise FitError(f"envelope fit exp(-(t/w)^2) (a cos(w_osc t + phi) + b): no convergence in {FIT_MAX_STEPS} steps")
    rss, _, _, (c1, c2, b) = state
    w, om = t_span / math.sqrt(theta[0]), theta[1] / t_span
    if len(t) <= 5:
        return EnvelopeTime(w, None)
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
    return EnvelopeTime(w, math.sqrt(var) if math.isfinite(var) else None)
