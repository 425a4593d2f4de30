"""Polarization-correlation measurement and photon-statistics models.

The momentum qubits of the two read-out photons are mapped onto
polarization (k_up -> H, k_down -> V, fixed by convention), analyzed in
one of three bases with a simple detector model (finite efficiency plus
uniform per-gate background clicks), and reduced to visibilities, the
fidelity bound, and Hanbury Brown-Twiss g2(0) estimates. The entangled
state enters as the two amplitudes of ``collective.run_protocol``, the
phase-shifter setting and one memory-coherence factor. Every Monte Carlo
draw of the package comes from ``rng_stream`` or ``rng_blocks`` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BASES = ("hv", "pm", "circ")

# Stream keys under the run seed: hbt_counts (), repeater trial block c (c,),
# atom block b (ATOM_STREAM, b), coincidence basis i (COINCIDENCE_STREAM, i).
BLOCK = 1 << 16  # draws per block; fixed, so block b does not depend on the total
ATOM_STREAM = 1
COINCIDENCE_STREAM = 2


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Generator of stream ``key`` under ``seed``; ``rng_stream(seed)`` draws as ``default_rng(seed)``."""
    if seed is None:
        raise ValueError("Monte Carlo draws need an explicit seed")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def rng_blocks(seed: int, n: int, *key: int):
    """Yield (generator, size) for n draws in blocks of BLOCK; block b draws from stream key + (b,)."""
    for b, start in enumerate(range(0, n, BLOCK)):
        yield rng_stream(seed, *key, b), min(BLOCK, n - start)


class ZeroCoincidenceError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    background_prob: float = 0.0  # per detection gate (dark counts + stray light)

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.background_prob < 1.0:
            raise ValueError("background probability must lie in [0, 1)")


def _basis_vectors(basis: str):
    if basis == "hv":
        return np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    if basis == "pm":
        s = 1.0 / np.sqrt(2.0)
        return np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex)
    if basis == "circ":
        # sigma+ = (|H> - i|V>)/sqrt(2); the sign convention is ours to fix
        s = 1.0 / np.sqrt(2.0)
        return np.array([s, -1j * s], dtype=complex), np.array([s, 1j * s], dtype=complex)
    raise ValueError(f"basis must be one of {BASES}")


def born_probabilities(amps, phase, coherence: float, basis: str) -> np.ndarray:
    """Ideal projection probabilities in outcome order (xx, yy, xy, yx).

    ``amps`` holds the ``(..., 2)`` amplitudes (a, b) of |k_up>|S1> and
    |k_down>|S4>. The first photon maps k_up -> H and k_down -> V, and the
    phase shifter acts on its V component; the retrieved excitation maps
    S1 -> V and S4 -> H, so the pair is a|HV> + b e^{i phase}|VH>.
    ``coherence`` is the factor exp(-delay/lifetime) by which the
    ground-spin-wave decoherence before the second read damps the
    |HV><VH| coherence; populations are untouched. Broadcasts over
    ``amps`` and ``phase``; returns ``(..., 4)``.
    """
    amps = np.asarray(amps)
    if np.any(np.abs(np.abs(amps[..., 0]) ** 2 + np.abs(amps[..., 1]) ** 2 - 1.0) > 1e-9):
        raise ValueError("amplitudes are not normalized")
    if not 0.0 <= coherence <= 1.0:
        raise ValueError("coherence must lie in [0, 1]")
    b0, b1 = _basis_vectors(basis)
    u = np.array([b0, b1, b0, b1])  # first photon, per outcome
    v = np.array([b0, b1, b1, b0])  # second photon
    x_hv = np.conj(u[:, 0] * v[:, 1]) * amps[..., :1]
    x_vh = np.conj(u[:, 1] * v[:, 0]) * (amps[..., 1] * np.exp(1j * phase))[..., None]
    probs = np.abs(x_hv) ** 2 + np.abs(x_vh) ** 2 + 2.0 * coherence * np.real(x_hv * np.conj(x_vh))
    return np.clip(probs, 0.0, None)


def coincidence_probabilities(p_sig, det: DetectorModel) -> np.ndarray:
    """Outcome probabilities conditioned on a coincidence.

    ``p_sig`` are the four Born probabilities of one basis (outcome order
    of ``born_probabilities``). Both photons see the same detector model.
    Each photon is detected with its efficiency; each of the two outcome
    channels per side additionally fires with background probability b/2
    per gate. A coincidence is one click on each side; probabilities are
    renormalized over coincidence events.
    """
    # signal outcomes: index o1, o2 in {0, 1} per side
    p_joint = np.array([[p_sig[0], p_sig[2]], [p_sig[3], p_sig[1]]])  # [o1][o2]
    # click[x, o]: channel x fires when the photon left through channel o
    miss = (1.0 - det.efficiency * np.eye(2)) * (1.0 - det.background_prob / 2.0)
    click = 1.0 - miss
    q = click @ p_joint @ click.T
    total = q.sum()
    if total <= 0.0:
        raise ZeroCoincidenceError("no coincidence events possible")
    q = q / total
    return np.array([q[0, 0], q[1, 1], q[0, 1], q[1, 0]])


def visibility(outcomes) -> np.ndarray:
    """|(C_perp - C_par) / (C_perp + C_par)| over the last axis.

    ``outcomes`` is any ``(..., 4)`` array of counts or probabilities in the
    outcome order of ``born_probabilities``: (xx, yy) parallel, (xy, yx)
    perpendicular. Returns ``(...)``.
    """
    outcomes = np.asarray(outcomes)
    par = outcomes[..., 0] + outcomes[..., 1]
    perp = outcomes[..., 2] + outcomes[..., 3]
    if np.any(par + perp == 0):
        raise ZeroCoincidenceError("no coincidences recorded")
    return np.abs(perp - par) / (perp + par)


def fidelity_bound(v_hv: float, v_pm: float, v_circ: float) -> float:
    """(1/4)(1 + V_hv + V_pm + V_circ) -- the entanglement fidelity bound."""
    for v in (v_hv, v_pm, v_circ):
        if not 0.0 <= v <= 1.0:
            raise ValueError("visibilities must lie in [0, 1]")
    return 0.25 * (1.0 + v_hv + v_pm + v_circ)


def measure_three_bases(amps, phase: float, coherence: float, det: DetectorModel, trials: int, seed: int) -> dict:
    """Sampled visibilities in all three bases and the fidelity bound.

    ``amps``, ``phase`` and ``coherence`` are as in ``born_probabilities``,
    for one state. Basis i draws its ``trials`` coincidences from stream
    (COINCIDENCE_STREAM, i). Returns V_hv, V_pm and V_circ, their binomial
    standard errors V_errors, the bound F and its error F_error.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    counts = np.empty((len(BASES), 4), dtype=np.int64)
    for i, basis in enumerate(BASES):
        probs = coincidence_probabilities(born_probabilities(amps, phase, coherence, basis), det)
        counts[i] = rng_stream(seed, COINCIDENCE_STREAM, i).multinomial(trials, probs / probs.sum())
    v_hv, v_pm, v_circ = visibility(counts).tolist()
    par, perp = counts[:, 0] + counts[:, 1], counts[:, 2] + counts[:, 3]
    errors = 2.0 * np.sqrt(par * perp / (par + perp)) / (par + perp)
    return {
        "V_hv": v_hv,
        "V_pm": v_pm,
        "V_circ": v_circ,
        "V_errors": errors.tolist(),
        "F": fidelity_bound(v_hv, v_pm, v_circ),
        "F_error": 0.25 * float(np.sqrt(np.sum(errors**2))),
    }


# ---------------------------------------------------------------------------
# photon-number statistics and Hanbury Brown-Twiss g2(0)

FIELD_KINDS = ("single_photon", "coherent", "thermal", "dlcz_pair")

FOCK_CUTOFF = 30
FOCK_TAIL_TOL = 1e-9  # largest probability a coherent or thermal field may leave beyond FOCK_CUTOFF
DLCZ_CUTOFF = 4  # photon-number truncation of the DLCZ source
ROUND_TRIP_TOL = 1e-12  # largest relative g2 error of a calibrated background


def dlcz_occupation(p: float) -> np.ndarray:
    """P(n), n = 0..DLCZ_CUTOFF, of a DLCZ source with excitation probability p.

    The heralded-arm marginal of a weakly driven two-mode squeezed state,
    p^n (1 - p), renormalized after truncation (Duan, Lukin, Cirac and
    Zoller, Nature 414, 413 (2001)). p is limited to (0, 0.2], where the
    truncation drops at most p^5 = 3.2e-4 of the probability.
    """
    if not 0.0 < p <= 0.2:
        raise ValueError("dlcz excitation probability must lie in (0, 0.2]")
    n = np.arange(DLCZ_CUTOFF + 1)
    dist = p**n * (1.0 - p)
    return dist / dist.sum()


@dataclass(frozen=True)
class PhotonFieldModel:
    kind: str
    parameter: float  # retrieval efficiency or mean photon number or p
    detector: DetectorModel

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"kind must be one of {FIELD_KINDS}")
        if not 0.0 < self.parameter < np.inf:  # also rejects NaN
            raise ValueError("field parameter must be positive and finite (the vacuum has no g2)")
        self.occupation_distribution()  # each kind checks its own range

    def occupation_distribution(self) -> np.ndarray:
        if self.kind == "single_photon":
            if self.parameter > 1.0:
                raise ValueError("retrieval efficiency must lie in (0, 1]")
            return np.array([1.0 - self.parameter, self.parameter])
        if self.kind == "dlcz_pair":
            return dlcz_occupation(self.parameter)
        n = np.arange(FOCK_CUTOFF + 1)
        if self.kind == "coherent":
            mu = self.parameter
            p = np.exp(n * np.log(mu) - np.cumsum(np.log(np.maximum(n, 1))) - mu)
        else:  # thermal
            nbar = self.parameter
            p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
        if not 1.0 - p.sum() <= FOCK_TAIL_TOL:
            raise ValueError(f"{1.0 - p.sum():.3g} of the distribution lies past the Fock cutoff {FOCK_CUTOFF}")
        return p / p.sum()


def thinned(dist, eta: float) -> np.ndarray:
    """P(j kept) = sum_n dist[n] C(n, j) eta^j (1 - eta)^(n - j), j = 0..len(dist) - 1, from the
    pmf of n = 0, 1, ... trials: sums of nonnegative terms, so a small eta keeps its relative precision."""
    pmf = np.zeros(len(dist))
    pmf[0] = 1.0
    kept = dist[0] * pmf
    for p_n in dist[1:]:
        pmf[1:] = (1.0 - eta) * pmf[1:] + eta * pmf[:-1]
        pmf[0] *= 1.0 - eta
        kept += p_n * pmf
    return kept


def _hbt_click_probs(dist: np.ndarray, det: DetectorModel) -> tuple:
    """(P1, P2, P12) for a balanced splitter feeding two gated detectors.

    Each photon is detected with the efficiency and goes to either detector
    with probability 1/2; each detector also clicks with the background
    probability b. With d_j the probability that j photons are detected,
    P1 = b + (1 - b) sum_j d_j (1 - 2^-j) and
    P12 = sum_{j>=1} d_j (1 - 2^(1-j) + b 2^(1-j)) + d_0 b^2: sums of
    nonnegative terms, so small efficiencies keep their relative precision.
    """
    b = det.background_prob
    detected = thinned(dist, det.efficiency)
    d, half = detected[1:], 0.5 ** np.arange(1, len(dist))  # d_j and 2^-j for j >= 1
    p1 = b + (1.0 - b) * float(np.sum(d * (1.0 - half)))
    p12 = float(np.sum(d * ((1.0 - 2.0 * half) + 2.0 * b * half)) + detected[0] * b**2)
    return p1, p1, p12


def hbt_counts(field: PhotonFieldModel, trials: int, seed: int) -> tuple:
    """Sampled (n1, n2, n12): the gates of ``trials`` in which detector 1, detector 2 and both clicked.

    One multinomial over the cells (n, k, click pattern) draws the histogram
    of all trials (conditional binomials, C. S. Davis, Comput. Stat. Data
    Anal. 16, 205 (1993)), so the cost does not grow with ``trials``. A
    trial holds n photons with probability P(n), sends k of them to
    detector 1 with probability C(n, k) 2^-n, and its detectors click
    independently with q1 = 1 - (1 - eta)^k (1 - b) and
    q2 = 1 - (1 - eta)^(n - k) (1 - b). Returns Python ints.
    """
    rng = rng_stream(seed)
    dist = field.occupation_distribution()
    eta, b = field.detector.efficiency, field.detector.background_prob
    n, k = np.tril_indices(len(dist))  # every (n, k) with k <= n
    split = dist[n] * np.array([math.comb(a, c) for a, c in zip(n.tolist(), k.tolist())]) * 0.5**n
    miss_1, miss_2 = (1.0 - eta) ** k * (1.0 - b), (1.0 - eta) ** (n - k) * (1.0 - b)
    # click patterns (both, only 1, only 2, neither)
    patterns = [(1.0 - miss_1) * (1.0 - miss_2), (1.0 - miss_1) * miss_2, miss_1 * (1.0 - miss_2), miss_1 * miss_2]
    cells = (split[:, None] * np.column_stack(patterns)).ravel()
    counts = rng.multinomial(trials, cells / cells.sum()).reshape(-1, 4)
    both, only_1, only_2, _ = counts.sum(axis=0).tolist()
    return both + only_1, both + only_2, both


def g2_from_counts(n1: int, n2: int, n12: int, trials: int) -> tuple:
    """(g2, standard error): n12 T / (n1 n2) and its delta-method error g2 sqrt(1/n12 - 1/n1 - 1/n2 + (2 g2 - 1)/T).

    Python arithmetic, since the int64 product n12 T overflows past about
    1e18; the error is 0 when no coincidence was counted.
    """
    if n1 == 0 or n2 == 0:
        raise ZeroCoincidenceError("no singles; g2 undefined")
    g2 = n12 * trials / (n1 * n2)
    if n12 == 0:
        return g2, 0.0
    return g2, g2 * math.sqrt(max(1 / n12 - 1 / n1 - 1 / n2 + (2.0 * g2 - 1.0) / trials, 0.0))


def g2_hbt(field: PhotonFieldModel, trials: int | None = None, seed: int | None = None) -> float:
    """g2(0) = P12 / (P1 P2) from a balanced-splitter HBT arrangement.

    Without ``trials`` the value is computed exactly from the occupation
    distribution; with ``trials`` it is sampled by ``hbt_counts`` (seed
    required).
    """
    if trials is None:
        p1, p2, p12 = _hbt_click_probs(field.occupation_distribution(), field.detector)
        if p1 * p2 == 0.0:
            raise ZeroCoincidenceError("no singles; g2 undefined")
        return p12 / (p1 * p2)
    return g2_from_counts(*hbt_counts(field, trials, seed), trials)[0]


def calibrate_background(target_g2: float, field: PhotonFieldModel) -> float:
    """The background probability b at which the field's g2 equals the target.

    With x = 1 - b and (p1, p12) the click probabilities at b = 0, the model
    of ``_hbt_click_probs`` gives P1 = 1 - x(1 - p1) and
    P12 = 1 - 2x(1 - p1) + x^2(1 - 2 p1 + p12), so g2(b) = T is a quadratic
    in x. Its root in [0, 1), written without cancellation, exists exactly
    when p12 <= T p1^2 < p1^2: the field's own g2 is at most T and it clicks.
    A root whose g2 misses T by more than ROUND_TRIP_TOL relative, as when the
    click probabilities underflow, raises ValueError.
    """
    if not 0.0 < target_g2 < 1.0:
        raise ValueError("target g2 must lie in (0, 1)")
    dist, eta = field.occupation_distribution(), field.detector.efficiency
    p1, _, p12 = _hbt_click_probs(dist, DetectorModel(eta, 0.0))
    if p1 <= 0.0:
        raise ValueError("the field gives no clicks at b = 0; g2 undefined")
    if p12 > target_g2 * p1**2:
        raise ValueError(f"target g2 {target_g2:.6g} lies below the field's own g2 {p12 / p1**2:.6g} at b = 0")
    t = 1.0 - target_g2
    d = np.sqrt(t * (p1**2 - p12))
    b = float((d - p1 * t) / ((1.0 - p1) * t + d))
    if not 0.0 <= b < 1.0:
        raise ValueError(f"the root b = {b:.6g} lies outside [0, 1): the click probabilities at b = 0 underflow")
    q1, _, q12 = _hbt_click_probs(dist, DetectorModel(eta, b))
    miss = abs(q12 / (q1 * q1) / target_g2 - 1.0) if q1 * q1 > 0.0 else float("inf")
    if not miss <= ROUND_TRIP_TOL:
        raise ValueError(
            f"the root b = {b:.6g} misses the target g2 {target_g2:.6g} by relative {miss:.3g}, "
            f"more than {ROUND_TRIP_TOL:g}: the click probabilities underflow"
        )
    return b
