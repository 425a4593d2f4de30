"""Polarization-correlation measurement and photon-statistics models.

The momentum qubits of the two read-out photons are mapped onto
polarization (k_up -> H, k_down -> V, fixed by convention), analyzed in
one of three bases with a simple detector model (finite efficiency plus
uniform per-gate background clicks), and reduced to visibilities, the
fidelity bound, and Hanbury Brown-Twiss g2(0) estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .collective import AtomPhotonState

BASES = ("hv", "pm", "circ")

# two-photon basis order
HH, HV, VH, VV = 0, 1, 2, 3


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


@dataclass(frozen=True)
class CoincidenceRecord:
    """Counts in outcome order (xx, yy, xy, yx) for basis outcomes (x, y)."""

    counts: tuple
    trials: int

    def __post_init__(self):
        if len(self.counts) != 4 or any(c < 0 for c in self.counts):
            raise ValueError("need 4 non-negative counts")
        if sum(self.counts) > self.trials:
            raise ValueError("counts exceed trials")

    @property
    def parallel(self) -> int:
        return self.counts[0] + self.counts[1]

    @property
    def perpendicular(self) -> int:
        return self.counts[2] + self.counts[3]


@dataclass(frozen=True)
class MeasurementResult:
    v_hv: float
    v_pm: float
    v_circ: float
    v_errors: tuple
    fidelity: float
    fidelity_error: float

    def as_dict(self) -> dict:
        return {
            "V_hv": self.v_hv,
            "V_pm": self.v_pm,
            "V_circ": self.v_circ,
            "V_errors": list(self.v_errors),
            "F": self.fidelity,
            "F_error": self.fidelity_error,
        }


@dataclass(frozen=True)
class TwoPhotonState:
    """4x4 density matrix over (|HH>, |HV>, |VH>, |VV>)."""

    dm: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.dm, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("two-photon density matrix must be 4x4")
        if np.max(np.abs(m - m.conj().T)) > 1e-9 or abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError("invalid two-photon density matrix")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "dm", m)

    @classmethod
    def pure(cls, amplitudes) -> "TwoPhotonState":
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("two-photon amplitudes are not normalized")
        v = v / norm
        return cls(np.outer(v, v.conj()))


def momentum_to_polarization(state: AtomPhotonState, phase: float) -> TwoPhotonState:
    """Map the momentum-mode pair onto polarization with the phase shifter.

    |k_up> -> |H| and |k_down> -> |V> on each photon; the variable phase
    acts on the first photon's V component. The atomic excitation of
    ``state`` is retrieved into the second photon.
    """
    amps = state.amplitudes
    vec = np.zeros(4, dtype=complex)
    vec[HV] = amps[0]
    vec[VH] = amps[1] * np.exp(1j * phase)
    return TwoPhotonState.pure(vec)


def apply_memory_decoherence(state: TwoPhotonState, delay_s: float, lifetime_s: float) -> TwoPhotonState:
    """Ground-spin-wave decoherence during the wait before the second read.

    Damps the |HV><VH| coherence by exp(-delay/lifetime); populations are
    untouched.
    """
    if delay_s < 0 or lifetime_s <= 0:
        raise ValueError("delay must be >= 0 and lifetime > 0")
    f = np.exp(-delay_s / lifetime_s)
    dm = np.array(state.dm)
    dm[HV, VH] *= f
    dm[VH, HV] *= f
    return TwoPhotonState(dm)


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


def born_probabilities(state: TwoPhotonState, basis: str) -> np.ndarray:
    """Ideal projection probabilities in outcome order (xx, yy, xy, yx)."""
    b0, b1 = _basis_vectors(basis)
    outcomes = [(b0, b0), (b1, b1), (b0, b1), (b1, b0)]
    probs = np.empty(4)
    for i, (u, v) in enumerate(outcomes):
        proj = np.kron(u, v)
        probs[i] = (proj.conj() @ state.dm @ proj).real
    probs = np.clip(probs, 0.0, None)
    return probs


def coincidence_probabilities(state: TwoPhotonState, basis: str, det: DetectorModel) -> np.ndarray:
    """Outcome probabilities conditioned on a coincidence.

    Both photons see the same detector model. Each photon is detected with
    its efficiency; each of the two outcome channels per side additionally
    fires with background probability b/2 per gate. A coincidence is one
    click on each side; probabilities are renormalized over coincidence
    events.
    """
    p_sig = born_probabilities(state, basis)
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


def sample_counts(probs, trials: int, seed: int) -> CoincidenceRecord:
    if trials <= 0:
        raise ValueError("trials must be positive")
    probs = np.asarray(probs, dtype=float)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, probs / probs.sum())
    return CoincidenceRecord(tuple(int(c) for c in counts), trials)


def visibility(record: CoincidenceRecord) -> float:
    """|(C_perp - C_par) / (C_perp + C_par)|."""
    par, perp = record.parallel, record.perpendicular
    if par + perp == 0:
        raise ZeroCoincidenceError("no coincidences recorded")
    return abs(perp - par) / (perp + par)


def visibility_error(record: CoincidenceRecord) -> float:
    """Binomial standard error on the visibility."""
    par, perp = record.parallel, record.perpendicular
    n = par + perp
    if n == 0:
        raise ZeroCoincidenceError("no coincidences recorded")
    return 2.0 * np.sqrt(par * perp / n) / n


def fidelity_bound(v_hv: float, v_pm: float, v_circ: float) -> float:
    """(1/4)(1 + V_hv + V_pm + V_circ) -- the entanglement fidelity bound."""
    for v in (v_hv, v_pm, v_circ):
        if not 0.0 <= v <= 1.0:
            raise ValueError("visibilities must lie in [0, 1]")
    return 0.25 * (1.0 + v_hv + v_pm + v_circ)


def measure_three_bases(state: TwoPhotonState, det: DetectorModel, trials: int, seed: int) -> MeasurementResult:
    """Sampled visibilities in all three bases and the fidelity bound."""
    vs = []
    errs = []
    for i, basis in enumerate(BASES):
        probs = coincidence_probabilities(state, basis, det)
        record = sample_counts(probs, trials, seed + i)
        vs.append(visibility(record))
        errs.append(visibility_error(record))
    fid = fidelity_bound(*vs)
    fid_err = 0.25 * float(np.sqrt(sum(e**2 for e in errs)))
    return MeasurementResult(vs[0], vs[1], vs[2], tuple(errs), fid, fid_err)


# ---------------------------------------------------------------------------
# photon-number statistics and Hanbury Brown-Twiss g2(0)

FIELD_KINDS = ("single_photon", "coherent", "thermal", "dlcz_pair")

FOCK_CUTOFF = 30
DLCZ_CUTOFF = 4  # photon-number truncation of the DLCZ source


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
            # Poisson pmf in the log form scipy.stats.poisson evaluates
            p = np.exp(xlogy(n, self.parameter) - gammaln(n + 1) - self.parameter)
        else:  # thermal
            nbar = self.parameter
            p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
        return p / p.sum()


def _hbt_click_probs(dist: np.ndarray, det: DetectorModel) -> tuple:
    """(P1, P2, P12) for a balanced splitter feeding two gated detectors."""
    n = np.arange(len(dist))
    eta, b = det.efficiency, det.background_prob
    none_1 = (1.0 - b) * float(np.sum(dist * (1.0 - eta / 2.0) ** n))
    none_both = (1.0 - b) ** 2 * float(np.sum(dist * (1.0 - eta) ** n))
    p1 = 1.0 - none_1
    p12 = 1.0 - 2.0 * none_1 + none_both
    return p1, p1, p12


def g2_hbt(field: PhotonFieldModel, trials: int | None = None, seed: int | None = None) -> float:
    """g2(0) = P12 / (P1 P2) from a balanced-splitter HBT arrangement.

    Without ``trials`` the value is computed exactly from the occupation
    distribution; with ``trials`` it is Monte Carlo sampled (seed required).
    """
    dist = field.occupation_distribution()
    if trials is None:
        p1, p2, p12 = _hbt_click_probs(dist, field.detector)
        if p1 * p2 == 0.0:
            raise ZeroCoincidenceError("no singles; g2 undefined")
        return p12 / (p1 * p2)
    if seed is None:
        raise ValueError("Monte Carlo g2 needs a seed")
    rng = np.random.default_rng(seed)
    eta, b = field.detector.efficiency, field.detector.background_prob
    n = rng.choice(len(dist), size=trials, p=dist)
    to_1 = rng.binomial(n, 0.5)
    to_2 = n - to_1
    c1 = rng.binomial(to_1, eta) > 0
    c2 = rng.binomial(to_2, eta) > 0
    if b > 0:
        c1 |= rng.random(trials) < b
        c2 |= rng.random(trials) < b
    n1, n2, n12 = c1.sum(), c2.sum(), (c1 & c2).sum()
    if n1 == 0 or n2 == 0:
        raise ZeroCoincidenceError("no singles; g2 undefined")
    return float(n12 * trials / (n1 * n2))


CALIBRATION_TOL = 1e-8  # relative width of the final bisection bracket


def calibrate_background(target_g2: float, field: PhotonFieldModel) -> float:
    """Solve g2(b) = target for the background probability by bisection.

    g2 is monotonically increasing in b for a sub-Poissonian source; a
    target at or above the large-b asymptote is rejected.
    """
    if not 0.0 < target_g2 < 1.0:
        raise ValueError("target g2 must lie in (0, 1)")

    def g2_at(b):
        model = PhotonFieldModel(field.kind, field.parameter, DetectorModel(field.detector.efficiency, b))
        return g2_hbt(model)

    lo, hi = 0.0, 0.999999
    if g2_at(hi) < target_g2:
        raise ValueError("target g2 unreachable for this efficiency chain")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g2_at(mid) < target_g2:
            lo = mid
        else:
            hi = mid
        if hi - lo < CALIBRATION_TOL * max(hi, 1e-12):
            break
    return 0.5 * (lo + hi)
