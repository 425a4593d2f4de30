"""Elementary repeater link with a central polarization Bell-state analyzer.

Two memory nodes each attempt an emission; the photons travel through a
lossy channel to a four-detector analyzer (two output arms x H/V). A
herald is an exactly-two-click pattern compatible with a Bell-state
projection. Both a vectorized Monte Carlo and an exact enumeration over
photon-number outcomes are provided; they share the same routing model,
in which each arriving photon independently picks an analyzer arm with
probability 1/2 and carries an H/V polarization that is uniformly random
once averaged over the unobserved partner memories. A link is set by its
channel transmission alone: the analyzer's detectors are ideal and never
fire without a photon (detector noise is modelled only in
``measurement.DetectorModel``).

Detector indices: 0 = arm1/H, 1 = arm1/V, 2 = arm2/H, 3 = arm2/V.
Click-set bitmasks {arm1H, arm2V} and {arm1V, arm2H} herald one Bell
state; {arm1H, arm1V} and {arm2H, arm2V} herald the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import DLCZ_CUTOFF, dlcz_occupation

SOURCE_KINDS = ("semi_deterministic", "dlcz")

MAX_PHOTONS = 2 * DLCZ_CUTOFF

PSI_MINUS_MASKS = (0b1001, 0b0110)  # one click in each arm, opposite polarizations
PSI_PLUS_MASKS = (0b0011, 0b1100)  # two clicks in the same arm
HERALD_MASKS = PSI_MINUS_MASKS + PSI_PLUS_MASKS

CHUNK = 1 << 16  # Monte Carlo trials per RNG stream; fixed for reproducibility


@dataclass(frozen=True)
class SourceModel:
    """Photon-emitting memory node.

    semi_deterministic: an intrinsically heralded pair process that leaves
    an entangled memory and emits exactly one photon (then thinned by the
    retrieval efficiency) with probability 1/2, else zero photons.
    dlcz: a weakly driven parametric process, measurement.dlcz_occupation.
    """

    kind: str
    emission_prob: float = 0.05  # dlcz excitation probability p
    retrieval_efficiency: float = 1.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"kind must be one of {SOURCE_KINDS}")
        if self.kind == "dlcz":
            dlcz_occupation(self.emission_prob)  # raises for p outside (0, 0.2]
        if not 0.0 <= self.retrieval_efficiency <= 1.0:
            raise ValueError("retrieval efficiency must lie in [0, 1]")

    def emission_distribution(self) -> np.ndarray:
        """P(n photons at the source output), n = 0..DLCZ_CUTOFF."""
        if self.kind == "dlcz":
            return dlcz_occupation(self.emission_prob)
        p = np.zeros(DLCZ_CUTOFF + 1)
        p[1] = 0.5 * self.retrieval_efficiency
        p[0] = 1.0 - p[1]
        return p


@dataclass(frozen=True)
class LinkConfig:
    channel_transmission: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.channel_transmission <= 1.0:
            raise ValueError("channel_transmission must lie in [0, 1]")

    # kept under its own name because perfbench/tracing.py reads link.survival
    @property
    def survival(self) -> float:
        """Probability that an emitted photon reaches a detector and clicks."""
        return self.channel_transmission


@dataclass(frozen=True)
class HeraldStats:
    herald_rate: float
    spurious_fraction: float
    conditional_fidelity: float
    trials: int | None  # None for exact enumeration
    seed: int | None
    herald_rate_ci95: tuple

    def as_dict(self) -> dict:
        return {
            "herald_rate": self.herald_rate,
            "spurious_fraction": self.spurious_fraction,
            "conditional_fidelity": self.conditional_fidelity,
            "trials": self.trials,
            "seed": self.seed,
            "herald_rate_ci95": list(self.herald_rate_ci95),
        }


def pattern_herald_prob(m: int) -> float:
    """P(herald pattern | m photons at the analyzer).

    Each photon lands on one of the 4 detectors uniformly; the herald needs
    the occupied set to equal one of the 4 two-detector Bell patterns.
    """
    if m < 2:
        return 0.0
    # surjections of m photons onto a chosen detector pair: 2^m - 2
    return 4.0 * (2.0**m - 2.0) / 4.0**m


def _simulate_chunk(source_left, source_right, link, n_trials, rng):
    """Vectorized trials; returns (heralds, true_heralds)."""
    results = []
    for src in (source_left, source_right):
        dist = src.emission_distribution()
        n = rng.choice(len(dist), size=n_trials, p=dist)
        m = rng.binomial(n, link.survival)
        single = n == 1
        results.append((n, m, single))
    (n_l, m_l, single_l), (n_r, m_r, single_r) = results

    m_tot = m_l + m_r
    occupied = np.zeros(n_trials, dtype=np.int64)
    detectors = rng.integers(4, size=(n_trials, MAX_PHOTONS))
    for j in range(MAX_PHOTONS):
        hit = j < m_tot
        occupied |= np.where(hit, np.int64(1) << detectors[:, j], 0)

    herald = np.isin(occupied, HERALD_MASKS)
    true = herald & (m_l == 1) & (m_r == 1) & single_l & single_r
    return int(herald.sum()), int(true.sum())


def simulate_link(
    source_left: SourceModel,
    source_right: SourceModel,
    link: LinkConfig,
    trials: int,
    seed: int,
) -> HeraldStats:
    """Monte Carlo link attempts in fixed-size chunks.

    Chunk c draws from its own stream SeedSequence(seed, spawn_key=(c,)),
    so results are reproducible for a given seed regardless of how chunks
    are scheduled or aggregated.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    heralds = 0
    true_heralds = 0
    done = 0
    chunk_idx = 0
    while done < trials:
        n = min(CHUNK, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,)))
        h, t = _simulate_chunk(source_left, source_right, link, n, rng)
        heralds += h
        true_heralds += t
        done += n
        chunk_idx += 1

    rate = heralds / trials
    half = 1.96 * np.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    spurious = (heralds - true_heralds) / heralds if heralds else 0.0
    fidelity = true_heralds / heralds if heralds else float("nan")
    return HeraldStats(
        herald_rate=rate,
        spurious_fraction=spurious,
        conditional_fidelity=fidelity,
        trials=trials,
        seed=seed,
        herald_rate_ci95=(rate - half, rate + half),
    )


def analytic_link(source_left: SourceModel, source_right: SourceModel, link: LinkConfig) -> HeraldStats:
    """Exact enumeration over emitted/surviving photon numbers."""
    s = link.survival
    herald_rate = 0.0
    true_rate = 0.0
    for n_l, p_nl in enumerate(source_left.emission_distribution()):
        for n_r, p_nr in enumerate(source_right.emission_distribution()):
            if p_nl * p_nr == 0.0:
                continue
            for m_l in range(n_l + 1):
                q_l = math.comb(n_l, m_l) * s**m_l * (1.0 - s) ** (n_l - m_l)
                for m_r in range(n_r + 1):
                    q_r = math.comb(n_r, m_r) * s**m_r * (1.0 - s) ** (n_r - m_r)
                    w = p_nl * p_nr * q_l * q_r
                    h = pattern_herald_prob(m_l + m_r)
                    herald_rate += w * h
                    if m_l == 1 and m_r == 1 and n_l == 1 and n_r == 1:
                        true_rate += w * h
    spurious = 1.0 - true_rate / herald_rate if herald_rate else 0.0
    fidelity = true_rate / herald_rate if herald_rate else float("nan")
    return HeraldStats(
        herald_rate=herald_rate,
        spurious_fraction=spurious,
        conditional_fidelity=fidelity,
        trials=None,
        seed=None,
        herald_rate_ci95=(herald_rate, herald_rate),
    )
