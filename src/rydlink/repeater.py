"""Elementary repeater link with a central polarization Bell-state analyzer.

Two memory nodes each attempt an emission; the photons travel through a
lossy channel to a four-detector analyzer (two output arms x H/V). A
herald is an exactly-two-click pattern compatible with a Bell-state
projection. Both an aggregated Monte Carlo (one multinomial per block of
trials) and the exact convolution of the thinned photon-number
distributions are provided; they share the same
routing model, in which each arriving photon independently picks an
analyzer arm with probability 1/2 and carries an H/V polarization that is
uniformly random once averaged over the unobserved partner memories. A
link is set by its channel transmission alone: the analyzer's detectors
are ideal and never fire without a photon (detector noise is modelled
only in ``measurement.DetectorModel``).

Detector indices: 0 = arm1/H, 1 = arm1/V, 2 = arm2/H, 3 = arm2/V.
Click-set bitmasks {arm1H, arm2V} and {arm1V, arm2H} herald one Bell
state; {arm1H, arm1V} and {arm2H, arm2V} herald the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import DLCZ_CUTOFF, dlcz_occupation, rng_blocks, thinned

SOURCE_KINDS = ("semi_deterministic", "dlcz")

PSI_MINUS_MASKS = (0b1001, 0b0110)  # one click in each arm, opposite polarizations
PSI_PLUS_MASKS = (0b0011, 0b1100)  # two clicks in the same arm
HERALD_MASKS = PSI_MINUS_MASKS + PSI_PLUS_MASKS
HERALD_TABLE = np.isin(np.arange(16), HERALD_MASKS)  # click-set bitmask -> heralds


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
    trials: int | None  # None for the exact convolution
    seed: int | None
    herald_rate_ci95: tuple

    def as_dict(self) -> dict:
        return {
            "herald_rate": self.herald_rate,
            "spurious_fraction": self.spurious_fraction,
            # NaN when nothing heralded: JSON has no NaN, so null
            "conditional_fidelity": None if math.isnan(self.conditional_fidelity) else self.conditional_fidelity,
            "trials": self.trials,
            "seed": self.seed,
            "herald_rate_ci95": list(self.herald_rate_ci95),
        }


def _herald_stats(rate, heralds, true_heralds, trials, seed, ci95) -> HeraldStats:
    """Stats of ``heralds`` (a count or a rate), ``true_heralds`` of them true; nothing heralded: NaN fidelity."""
    if not heralds:
        return HeraldStats(rate, 0.0, float("nan"), trials, seed, ci95)
    return HeraldStats(rate, (heralds - true_heralds) / heralds, true_heralds / heralds, trials, seed, ci95)


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
    """Aggregated trials; returns (heralds, true_heralds).

    One multinomial draws the (n_l, n_r) photon-number histogram of the
    ``n_trials`` trials. In each cell with n_l + n_r >= 2, the only ones
    that can herald, every photon survives with probability
    ``link.survival`` and clicks a uniformly random detector; the heralds
    of the cell n_l = n_r = 1 are true.
    """
    p_l, p_r = source_left.emission_distribution(), source_right.emission_distribution()
    joint = np.outer(p_l, p_r).ravel()
    cells = rng.multinomial(n_trials, joint / joint.sum()).reshape(len(p_l), len(p_r))
    s = link.survival
    heralds = true_heralds = 0
    for n_l, n_r in zip(*np.nonzero(cells)):
        photons = n_l + n_r
        if photons < 2:
            continue
        # one row per photon: its detector's click bit, cleared when the photon is lost
        clicks = np.left_shift(1, rng.integers(4, size=(photons, cells[n_l, n_r]), dtype=np.uint8), dtype=np.uint8)
        if s < 1.0:  # at s = 1 every photon survives: no draw
            clicks *= rng.random(clicks.shape) < s
        h = np.count_nonzero(HERALD_TABLE[np.bitwise_or.reduce(clicks)])
        heralds += h
        if n_l == n_r == 1:
            true_heralds = h
    return heralds, true_heralds


def simulate_link(
    source_left: SourceModel,
    source_right: SourceModel,
    link: LinkConfig,
    trials: int,
    seed: int,
) -> HeraldStats:
    """Monte Carlo link attempts in blocks of ``measurement.BLOCK`` trials.

    Block c draws from stream (c,) of ``measurement.rng_blocks``, so a
    full block does not depend on ``trials``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    heralds = true_heralds = 0
    for rng, n in rng_blocks(seed, trials):
        h, t = _simulate_chunk(source_left, source_right, link, n, rng)
        heralds += h
        true_heralds += t

    rate = heralds / trials
    # Wilson score interval (Brown, Cai and DasGupta, Stat. Sci. 16, 101
    # (2001)): unlike the Wald interval it keeps a nonzero width at rate 0 or 1
    z2 = 1.96**2 / trials
    centre = (rate + 0.5 * z2) / (1.0 + z2)
    half = math.sqrt(z2 * rate * (1.0 - rate) + 0.25 * z2**2) / (1.0 + z2)
    ci95 = (max(centre - half, 0.0), min(centre + half, 1.0))
    return _herald_stats(rate, heralds, true_heralds, trials, seed, ci95)


def analytic_link(source_left: SourceModel, source_right: SourceModel, link: LinkConfig) -> HeraldStats:
    """Exact convolution of the two nodes' photon-number distributions, each thinned by the
    survival; a herald is true when each node emitted exactly one photon and kept it."""
    s = link.survival
    p_l, p_r = source_left.emission_distribution(), source_right.emission_distribution()
    arriving = np.convolve(thinned(p_l, s), thinned(p_r, s))  # P(m photons at the analyzer)
    rate = float(arriving @ [pattern_herald_prob(m) for m in range(len(arriving))])
    # for a semi source these are the products the convolution forms, so none of its heralds is spurious
    true_rate = (p_l[1] * s) * (p_r[1] * s) * pattern_herald_prob(2)
    return _herald_stats(rate, rate, true_rate, None, None, (rate, rate))
