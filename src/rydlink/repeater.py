"""Elementary repeater link with a central polarization Bell-state analyzer.

Two memory nodes each attempt an emission; the photons travel through a
lossy channel to a four-detector analyzer (two output arms x H/V). A
herald is an exactly-two-click pattern compatible with a Bell-state
projection: one click in each arm with opposite polarizations, or two
clicks in the same arm. Each arriving photon independently picks an
analyzer arm with probability 1/2 and carries an H/V polarization that is
uniformly random once averaged over the unobserved partner memories, so m
arriving photons herald with ``pattern_herald_prob(m)``. The exact
convolution of the two nodes' thinned photon-number distributions gives
the per-trial herald law (``_herald_probs``); ``analytic_link`` reports it
and the Monte Carlo draws all trials of a link point from it with one
multinomial. A link is set by its channel transmission alone: the
analyzer's detectors are ideal and never fire without a photon (detector
noise is modelled only in ``measurement.DetectorModel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import occupation, rng_stream, thinned


@dataclass(frozen=True)
class SourceModel:
    """Photon-emitting memory node.

    semi_deterministic: an intrinsically heralded pair process that leaves
    an entangled memory and emits exactly one photon (then thinned by the
    retrieval efficiency) with probability 1/2, else zero photons.
    dlcz: a weakly driven parametric process. measurement.occupation gives both laws.
    """

    kind: str
    emission_prob: float = 0.05  # dlcz excitation probability p
    retrieval_efficiency: float = 1.0

    def emission_distribution(self) -> np.ndarray:
        """P(n photons at the source output), n = 0, 1, ...; an unknown kind raises KeyError."""
        law, parameter = {
            "semi_deterministic": ("single_photon", self.retrieval_efficiency / 2.0),
            "dlcz": ("dlcz_pair", self.emission_prob),
        }[self.kind]
        return occupation(law, parameter)


@dataclass(frozen=True)
class LinkConfig:
    channel_transmission: float = 1.0

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


def _herald_probs(source_left, source_right, link) -> tuple:
    """(rate, true_rate): the per-trial probabilities of a herald and of a true one.

    The exact convolution of the two nodes' photon-number distributions, each
    thinned by the survival; a herald is true when each node emitted exactly
    one photon and kept it.
    """
    s = link.survival
    p_l, p_r = source_left.emission_distribution(), source_right.emission_distribution()
    arriving = np.convolve(thinned(p_l, s), thinned(p_r, s))  # P(m photons at the analyzer)
    rate = float(arriving @ [pattern_herald_prob(m) for m in range(len(arriving))])
    # for a semi source these are the products the convolution forms, so none of its heralds is spurious
    true_rate = (p_l[1] * s) * (p_r[1] * s) * pattern_herald_prob(2)
    return rate, true_rate


def _simulate_chunk(source_left, source_right, link, n_trials, rng):
    """(heralds, true_heralds) of ``n_trials`` independent trials, as Python ints.

    One multinomial over (true herald, spurious herald, none) with the
    probabilities of ``_herald_probs``, each clipped at 0 against rounding.
    """
    rate, true_rate = _herald_probs(source_left, source_right, link)
    spurious = max(rate - true_rate, 0.0)
    n_true, n_spurious, _ = rng.multinomial(n_trials, [true_rate, spurious, max(1.0 - rate, 0.0)]).tolist()
    return n_true + n_spurious, n_true


def simulate_link(
    source_left: SourceModel,
    source_right: SourceModel,
    link: LinkConfig,
    trials: int,
    seed: int,
) -> HeraldStats:
    """Monte Carlo link attempts: all ``trials`` drawn by one ``_simulate_chunk`` call from stream (0,)."""
    heralds, true_heralds = _simulate_chunk(source_left, source_right, link, trials, rng_stream(seed, 0))
    rate = heralds / trials
    # Wilson score interval (Brown, Cai and DasGupta, Stat. Sci. 16, 101
    # (2001)): unlike the Wald interval it keeps a nonzero width at rate 0 or 1
    z2 = 1.96**2 / trials
    centre = (rate + 0.5 * z2) / (1.0 + z2)
    half = math.sqrt(z2 * rate * (1.0 - rate) + 0.25 * z2**2) / (1.0 + z2)
    ci95 = (max(centre - half, 0.0), min(centre + half, 1.0))
    return _herald_stats(rate, heralds, true_heralds, trials, seed, ci95)


def analytic_link(source_left: SourceModel, source_right: SourceModel, link: LinkConfig) -> HeraldStats:
    """The exact herald law of ``_herald_probs``."""
    rate, true_rate = _herald_probs(source_left, source_right, link)
    return _herald_stats(rate, rate, true_rate, None, None, (rate, rate))
