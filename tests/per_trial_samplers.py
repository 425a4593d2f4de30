"""The per-trial Monte Carlo samplers that the aggregated ones replaced, kept as oracles.

They draw every trial's photon numbers, splitter or survival draws and
clicks one by one, so they sample the law of ``measurement.hbt_counts``
and ``repeater._simulate_chunk`` by a different route; the tests compare
the two within 5 standard errors.
"""

import math

import numpy as np

from rydlink import measurement as ms
from rydlink import repeater as rp


def per_trial_hbt_counts(field, trials, seed):
    """(n1, n2, n12) as ms.hbt_counts, with one photon number, splitter draw and pair of click draws per trial."""
    rng = ms.rng_stream(seed)
    dist = field.occupation_distribution()
    eta, b = field.detector.efficiency, field.detector.background_prob
    n = rng.choice(len(dist), size=trials, p=dist)
    to_1 = rng.binomial(n, 0.5)
    c1 = rng.binomial(to_1, eta) > 0
    c2 = rng.binomial(n - to_1, eta) > 0
    if b > 0:
        c1 |= rng.random(trials) < b
        c2 |= rng.random(trials) < b
    return int(c1.sum()), int(c2.sum()), int((c1 & c2).sum())


def assert_same_rate(label, k_a, trials_a, k_b, trials_b):
    """Two binomial counts agree within 5 standard errors of their difference at the pooled rate."""
    p = (k_a + k_b) / (trials_a + trials_b)
    se = math.sqrt(p * (1.0 - p) * (1.0 / trials_a + 1.0 / trials_b))
    diff = abs(k_a / trials_a - k_b / trials_b)
    assert diff <= 5.0 * se, f"{label}: {k_a}/{trials_a} vs {k_b}/{trials_b} ({diff / se:.1f} standard errors)"


def per_trial_chunk(source_left, source_right, link, n_trials, rng):
    """(heralds, true heralds) as rp._simulate_chunk, with a photon number and a survival draw per node and trial."""
    n, m = [], []
    for src in (source_left, source_right):
        dist = src.emission_distribution()
        n_src = rng.choice(len(dist), size=n_trials, p=dist)
        m_src = np.zeros_like(n_src)
        emitted = n_src > 0
        m_src[emitted] = rng.binomial(n_src[emitted], link.survival)
        n.append(n_src)
        m.append(m_src)
    m_tot = m[0] + m[1]
    routed = np.flatnonzero(m_tot >= 2)
    if routed.size == 0:
        return 0, 0
    photons = m_tot[routed]
    detectors = rng.integers(4, size=(routed.size, int(photons.max())))
    clicks = np.where(np.arange(detectors.shape[1]) < photons[:, None], 1 << detectors, 0)
    herald = rp.HERALD_TABLE[np.bitwise_or.reduce(clicks, axis=1)]
    true = herald & (n[0][routed] == 1) & (n[1][routed] == 1)
    return int(herald.sum()), int(true.sum())
