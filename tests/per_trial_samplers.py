"""The Monte Carlo samplers that the package's draws replaced, kept as oracles.

``measurement.hbt_counts`` and ``repeater._simulate_chunk`` draw one
multinomial over the per-trial outcome probabilities of their exact models.
Two generations of samplers came before them, and both stay here:

- the per-trial samplers, which draw every trial's photon numbers,
  splitter or survival draws and clicks one by one;
- the cell samplers, which draw one multinomial over a finer partition of
  a trial's outcomes, the (n, k, click pattern) cells of the g2 splitter
  and the (n_l, n_r) photon-number cells of the repeater, whose photons
  are then routed to random detectors.

They sample the same laws by other routes; the tests compare them within 5
standard errors, and the g2 cells summed per click pattern exactly.
``rng_blocks`` draws in blocks of ``BLOCK`` from streams key + (b,), as the
package did before each Monte Carlo became one draw, so these samplers and
the atom sampler of ``test_atom_sampler`` keep their draws.
"""

import math

import numpy as np

from rydlink import measurement as ms

BLOCK = 1 << 16  # draws per block; fixed, so block b does not depend on the total


def rng_blocks(seed, n, *key):
    """Yield (generator, size) for n draws in blocks of BLOCK; block b draws from stream key + (b,)."""
    for b, start in enumerate(range(0, n, BLOCK)):
        yield ms.rng_stream(seed, *key, b), min(BLOCK, n - start)


# Detector indices: 0 = arm1/H, 1 = arm1/V, 2 = arm2/H, 3 = arm2/V; a click set is a 4-bit mask
PSI_MINUS_MASKS = (0b1001, 0b0110)  # one click in each arm, opposite polarizations
PSI_PLUS_MASKS = (0b0011, 0b1100)  # two clicks in the same arm
HERALD_MASKS = PSI_MINUS_MASKS + PSI_PLUS_MASKS
HERALD_TABLE = np.isin(np.arange(16), HERALD_MASKS)  # click-set bitmask -> heralds


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


def hbt_cells(field):
    """(cells, 4) probabilities of the (n, k) cells and click patterns (both, only 1, only 2, neither).

    A trial holds n photons with probability P(n), sends k of them to
    detector 1 with probability C(n, k) 2^-n, and its detectors click
    independently with q1 = 1 - (1 - eta)^k (1 - b) and
    q2 = 1 - (1 - eta)^(n - k) (1 - b).
    """
    dist = field.occupation_distribution()
    eta, b = field.detector.efficiency, field.detector.background_prob
    n, k = np.tril_indices(len(dist))  # every (n, k) with k <= n
    split = dist[n] * np.array([math.comb(a, c) for a, c in zip(n.tolist(), k.tolist())]) * 0.5**n
    miss_1, miss_2 = (1.0 - eta) ** k * (1.0 - b), (1.0 - eta) ** (n - k) * (1.0 - b)
    patterns = [(1.0 - miss_1) * (1.0 - miss_2), (1.0 - miss_1) * miss_2, miss_1 * (1.0 - miss_2), miss_1 * miss_2]
    return split[:, None] * np.column_stack(patterns)


def cell_hbt_counts(field, trials, seed):
    """(n1, n2, n12) as ms.hbt_counts, from one multinomial over the cells of ``hbt_cells``."""
    cells = hbt_cells(field).ravel()
    counts = ms.rng_stream(seed).multinomial(trials, cells / cells.sum()).reshape(-1, 4)
    both, only_1, only_2, _ = counts.sum(axis=0).tolist()
    return both + only_1, both + only_2, both


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
    herald = HERALD_TABLE[np.bitwise_or.reduce(clicks, axis=1)]
    true = herald & (n[0][routed] == 1) & (n[1][routed] == 1)
    return int(herald.sum()), int(true.sum())


def routed_chunk(source_left, source_right, link, n_trials, rng):
    """(heralds, true heralds) as rp._simulate_chunk, from the routed photon-number cells.

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
