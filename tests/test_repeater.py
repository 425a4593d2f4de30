import math

import numpy as np
import pytest

from rydlink import measurement as ms
from rydlink import repeater as rp
from rydlink.cli import SWEEPS
from rydlink.measurement import DetectorModel, PhotonFieldModel
from rydlink.repeater import LinkConfig, SourceModel

from per_trial_samplers import HERALD_MASKS, HERALD_TABLE, assert_same_rate, per_trial_chunk, rng_blocks, routed_chunk

SEMI = SourceModel("semi_deterministic")
IDEAL_LINK = LinkConfig()


class TestSourceModel:
    def test_semi_deterministic_distribution(self):
        d = SEMI.emission_distribution()
        assert d[1] == pytest.approx(0.5)
        assert d[0] == pytest.approx(0.5)

    def test_semi_deterministic_retrieval_thinning(self):
        d = SourceModel("semi_deterministic", retrieval_efficiency=0.4).emission_distribution()
        assert d[1] == pytest.approx(0.2)

    def test_dlcz_geometric_ratios(self):
        d = SourceModel("dlcz", emission_prob=0.1).emission_distribution()
        assert d[2] / d[1] == pytest.approx(0.1, rel=1e-12)
        assert d.sum() == pytest.approx(1.0)

    def test_dlcz_p_range_enforced(self):
        # occupation checks p when the source's law is built, not when the source is made
        for p in (0.5, 0.0):
            with pytest.raises(ValueError, match="dlcz excitation probability"):
                SourceModel("dlcz", emission_prob=p).emission_distribution()
        with pytest.raises(ValueError):
            PhotonFieldModel("dlcz_pair", 1.5, DetectorModel())
        # the repeater sources and the g2 fields share one photon-number model
        source = SourceModel("dlcz", emission_prob=0.05).emission_distribution()
        field = PhotonFieldModel("dlcz_pair", 0.05, DetectorModel()).occupation_distribution()
        assert np.array_equal(source, field)
        assert np.array_equal(source, ms.occupation("dlcz_pair", 0.05))
        for eta in (1.0, 0.9, 0.4, 0.0):
            semi = SourceModel("semi_deterministic", retrieval_efficiency=eta).emission_distribution()
            assert np.array_equal(semi, ms.occupation("single_photon", eta / 2.0))

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="epr"):
            SourceModel("epr").emission_distribution()


class TestHeraldPattern:
    def test_fewer_than_two_photons_cannot_herald(self):
        assert rp.pattern_herald_prob(0) == 0.0
        assert rp.pattern_herald_prob(1) == 0.0

    def test_two_photons_herald_half(self):
        # 4 valid two-detector patterns out of uniform placement on 4 detectors
        assert rp.pattern_herald_prob(2) == pytest.approx(0.5)

    def test_three_photons(self):
        # 4 * (2^3 - 2) / 4^3 = 3/8
        assert rp.pattern_herald_prob(3) == pytest.approx(3.0 / 8.0)

    def test_mc_pattern_matches_analytic(self):
        # place m photons on uniformly random detectors, as the routed samplers do
        rng = np.random.default_rng(0)
        for m in (2, 3):
            detectors = rng.integers(4, size=(40_000, m))
            occupied = np.bitwise_or.reduce(1 << detectors, axis=1)
            hits = np.isin(occupied, HERALD_MASKS).mean()
            assert hits == pytest.approx(rp.pattern_herald_prob(m), abs=0.01)


def enumerated_link(source_left, source_right, link):
    """Oracle of rp.analytic_link: (herald rate, conditional fidelity) by
    exact enumeration over emitted and surviving photon numbers."""
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
                    h = rp.pattern_herald_prob(m_l + m_r)
                    herald_rate += w * h
                    if m_l == 1 and m_r == 1 and n_l == 1 and n_r == 1:
                        true_rate += w * h
    return herald_rate, true_rate / herald_rate


class TestAnalyticLink:
    @pytest.mark.parametrize("eta", [round(0.1 * i, 1) for i in range(1, 11)] + [1e-3, 1e-8])
    @pytest.mark.parametrize(
        "source",
        [SourceModel("semi_deterministic", retrieval_efficiency=r) for r in (1.0, 0.9, 0.5)]
        + [SourceModel("dlcz", emission_prob=p) for p in SWEEPS["p"]],
        ids=lambda src: f"{src.kind}-{src.emission_prob if src.kind == 'dlcz' else src.retrieval_efficiency}",
    )
    def test_matches_enumeration(self, source, eta):
        link = LinkConfig(channel_transmission=eta)
        stats = rp.analytic_link(source, source, link)
        rate, fidelity = enumerated_link(source, source, link)
        assert stats.herald_rate == pytest.approx(rate, rel=1e-14)
        assert stats.conditional_fidelity == pytest.approx(fidelity, rel=1e-14)

    def test_semi_ideal_rate_is_one_eighth(self):
        stats = rp.analytic_link(SEMI, SEMI, IDEAL_LINK)
        assert stats.herald_rate == pytest.approx(0.125, abs=1e-12)
        assert stats.spurious_fraction == 0.0
        assert stats.conditional_fidelity == pytest.approx(1.0)

    def test_semi_spurious_free_at_any_transmission(self):
        for eta in (1.0, 0.5, 0.1):
            stats = rp.analytic_link(SEMI, SEMI, LinkConfig(channel_transmission=eta))
            assert stats.spurious_fraction == 0.0
            # herald rate scales as eta^2 (both photons must survive)
            assert stats.herald_rate == pytest.approx(0.125 * eta**2, rel=1e-12)

    def test_dlcz_oracle_values(self):
        # frozen independent enumeration at p = 0.05
        src = SourceModel("dlcz", emission_prob=0.05)
        full = rp.analytic_link(src, src, IDEAL_LINK)
        assert full.herald_rate == pytest.approx(0.00355990021602147, rel=1e-10)
        assert full.spurious_fraction == pytest.approx(0.6831018745971357, rel=1e-10)
        half = rp.analytic_link(src, src, LinkConfig(channel_transmission=0.5))
        assert half.herald_rate == pytest.approx(0.0009605379232890946, rel=1e-10)
        assert half.spurious_fraction == pytest.approx(0.7063817893791472, rel=1e-10)

    def test_dlcz_spurious_monotone_in_p(self):
        fractions = [
            rp.analytic_link(
                SourceModel("dlcz", emission_prob=p),
                SourceModel("dlcz", emission_prob=p),
                IDEAL_LINK,
            ).spurious_fraction
            for p in (0.01, 0.05, 0.1)
        ]
        assert fractions[0] > 0.0
        assert fractions[0] < fractions[1] < fractions[2]


def chunked_counts(chunk, source, link, trials, seed):
    """(heralds, true heralds) of ``trials`` trials drawn by ``chunk`` in blocks of streams (b,)."""
    counts = [chunk(source, source, link, n, rng) for rng, n in rng_blocks(seed, trials)]
    return tuple(sum(c) for c in zip(*counts))


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "source",
    [SEMI] + [SourceModel("dlcz", emission_prob=p) for p in SWEEPS["p"]],
    ids=lambda src: "semi" if src.kind != "dlcz" else f"dlcz-{src.emission_prob}",
)
class TestAggregatedLink:
    def test_matches_per_trial_oracle(self, source, eta):
        link = LinkConfig(channel_transmission=eta)
        aggregated, oracle = 1 << 21, 1 << 18
        counts = chunked_counts(rp._simulate_chunk, source, link, aggregated, 5)
        reference = chunked_counts(per_trial_chunk, source, link, oracle, 6)
        for label, k_a, k_b in zip(("heralds", "true heralds"), counts, reference):
            assert_same_rate(label, k_a, aggregated, k_b, oracle)

    def test_matches_routed_oracle(self, source, eta):
        # the herald law drawn at once against the photon-number cells whose photons are routed one by one
        link = LinkConfig(channel_transmission=eta)
        aggregated, oracle = 10**12, 1 << 21
        counts = rp._simulate_chunk(source, source, link, aggregated, ms.rng_stream(5, 0))
        reference = chunked_counts(routed_chunk, source, link, oracle, 6)
        for label, k_a, k_b in zip(("heralds", "true heralds"), counts, reference):
            assert_same_rate(label, k_a, aggregated, k_b, oracle)


class TestSimulateLink:
    def test_matches_analytic_semi(self):
        trials = 300_000
        mc = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, trials, 11)
        sigma = np.sqrt(0.125 * 0.875 / trials)
        assert abs(mc.herald_rate - 0.125) < 4.0 * sigma
        assert mc.spurious_fraction == 0.0
        assert mc.conditional_fidelity == 1.0

    def test_matches_analytic_dlcz(self):
        src = SourceModel("dlcz", emission_prob=0.1)
        link = LinkConfig(channel_transmission=0.7)
        exact = rp.analytic_link(src, src, link)
        trials = 400_000
        mc = rp.simulate_link(src, src, link, trials, 5)
        sigma = np.sqrt(exact.herald_rate * (1.0 - exact.herald_rate) / trials)
        assert abs(mc.herald_rate - exact.herald_rate) < 4.0 * sigma
        assert mc.spurious_fraction == pytest.approx(exact.spurious_fraction, abs=0.05)

    def test_deterministic_and_chunk_invariant(self):
        a = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 100_000, 3)
        b = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 100_000, 3)
        assert a == b
        c = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 70_001, 3)
        d = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 70_001, 3)
        assert c == d

    def test_matches_analytic_dlcz_all_photon_numbers(self):
        # at p = 0.2 and eta = 1 every photon number up to 4 per node contributes heralds
        src = SourceModel("dlcz", emission_prob=0.2)
        exact = rp.analytic_link(src, src, IDEAL_LINK)
        trials = 1 << 21
        mc = rp.simulate_link(src, src, IDEAL_LINK, trials, 9)
        rate_sigma = np.sqrt(exact.herald_rate * (1.0 - exact.herald_rate) / trials)
        assert abs(mc.herald_rate - exact.herald_rate) < 4.0 * rate_sigma
        f = exact.conditional_fidelity
        fid_sigma = np.sqrt(f * (1.0 - f) / (exact.herald_rate * trials))
        assert abs(mc.conditional_fidelity - f) < 4.0 * fid_sigma

    def test_chunk_without_two_photons_cannot_herald(self):
        rng = np.random.default_rng(0)
        assert rp._simulate_chunk(SEMI, SEMI, LinkConfig(channel_transmission=0.0), 1000, rng) == (0, 0)

    def test_herald_table_is_mask_membership(self):
        assert HERALD_TABLE.shape == (16,)
        for clicks in range(16):
            assert HERALD_TABLE[clicks] == (clicks in HERALD_MASKS)

    def test_semi_source_heralds_no_spurious_pair(self):
        # rate - true_rate is exactly 0, so the spurious cell of the multinomial draws nothing
        for eta in (1.0, 0.7, 0.1, 1e-8):
            link = LinkConfig(channel_transmission=eta)
            semi = SourceModel("semi_deterministic", retrieval_efficiency=0.9)
            rate, true_rate = rp._herald_probs(semi, semi, link)
            assert rate == true_rate
            heralds, true_heralds = rp._simulate_chunk(semi, semi, link, 2**63 - 1, ms.rng_stream(1, 0))
            assert heralds == true_heralds > 0

    def test_ci_covers_true_rate(self):
        mc = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 200_000, 21)
        lo, hi = mc.herald_rate_ci95
        assert lo < 0.125 < hi

    def test_ci_has_width_at_zero_rate(self):
        # the Wilson interval keeps an upper bound above a zero count
        mc = rp.simulate_link(SEMI, SEMI, LinkConfig(channel_transmission=0.0), 1000, 1)
        assert mc.herald_rate == 0.0
        lo, hi = mc.herald_rate_ci95
        assert lo == 0.0
        assert hi == pytest.approx(1.96**2 / (1000 + 1.96**2), rel=1e-12)


class TestLinkConfigValidation:
    def test_survival_is_channel_transmission(self):
        assert LinkConfig(channel_transmission=0.4).survival == 0.4
