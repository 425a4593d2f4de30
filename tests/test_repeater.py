import numpy as np
import pytest

from rydlink import repeater as rp
from rydlink.measurement import DetectorModel, PhotonFieldModel
from rydlink.repeater import LinkConfig, SourceModel

SEMI = SourceModel("semi_deterministic")
IDEAL_LINK = LinkConfig()


class TestSourceModel:
    def test_semi_deterministic_distribution(self):
        d = SEMI.emission_distribution()
        assert d[1] == pytest.approx(0.5)
        assert d[0] == pytest.approx(0.5)
        assert np.all(d[2:] == 0.0)

    def test_semi_deterministic_retrieval_thinning(self):
        d = SourceModel("semi_deterministic", retrieval_efficiency=0.4).emission_distribution()
        assert d[1] == pytest.approx(0.2)

    def test_dlcz_geometric_ratios(self):
        d = SourceModel("dlcz", emission_prob=0.1).emission_distribution()
        assert d[2] / d[1] == pytest.approx(0.1, rel=1e-12)
        assert d.sum() == pytest.approx(1.0)

    def test_dlcz_p_range_enforced(self):
        with pytest.raises(ValueError):
            SourceModel("dlcz", emission_prob=0.5)
        with pytest.raises(ValueError):
            SourceModel("dlcz", emission_prob=0.0)
        with pytest.raises(ValueError):
            PhotonFieldModel("dlcz_pair", 1.5, DetectorModel())
        # the repeater source and the g2 field share one DLCZ model
        source = SourceModel("dlcz", emission_prob=0.05).emission_distribution()
        field = PhotonFieldModel("dlcz_pair", 0.05, DetectorModel()).occupation_distribution()
        assert np.array_equal(source, field)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceModel("epr")


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
        # place m photons on uniformly random detectors, independently of
        # the repeater's own sampler
        rng = np.random.default_rng(0)
        for m in (2, 3):
            detectors = rng.integers(4, size=(40_000, m))
            occupied = np.bitwise_or.reduce(1 << detectors, axis=1)
            hits = np.isin(occupied, rp.HERALD_MASKS).mean()
            assert hits == pytest.approx(rp.pattern_herald_prob(m), abs=0.01)


class TestAnalyticLink:
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
        # trial counts that are not a chunk multiple still reproduce
        c = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 70_001, 3)
        d = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 70_001, 3)
        assert c == d

    def test_ci_covers_true_rate(self):
        mc = rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 200_000, 21)
        lo, hi = mc.herald_rate_ci95
        assert lo < 0.125 < hi

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            rp.simulate_link(SEMI, SEMI, IDEAL_LINK, 0, 1)


class TestLinkConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            LinkConfig(channel_transmission=1.5)
        with pytest.raises(ValueError):
            LinkConfig(channel_transmission=-0.1)

    def test_survival_is_channel_transmission(self):
        assert LinkConfig(channel_transmission=0.4).survival == 0.4
