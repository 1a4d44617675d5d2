"""Distribution moments against quadrature oracles, plus sampling contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stochlyap.dist import (
    Constant,
    Discrete,
    DistributionSpec,
    Exponential,
    Normal,
    Uniform,
    substream,
)
from stochlyap.errors import StochLyapError, UnsupportedMoment


def quad_moment(pdf, p, lo, hi):
    val, err = quad(lambda x: x**p * pdf(x), lo, hi,
                    epsabs=1e-13, epsrel=1e-13, limit=500)
    assert err < 1e-9 * (1.0 + abs(val))
    return val


class TestMoments:
    def test_normal_variance(self):
        spec = DistributionSpec((Normal(0.0, 0.2),))
        assert spec.moment((2,)) == pytest.approx(0.04, abs=1e-15)

    def test_uniform_variance(self):
        spec = DistributionSpec((Uniform(-0.5, 0.5),))
        assert spec.moment((2,)) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_normal_fourth_vs_quadrature(self):
        sig = 0.2
        spec = DistributionSpec((Normal(0.0, sig),))
        pdf = lambda x: np.exp(-0.5 * (x / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
        oracle = quad_moment(pdf, 4, -8 * sig, 8 * sig)
        assert oracle == pytest.approx(3 * sig**4, abs=1e-10)
        assert spec.moment((4,)) == pytest.approx(oracle, abs=1e-10)

    def test_exponential_second_vs_quadrature(self):
        rate = 20.0
        spec = DistributionSpec((Exponential(rate),))
        pdf = lambda x: rate * np.exp(-rate * x)
        oracle = quad_moment(pdf, 2, 0, 60.0 / rate)
        assert spec.moment((2,)) == pytest.approx(0.005, abs=1e-12)
        assert spec.moment((2,)) == pytest.approx(oracle, abs=1e-10)

    def test_shifted_normal_vs_quadrature(self):
        mu, sig = 0.7, 0.3
        pdf = lambda x: np.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
        spec = DistributionSpec((Normal(mu, sig),))
        for p in range(5):
            oracle = quad_moment(pdf, p, mu - 10 * sig, mu + 10 * sig)
            assert spec.moment((p,)) == pytest.approx(oracle, rel=1e-10)

    def test_zero_index_is_one(self):
        spec = DistributionSpec(
            (Normal(1.0, 2.0), Uniform(-1.0, 3.0), Exponential(5.0),
             Discrete((1.0, 2.0), (0.25, 0.75)), Constant(4.0))
        )
        assert spec.moment((0, 0, 0, 0, 0)) == 1.0

    def test_odd_moments_vanish_on_symmetric_coords(self):
        spec = DistributionSpec((Normal(0.0, 0.7), Uniform(-0.3, 0.3)))
        for alpha in [(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (3, 1), (1, 3)]:
            assert spec.moment(alpha) == 0.0

    def test_product_structure(self):
        spec = DistributionSpec((Normal(0.0, 0.2), Uniform(-0.5, 0.5)))
        assert spec.moment((2, 2)) == pytest.approx(0.04 / 12.0, rel=1e-14)

    def test_degree_cap(self):
        spec = DistributionSpec((Normal(0.0, 1.0), Uniform(0.0, 1.0)))
        with pytest.raises(UnsupportedMoment):
            spec.moment((3, 2))

    def test_moment_table_matches_moment(self):
        # these probabilities sum to 0.9999999999999999, which column 0 must not show
        spec = DistributionSpec((Normal(1.0, 2.0), Uniform(-1.0, 3.0), Exponential(5.0),
                                 Discrete((1.0, 2.0, 4.0), (0.7, 0.2, 0.1)), Constant(4.0)))
        table = spec.moment_table(4)
        assert table.shape == (5, 5) and (table[:, 0] == 1.0).all()
        for q in range(5):
            for d in range(5):
                assert table[q, d] == spec.moment(tuple(d * (t == q) for t in range(5)))
        assert np.array_equal(spec.moment_table(2), table[:, :3])
        with pytest.raises(UnsupportedMoment):
            spec.moment_table(5)

    @pytest.mark.parametrize("law", [Uniform(0.0, 1e308), Normal(0.0, 1e200), Uniform(-np.inf, 0.0)])
    def test_moment_table_overflow_is_typed(self, law):
        with pytest.raises(UnsupportedMoment, match="overflow"):
            DistributionSpec((Constant(1.0), law)).moment_table(2)

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.floats(-3, 1), width=st.floats(0.1, 4), p=st.integers(0, 4)
    )
    def test_uniform_moments_match_quadrature(self, lo, width, p):
        hi = lo + width
        spec = DistributionSpec((Uniform(lo, hi),))
        oracle = quad_moment(lambda x: 1.0 / (hi - lo), p, lo, hi)
        assert spec.moment((p,)) == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(0.5, 40), p=st.integers(0, 4))
    def test_exponential_moments_match_quadrature(self, rate, p):
        spec = DistributionSpec((Exponential(rate),))
        oracle = quad_moment(lambda x: rate * np.exp(-rate * x), p, 0, 80.0 / rate)
        assert spec.moment((p,)) == pytest.approx(oracle, rel=1e-8)


class TestSampling:
    def test_constant_draw(self):
        spec = DistributionSpec((Constant(3.0),))
        assert spec.sample_block(substream(0, 0), 1)[0][0] == 3.0

    def test_single_atom_discrete(self):
        spec = DistributionSpec((Discrete((1.0,), (1.0,)),))
        assert spec.sample_block(substream(5, 0), 1)[0][0] == 1.0

    def test_seed_determinism(self):
        spec = DistributionSpec((Normal(0.0, 1.0), Uniform(-1.0, 1.0), Exponential(2.0)))
        a = np.array([spec.sample_block(substream(123, 0), 1)[0] for _ in range(4)])
        b = np.array([spec.sample_block(substream(123, 0), 1)[0] for _ in range(4)])
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        spec = DistributionSpec((Normal(0.0, 1.0),))
        a = spec.sample_block(substream(9, 0), 16)
        b = spec.sample_block(substream(9, 1), 16)
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers_normal(self):
        # spec example: 1e6 draws of N(0, 0.2), mean within 1e-3, var within 2e-3
        spec = DistributionSpec((Normal(0.0, 0.2),))
        draws = spec.sample_block(substream(2024, 0), 1_000_000)[:, 0]
        assert abs(draws.mean()) < 1e-3
        assert abs(draws.var() - 0.04) < 2e-3

    def test_monte_carlo_matches_closed_form_moments(self):
        spec = DistributionSpec((Uniform(-0.5, 0.5), Exponential(10.0)))
        draws = spec.sample_block(substream(7, 0), 1_000_000)
        for alpha in [(2, 0), (0, 2), (1, 1), (2, 2), (4, 0)]:
            vals = draws[:, 0] ** alpha[0] * draws[:, 1] ** alpha[1]
            stderr = vals.std() / np.sqrt(len(vals))
            assert abs(vals.mean() - spec.moment(alpha)) < 4 * stderr

    def test_discrete_frequencies(self):
        spec = DistributionSpec((Discrete((1.0, 2.0, 5.0), (0.2, 0.5, 0.3)),))
        draws = spec.sample_block(substream(11, 0), 200_000)[:, 0]
        freq = [(draws == v).mean() for v in (1.0, 2.0, 5.0)]
        assert np.allclose(freq, [0.2, 0.5, 0.3], atol=0.01)


class TestValidationAndJson:
    def test_uniform_needs_strict_order(self):
        with pytest.raises(StochLyapError):
            Uniform(1.0, 1.0)

    def test_discrete_prob_validation(self):
        with pytest.raises(StochLyapError):
            Discrete((1.0, 2.0), (0.7, 0.2))
        with pytest.raises(StochLyapError):
            Discrete((1.0,), (-1.0,))
        with pytest.raises(StochLyapError):
            Discrete((1.0, 2.0), (0.5,))

    def test_positive_parameters(self):
        with pytest.raises(StochLyapError):
            Normal(0.0, 0.0)
        with pytest.raises(StochLyapError):
            Exponential(0.0)

    def test_json_round_trip(self):
        spec = DistributionSpec(
            (Normal(0.0, 0.2), Uniform(-0.5, 0.5), Exponential(20.0),
             Discrete((1.0, 2.0), (0.5, 0.5)), Constant(-1.5))
        )
        obj = spec.to_obj()
        assert obj["coords"][0] == {"normal": {"mean": 0.0, "stddev": 0.2}}
        assert obj["coords"][2] == {"exponential": {"rate": 20.0}}
        again = DistributionSpec.from_obj(obj)
        assert again == spec
        assert again.to_obj() == obj
