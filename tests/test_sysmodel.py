"""Model evaluation, closed-loop composition, JSON round trips."""

import numpy as np
import pytest
from scipy.linalg import expm

from stochlyap.demo_models import example1_model, example2_model
from stochlyap.dist import Constant, Discrete, DistributionSpec, Normal, Uniform
from stochlyap.errors import (
    DimensionMismatch,
    InvalidMode,
    NoInputChannel,
    StochLyapError,
)
from stochlyap.sysmodel import (
    AffineForm,
    ClosedLoopSampledForm,
    PolyEntry,
    PolyForm,
    SampledDataForm,
    SwitchedForm,
    model_from_obj,
)

from moment_oracles import evaluate_loop, random_model


def two_mode_scalar(with_input=False):
    dist = DistributionSpec((Discrete((1.0, 2.0), (0.5, 0.5)),))
    b = (np.array([[1.0]]), np.array([[0.5]])) if with_input else None
    return SwitchedForm((np.array([[2.0]]), np.array([[0.0]])), dist, b)


class TestEvaluate:
    def test_affine_identity(self):
        model = AffineForm(
            (np.eye(2), np.zeros((2, 2))), DistributionSpec((Constant(7.0),))
        )
        A, B = model.evaluate([7.0])
        assert np.array_equal(A, np.eye(2))
        assert B is None

    def test_poly_example_at_zero(self):
        A, _ = example1_model().evaluate([0.0, 0.0])
        expected = np.array([[0.3, 0.8, -0.5], [0.5, 0.3, -1.2], [-0.2, 0.8, 0.6]])
        assert np.allclose(A, expected, atol=1e-15)

    def test_poly_example_quadratic_terms(self):
        A, _ = example1_model().evaluate([0.4, -0.2])
        assert A[0, 0] == pytest.approx(0.3 - 0.2)
        assert A[0, 1] == pytest.approx(0.8 + 0.4)
        assert A[1, 1] == pytest.approx(0.3 + 0.4 * -0.2)
        assert A[1, 2] == pytest.approx(-1.2 + 0.16)

    def test_switched_lookup(self):
        A, _ = two_mode_scalar().evaluate([2.0])
        assert A[0, 0] == 0.0

    def test_switched_invalid_mode(self):
        with pytest.raises(InvalidMode):
            two_mode_scalar().evaluate([3.0])
        with pytest.raises(InvalidMode):
            two_mode_scalar().evaluate([1.5])

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("form", ["affine", "poly", "switched"])
    def test_evaluate_block_matches_term_loop(self, form, m):
        rng = np.random.default_rng([ord(form[0]), m, 1])

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

        for _ in range(10):
            model = random_model(form, m, rng)
            Xi = model.dist.sample_block(rng, 50)
            A, B = evaluate_loop(model, Xi)
            got_a, got_b = model.evaluate_block(Xi)
            close(got_a, A)
            if m == 0:
                assert got_b is None
                continue
            close(got_b, B)
            F = rng.normal(size=(m, model.n))
            cl_a, cl_b = model.closed_loop(F).evaluate_block(Xi)
            close(cl_a, A + B @ F)
            assert cl_b is None

    def test_every_form_binds_its_own_evaluate_block(self):
        # the benchmark tracer wraps vars(cls)["evaluate_block"] on each form
        for cls in (AffineForm, SwitchedForm, PolyForm, SampledDataForm, ClosedLoopSampledForm):
            assert "evaluate_block" in vars(cls)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            example1_model().evaluate([0.0])

    def test_sampled_data_is_matrix_exponential(self):
        model = example2_model()
        A, B = model.evaluate([0.0])  # h = 0.01
        assert np.allclose(A, expm(model.plant.A_c * 0.01), atol=1e-12)

    def test_affine_constant_when_slopes_zero(self):
        model = AffineForm(
            (np.array([[0.3]]), np.array([[0.0]])),
            DistributionSpec((Normal(0.0, 1.0),)),
        )
        draws = np.linspace(-3, 3, 7)
        mats = [model.evaluate([x])[0][0, 0] for x in draws]
        assert np.ptp(mats) == 0.0


class TestClosedLoop:
    def rand_xi(self, model, count, seed):
        rng = np.random.default_rng(seed)
        if isinstance(model, SwitchedForm):
            return rng.integers(1, len(model.a_modes) + 1, size=(count, 1)).astype(float)
        return model.dist.sample_block(np.random.default_rng(seed), count)

    @pytest.mark.parametrize("builder,tol", [
        ("affine", 1e-12), ("switched", 1e-12), ("poly", 1e-12), ("sampled", 1e-9),
    ])
    def test_matches_direct_composition(self, builder, tol):
        rng = np.random.default_rng(0)
        if builder == "affine":
            dist = DistributionSpec((Normal(0.0, 1.0), Uniform(-1.0, 1.0)))
            model = AffineForm(
                tuple(rng.normal(size=(3, 3)) for _ in range(3)), dist,
                tuple(rng.normal(size=(3, 2)) for _ in range(3)),
            )
        elif builder == "switched":
            model = two_mode_scalar(with_input=True)
        elif builder == "poly":
            base = example1_model()
            b = tuple(
                (PolyEntry(((rng.normal(), (0, 0)), (rng.normal(), (1, 0)))),)
                for _ in range(3)
            )
            model = PolyForm(base.a_entries, base.dist, b)
        else:
            model = example2_model()
        F = rng.normal(size=(model.m, model.n))
        cl = model.closed_loop(F)
        assert cl.m == 0
        Xi = self.rand_xi(model, 100, seed=1)
        A_cl, _ = cl.evaluate_block(Xi)
        A, B = model.evaluate_block(Xi)
        assert np.abs(A_cl - (A + B @ F)).max() < tol

    def test_zero_gain_keeps_a_part(self):
        model = two_mode_scalar(with_input=True)
        cl = model.closed_loop(np.zeros((1, 1)))
        for xi in ([1.0], [2.0]):
            assert np.array_equal(cl.evaluate(xi)[0], model.evaluate(xi)[0])

    def test_scalar_affine_shift(self):
        # a(xi) = xi, b = 1, F = -0.5  ->  a_cl(xi) = xi - 0.5
        model = AffineForm(
            (np.zeros((1, 1)), np.eye(1)), DistributionSpec((Normal(0.0, 1.0),)),
            (np.eye(1), np.zeros((1, 1))),
        )
        cl = model.closed_loop([[-0.5]])
        for x in (-1.0, 0.0, 2.5):
            assert cl.evaluate([x])[0][0, 0] == pytest.approx(x - 0.5, abs=1e-15)

    def test_sampled_composition_by_hand(self):
        model = example2_model()
        F = np.array([[2.9242, 4.9123, -10.0501]])
        cl = model.closed_loop(F)
        A_cl, _ = cl.evaluate([0.0])  # h = 0.01
        aug = np.zeros((4, 4))
        aug[:3, :3] = model.plant.A_c
        aug[:3, 3:] = model.plant.B_c
        E = expm(aug * 0.01)
        assert np.allclose(A_cl, E[:3, :3] + E[:3, 3:] @ F, atol=1e-9)

    def test_no_input_channel(self):
        with pytest.raises(NoInputChannel):
            example1_model().closed_loop(np.zeros((1, 3)))

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            two_mode_scalar(with_input=True).closed_loop(np.zeros((2, 1)))


class TestValidationAndJson:
    def test_switched_needs_discrete_modes(self):
        dist = DistributionSpec((Normal(0.0, 1.0),))
        with pytest.raises(StochLyapError):
            SwitchedForm((np.eye(1),), dist)
        bad = DistributionSpec((Discrete((1.0, 3.0), (0.5, 0.5)),))
        with pytest.raises(StochLyapError):
            SwitchedForm((np.eye(1), np.eye(1)), bad)

    def test_poly_degree_cap(self):
        with pytest.raises(StochLyapError):
            PolyEntry(((1.0, (2, 1)),))

    def test_poly_duplicate_index(self):
        with pytest.raises(StochLyapError):
            PolyEntry(((1.0, (1, 0)), (2.0, (1, 0))))

    def test_sampled_interval_support(self):
        from stochlyap.sampled import ContinuousPlant
        from stochlyap.sysmodel import SampledDataForm

        plant = ContinuousPlant(np.eye(1), np.eye(1))
        with pytest.raises(StochLyapError):
            SampledDataForm(plant, DistributionSpec((Normal(0.0, 1.0),)), offset=0.01)
        with pytest.raises(StochLyapError):
            SampledDataForm(plant, DistributionSpec((Constant(1.0),)), offset=0.0)

    @pytest.mark.parametrize("model", [
        example1_model(),
        example2_model(),
        two_mode_scalar(with_input=True),
        AffineForm(
            (np.eye(2), np.ones((2, 2))), DistributionSpec((Uniform(0.0, 1.0),)),
            (np.ones((2, 1)), np.zeros((2, 1))),
        ),
        PolyForm(
            example1_model().a_entries,
            example1_model().dist,
            tuple((PolyEntry(((0.5, (0, 0)), (1.0, (1, 0)))),) for _ in range(3)),
        ),
    ], ids=["poly", "sampled", "switched", "affine", "poly-with-input"])
    def test_json_round_trip(self, model):
        obj = model.to_obj()
        again = model_from_obj(obj)
        assert again.to_obj() == obj
        xi = [1.0] if isinstance(model, SwitchedForm) else [0.1] * model.Z
        A1, B1 = model.evaluate(xi)
        A2, B2 = again.evaluate(xi)
        assert np.array_equal(A1, A2)
        assert (B1 is None) == (B2 is None)
        if B1 is not None:
            assert np.array_equal(B1, B2)

    def test_closed_loop_sampled_round_trip(self):
        cl = example2_model().closed_loop(np.array([[1.0, 2.0, 3.0]]))
        again = model_from_obj(cl.to_obj())
        xi = [0.05]
        assert np.allclose(cl.evaluate(xi)[0], again.evaluate(xi)[0], atol=1e-15)
