import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gospa_oracle

from mbmtrack.errors import InputError
from mbmtrack.gospa import GospaParams, GospaResult, component_rms, gospa, rms

P10 = GospaParams(cutoff=10.0, order=2.0)


def random_sets(rng, max_size=4, dim=2, spread=12.0):
    truth = [rng.uniform(-spread, spread, size=dim) for _ in range(rng.integers(0, max_size + 1))]
    estimate = [
        rng.uniform(-spread, spread, size=dim) for _ in range(rng.integers(0, max_size + 1))
    ]
    return truth, estimate


class TestGospaBasics:
    def test_identical_sets_cost_zero(self):
        points = [np.array([1.0, 2.0]), np.array([-3.0, 0.5])]
        result = gospa(points, [p.copy() for p in points], P10)
        assert result.total == 0.0
        assert result.n_missed == 0 and result.n_false == 0
        assert result.localisation_p == 0.0

    def test_missed_only_closed_form(self):
        result = gospa([np.array([5.0, 5.0])], [], P10)
        assert result.total == pytest.approx((100.0 / 2.0) ** 0.5)
        assert result.n_missed == 1 and result.n_false == 0
        assert result.missed_p == pytest.approx(50.0)

    def test_false_only_closed_form(self):
        result = gospa([], [np.zeros(2)] * 3, P10)
        assert result.total == pytest.approx((3 * 50.0) ** 0.5)
        assert result.n_false == 3

    def test_both_empty(self):
        assert gospa([], [], P10).total == 0.0

    def test_singleton_reduction_below_cutoff(self):
        x = np.array([0.0, 0.0])
        y = np.array([3.0, 4.0])
        assert gospa([x], [y], P10).total == pytest.approx(5.0)

    def test_far_singletons_both_unmatched(self):
        result = gospa([np.zeros(2)], [np.array([100.0, 0.0])], P10)
        assert result.n_missed == 1 and result.n_false == 1
        assert result.total == pytest.approx(10.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gospa([np.zeros(2)], [np.zeros(3)], P10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["truth", "estimate"])
    def test_non_finite_elements_rejected(self, value, side):
        bad = [np.array([0.0, value])]
        sets = {"truth": [np.zeros(2)], "estimate": [np.zeros(2)], side: bad}
        with pytest.raises(InputError, match="finite"):
            gospa(sets["truth"], sets["estimate"], P10)

    def test_projection(self):
        params = GospaParams(cutoff=10.0, order=2.0, projection=(0, 2))
        truth = [np.array([1.0, 99.0, 2.0, -99.0])]
        estimate = [np.array([4.0, 0.0, 6.0, 0.0])]
        assert gospa(truth, estimate, params).total == pytest.approx(5.0)

    def test_param_validation(self):
        with pytest.raises(InputError):
            GospaParams(cutoff=0.0)
        with pytest.raises(InputError):
            GospaParams(order=0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"order": 400.0}, "c\\*\\*p"),  # 10**400 overflows a float
            ({"cutoff": 1e200}, "c\\*\\*p"),
            ({"cutoff": 1e-200}, "c\\*\\*p"),  # underflows to 0
            ({"cutoff": np.inf}, "cutoff"),
            ({"cutoff": np.nan}, "cutoff"),
            ({"projection": (-5,)}, "projection"),
            ({"projection": ()}, "projection"),
            ({"projection": (0, True)}, "projection"),
        ],
    )
    def test_params_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            GospaParams(**kwargs)

    def test_pair_beyond_float_range_is_unmatched(self):
        # The distance overflows to inf, silently: the pair lies beyond the cutoff.
        result = gospa([np.zeros(2)], [np.array([1e200, -1e200])], P10)
        assert result.n_missed == 1 and result.n_false == 1
        assert result.total == pytest.approx(10.0)


class TestGospaAgainstBruteForce:
    def test_random_sets_match_exhaustive_minimum(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            truth, estimate = random_sets(rng)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            params = GospaParams(cutoff=10.0, order=p)
            expected = gospa_oracle(truth, estimate, 10.0, p)
            assert gospa(truth, estimate, params).total == pytest.approx(expected, abs=1e-10)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            truth, estimate = random_sets(rng)
            result = gospa(truth, estimate, P10)
            assert result.total**2 == pytest.approx(
                result.localisation_p + result.missed_p + result.false_p, abs=1e-9
            )
            assert result.missed_p == pytest.approx(50.0 * result.n_missed)
            assert result.false_p == pytest.approx(50.0 * result.n_false)

    def test_symmetry(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            truth, estimate = random_sets(rng)
            fwd = gospa(truth, estimate, P10)
            rev = gospa(estimate, truth, P10)
            assert fwd.total == pytest.approx(rev.total, abs=1e-12)
            assert fwd.n_missed == rev.n_false and fwd.n_false == rev.n_missed
            assert fwd.localisation_p == pytest.approx(rev.localisation_p, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a, b = random_sets(rng, max_size=3)
            c, _ = random_sets(rng, max_size=3)
            d_ac = gospa(a, c, P10).total
            d_ab = gospa(a, b, P10).total
            d_bc = gospa(b, c, P10).total
            assert d_ac <= d_ab + d_bc + 1e-9

    def test_nonnegative_and_matched_pairs_below_cutoff(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            truth, estimate = random_sets(rng)
            result = gospa(truth, estimate, P10)
            assert result.total >= 0.0
            for i, j in result.matching:
                assert np.linalg.norm(truth[i] - estimate[j]) ** 2 < 100.0


def point_sets(max_size=4):
    coordinate = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
    point = st.tuples(coordinate, coordinate).map(np.array)
    return st.lists(point, max_size=max_size)


metric_params = st.builds(
    GospaParams,
    cutoff=st.floats(min_value=0.5, max_value=20.0),
    order=st.floats(min_value=1.0, max_value=4.0),
)


class TestGospaMetricAxioms:
    """GOSPA with alpha = 2 is a metric for every order p >= 1."""

    @settings(max_examples=200, deadline=None)
    @given(point_sets(), metric_params)
    def test_identity(self, points, params):
        assert gospa(points, [p.copy() for p in points], params).total == 0.0

    @settings(max_examples=200, deadline=None)
    @given(point_sets(), point_sets(), metric_params)
    def test_symmetry(self, xs, ys, params):
        assert gospa(xs, ys, params).total == pytest.approx(
            gospa(ys, xs, params).total, rel=1e-12, abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(point_sets(3), point_sets(3), point_sets(3), metric_params)
    def test_triangle_inequality(self, xs, ys, zs, params):
        d_xz = gospa(xs, zs, params).total
        assert d_xz <= (gospa(xs, ys, params).total + gospa(ys, zs, params).total) * (1 + 1e-9)


def test_rms_aggregate():
    assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert rms([]) == 0.0


def test_component_rms_aggregate():
    results = [GospaResult(0.0, 0.0, m, 0.0, 0, 0, ()) for m in (1.0, 8.0)]
    assert component_rms(results, "missed_p", 2.0) == pytest.approx(4.5**0.5)
    assert component_rms(results, "missed_p", 3.0) == pytest.approx(4.5 ** (1.0 / 3.0))
    assert component_rms([], "missed_p", 2.0) == 0.0
