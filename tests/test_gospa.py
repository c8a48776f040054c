import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gospa_oracle, gospa_reference

from mbmtrack.errors import InputError
from mbmtrack.gospa import GospaParams, GospaResult, component_rms, gospa, gospa_run, rms

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


def bits(result: GospaResult) -> tuple:
    """Every field of a result, floats as their exact hex form."""
    return (
        result.total.hex(), result.localisation_p.hex(), result.missed_p.hex(),
        result.false_p.hex(), result.n_missed, result.n_false, result.matching,
    )


@st.composite
def gospa_runs(draw):
    """A run of (truth, estimate) steps of one dimension, with its parameters.

    Coordinates mix a small integer grid (exact distance ties), general
    floats, and values whose differences overflow to an infinite distance.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    coordinate = st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308]),
    )
    vector = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    point_set = st.lists(vector, max_size=5)
    steps = draw(st.lists(st.tuples(point_set, point_set), max_size=8))
    projection = draw(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=0, max_value=dim - 1), min_size=1, max_size=3).map(tuple),
    ))
    params = GospaParams(
        cutoff=draw(st.floats(min_value=0.5, max_value=20.0)),
        order=draw(st.floats(min_value=1.0, max_value=4.0)),
        projection=projection,
    )
    return [t for t, _ in steps], [e for _, e in steps], params


class TestGospaRun:
    """The run-level scorer against the per-step reference, bitwise."""

    @settings(max_examples=200, deadline=None)
    @given(gospa_runs())
    def test_bitwise_equal_to_per_step_reference(self, run):
        truths, estimates, params = run
        results = gospa_run(truths, estimates, params)
        expected = [gospa_reference(t, e, params) for t, e in zip(truths, estimates)]
        assert [bits(r) for r in results] == [bits(r) for r in expected]

    @pytest.mark.parametrize("projection", [None, (0,)])
    def test_empty_steps_and_runs(self, projection):
        params = GospaParams(cutoff=4.0, order=1.0, projection=projection)
        point = [np.array([1.0, 2.0])]
        assert gospa_run([], [], params) == []
        runs = [
            ([[], []], [[], []]),  # every step empty
            ([[], point, [], point], [point, [], [], point]),
        ]
        for truths, estimates in runs:
            results = gospa_run(truths, estimates, params)
            expected = [gospa_reference(t, e, params) for t, e in zip(truths, estimates)]
            assert [bits(r) for r in results] == [bits(r) for r in expected]

    def test_accepts_per_step_arrays(self):
        truths = [np.array([[0.0, 0.0], [5.0, 5.0]]), np.zeros((0, 2))]
        estimates = [[np.array([1.0, 0.0])], [np.array([3.0, 4.0])]]
        results = gospa_run(truths, estimates, P10)
        expected = [gospa_reference(t, e, P10) for t, e in zip(truths, estimates)]
        assert [bits(r) for r in results] == [bits(r) for r in expected]

    FAULTS = {
        # name: (step-2 truth, step-2 estimate, projection)
        "non-finite": ([[0.0, np.inf]], [[0.0, 0.0]], None),
        "inconsistent": ([[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0, 0.0]], None),
        "truth and estimate": ([[0.0, 0.0, 0.0]], [[0.0, 0.0]], None),
        "projection": ([[0.0, 0.0]], [[1.0, 1.0]], (0, 2)),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_step_message_names_the_step(self, fault):
        truth, estimate, projection = self.FAULTS[fault]
        params = GospaParams(projection=projection)
        with pytest.raises(InputError) as alone:
            gospa_reference(truth, estimate, params)
        # Step 1 is empty, so only step 2's own checks can fail; step 3 is fine.
        truths, estimates = [[], truth, [[0.0, 0.0]]], [[], estimate, []]
        with pytest.raises(InputError, match=re.escape(f"step 2: {alone.value}")):
            gospa_run(truths, estimates, params)

    def test_one_dimension_per_run(self):
        with pytest.raises(InputError, match="step 3: vectors have dimension 3, step 1 has 2"):
            gospa_run([[[0.0, 0.0]], [], [[0.0, 0.0, 0.0]]], [[], [], []], P10)

    def test_one_estimate_set_per_truth_set(self):
        with pytest.raises(InputError, match="one estimate set per truth set"):
            gospa_run([[], []], [[]], P10)


def test_rms_aggregate():
    assert rms([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert rms([]) == 0.0


def test_component_rms_aggregate():
    results = [GospaResult(0.0, 0.0, m, 0.0, 0, 0, ()) for m in (1.0, 8.0)]
    assert component_rms(results, "missed_p", 2.0) == pytest.approx(4.5**0.5)
    assert component_rms(results, "missed_p", 3.0) == pytest.approx(4.5 ** (1.0 / 3.0))
    assert component_rms([], "missed_p", 2.0) == 0.0
