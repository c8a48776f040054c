import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gospa_oracle, gospa_reference

from mbmtrack.errors import InputError
from mbmtrack.gospa import GospaParams, GospaResult, gospa, gospa_run, run_summary

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
            ({"cutoff": 1e60}, "c\\*\\*p"),  # 1e120 is past the 1e100 bound
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


def steps(block, counts):
    """Each step's rows of a side's block, ``counts`` giving each step's size."""
    return [block[end - n:end] for n, end in zip(counts, np.cumsum(counts))]


def reference_run(truth, estimate, sizes, params):
    """Each step scored alone by the one-step reference."""
    pairs = zip(steps(truth, sizes[:, 0]), steps(estimate, sizes[:, 1]))
    return [gospa_reference(t, e, params) for t, e in pairs]


@st.composite
def gospa_runs(draw):
    """A run as two point blocks of one dimension and its per-step sizes, with
    its parameters.

    Coordinates mix a small integer grid (exact distance ties), general
    floats, and values whose differences overflow to an infinite distance.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    coordinate = st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308]),
    )
    count = st.integers(min_value=0, max_value=5)
    sizes = np.array(draw(st.lists(st.tuples(count, count), max_size=8)), np.intp).reshape(-1, 2)
    truth, estimate = (
        np.array(draw(st.lists(coordinate, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
        for n in sizes.sum(axis=0).tolist()
    )
    params = GospaParams(
        cutoff=draw(st.floats(min_value=0.5, max_value=20.0)),
        order=draw(st.floats(min_value=1.0, max_value=4.0)),
    )
    return truth, estimate, sizes, params


NO_STEPS = np.zeros((0, 2), np.intp)


class TestGospaRun:
    """The run-level scorer against the per-step reference, bitwise."""

    @settings(max_examples=200, deadline=None)
    @given(gospa_runs())
    def test_bitwise_equal_to_per_step_reference(self, run):
        truth, estimate, sizes, params = run
        results = gospa_run(truth, estimate, sizes, params)
        expected = reference_run(truth, estimate, sizes, params)
        assert [bits(r) for r in results] == [bits(r) for r in expected]

    def test_empty_steps_and_runs(self):
        params = GospaParams(cutoff=4.0, order=1.0)
        assert gospa_run(np.zeros((0, 2)), np.zeros((0, 2)), NO_STEPS, params) == []
        assert gospa_run([], np.zeros(0), NO_STEPS, params) == []
        runs = [
            (np.zeros((0, 2)), np.zeros((0, 2)), [[0, 0], [0, 0]]),  # every step empty
            (np.array([[1.0, 2.0]] * 2), np.array([[1.0, 2.0]] * 2),
             [[0, 1], [1, 0], [0, 0], [1, 1]]),
        ]
        for truth, estimate, sizes in runs:
            results = gospa_run(truth, estimate, sizes, params)
            expected = reference_run(truth, estimate, np.array(sizes), params)
            assert [bits(r) for r in results] == [bits(r) for r in expected]

    @pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))],
                             ids=["list", "1-D", "0x3", "2x0"])
    def test_a_side_with_no_points_may_be_any_empty_array(self, empty):
        truth = np.array([[0.0, 0.0], [5.0, 5.0]])
        results = gospa_run(truth, empty, [[2, 0], [0, 0]], P10)
        assert [bits(r) for r in results] == [bits(gospa_reference(truth, [], P10)),
                                              bits(gospa_reference([], [], P10))]

    def test_one_dimension_per_run(self):
        with pytest.raises(InputError, match="^GOSPA truth and estimate points have "
                                             "different dimensions, 2 and 3$"):
            gospa_run(np.zeros((1, 2)), np.zeros((1, 3)), [[1, 0], [0, 1]], P10)

    def test_nested_elements_rejected(self):
        # Every point of the run is a 2 x 2 array, so its block is 3-D.
        nested = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        with pytest.raises(InputError, match=re.escape(
                "GOSPA truth points must be a (1, dim) block, got shape (1, 2, 2)")):
            gospa_run(nested, nested, [[1, 1]], P10)

    POINT = np.zeros((1, 2))
    REFUSED = {
        # name: (truth, estimate, sizes, message)
        "complex truth": (
            np.array([[1.0 + 2.0j, 0.0]]), POINT, [[1, 1]], "^malformed GOSPA truth points: "),
        "string estimate": (POINT, [["0", "1"]], [[1, 1]], "^malformed GOSPA estimate points: "),
        "1-D truth": (np.zeros(2), POINT, [[2, 1]], r"\(2, dim\) block, got shape \(2,\)$"),
        "truth rows past its sizes": (
            np.zeros((3, 2)), POINT, [[2, 1]], r"truth points must be a \(2, dim\) block, "
                                               r"got shape \(3, 2\)$"),
        "estimate rows where its sizes have none": (
            POINT, POINT, [[1, 0]], r"estimate points must be a \(0, dim\) block"),
        "empty truth with sizes": ([], POINT, [[1, 1]], r"\(1, dim\) block, got shape \(0,\)$"),
        "nan truth in step 2": (
            np.array([[0.0, 0.0], [np.nan, 0.0]]), np.zeros((0, 2)), [[1, 0], [1, 0], [0, 0]],
            "^step 2: set elements must be finite$"),
        "inf estimate in step 3": (
            np.zeros((0, 2)), np.array([[0.0, 0.0], [1.0, 1.0], [0.0, -np.inf]]),
            [[0, 1], [0, 0], [0, 2]], "^step 3: set elements must be finite$"),
        "the truth's fault comes first": (
            np.array([[np.nan, 0.0], [np.nan, 0.0]]), np.array([[0.0, 0.0], [np.inf, 0.0]]),
            [[1, 0], [0, 1], [1, 1]], "^step 1: "),
        "the estimate's fault comes first": (
            np.array([[0.0, 0.0], [np.nan, 0.0]]), np.array([[np.inf, 0.0]]),
            [[1, 1], [1, 0]], "^step 1: "),
        "float sizes": (POINT, POINT, [[1.0, 1.0]], "^GOSPA sizes must be non-negative integers "
                                                   r"of shape \(steps, 2\), got float64"),
        "negative sizes": (POINT, POINT, [[2, -1]], "non-negative integers"),
        "1-D sizes": (POINT, POINT, [1, 1], r"got int\d+ of shape \(2,\)$"),
        "three sizes per step": (POINT, POINT, [[1, 1, 0]], r"got int\d+ of shape \(1, 3\)$"),
        "ragged sizes": (POINT, POINT, [[1, 1], [0]], "^malformed GOSPA sizes: "),
        "bool sizes": (POINT, POINT, [[True, True]], "^malformed GOSPA sizes: bool"),
        "no sizes": (POINT, POINT, [], r"got float64 of shape \(0,\)$"),
    }

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused_blocks_and_sizes(self, case):
        truth, estimate, sizes, message = self.REFUSED[case]
        with pytest.raises(InputError, match=message):
            gospa_run(truth, estimate, sizes, P10)


def test_rms_aggregate():
    results = [GospaResult(total, 0.0, 0.0, 0.0, 0, 0, ()) for total in (3.0, 4.0)]
    assert run_summary(results, 2.0)[0] == pytest.approx(np.sqrt(12.5))
    assert run_summary([], 2.0) == (0.0, 0.0, 0.0, 0.0)


def test_component_rms_aggregate():
    results = [GospaResult(0.0, 0.0, m, 0.0, 0, 0, ()) for m in (1.0, 8.0)]
    assert run_summary(results, 2.0)[2] == pytest.approx(4.5**0.5)
    assert run_summary(results, 3.0)[2] == pytest.approx(4.5 ** (1.0 / 3.0))
    assert run_summary([], 2.0)[2] == 0.0
    # Each term has its own slot: localisation, missed, then false.
    one_step = [GospaResult(0.0, 1.0, 8.0, 27.0, 0, 0, ())]
    assert run_summary(one_step, 3.0)[1:] == pytest.approx((1.0, 2.0, 3.0))
