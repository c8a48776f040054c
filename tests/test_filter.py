import collections
import dataclasses
import math

import golden
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    ExhaustiveMbm, check_state, kbest_dp, label_scrambled_run, predict_reference,
    ranked_alone, update_reference,
)
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
from mbmtrack.assignment import FORBIDDEN
from mbmtrack.errors import InputError, NumericalError
from mbmtrack.gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    PreparedMeasurementUpdate,
    floor_log,
    gate,
    innovation_factors,
    kalman_predict,
    kalman_update,
)
from mbmtrack.mbm import (
    BirthComponent,
    BirthModel,
    FilterParams,
    GlobalHypothesis,
    HypothesisMeta,
    MbmState,
    SingleTargetHypothesis,
    BernoulliComponent,
)
from mbmtrack.sim import (
    builtin_scenario,
    constant_velocity_model,
    generate_run_measurements,
    generate_truth,
    run_filter,
)

NO_PRUNE = FilterParams(max_globals=10**9, gate_threshold=float("inf"))


def birth_at(x, y, existence=0.01, pos_std=3.0, vel_std=1.0):
    return BirthComponent(
        existence,
        GaussianDensity(
            [x, 0.0, y, 0.0], np.diag([pos_std**2, vel_std**2, pos_std**2, vel_std**2])
        ),
    )


def scenario1_birth():
    return BirthModel(
        (
            birth_at(140.0, 170.0),
            birth_at(165.0, 155.0),
            birth_at(150.0, 160.0),
            birth_at(160.0, 150.0),
        )
    )


def single_hypothesis_state(log_weight, existence, density, time=1):
    comp = BernoulliComponent(
        (SingleTargetHypothesis(log_weight, existence, density, HypothesisMeta(time, 1)),)
    )
    return MbmState((comp,), (GlobalHypothesis(0.0, (0,)),), time)


class TestInitAndPredict:
    def test_init_empty(self):
        state = mbm.init_empty()
        assert len(state.components) == 0
        assert len(state.global_hypotheses) == 1
        assert state.global_hypotheses[0].log_weight == 0.0
        assert state.global_hypotheses[0].assignment_vector == ()

    def test_birth_appends_components(self):
        model = constant_velocity_model(clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        assert len(state.components) == 4
        assert len(state.global_hypotheses) == 1
        for comp in state.components:
            assert len(comp.hypotheses) == 1
            assert comp.hypotheses[0].existence == 0.01
            assert comp.hypotheses[0].log_weight == 0.0
        labels = [c.hypotheses[0].meta.label for c in state.components]
        assert labels == [(1, 1), (1, 2), (1, 3), (1, 4)]

    def test_survival_scales_existence(self):
        model = constant_velocity_model(survival_prob=0.99, clutter_intensity=1e-4)
        state = single_hypothesis_state(math.log(0.7), 0.5, GaussianDensity(np.zeros(4), np.eye(4)))
        out = mbm.predict(state, model, BirthModel())
        assert out.components[0].hypotheses[0].existence == pytest.approx(0.495)
        # per-hypothesis weights pass through prediction untouched
        assert out.components[0].hypotheses[0].log_weight == math.log(0.7)
        predicted = kalman_predict(GaussianDensity(np.zeros(4), np.eye(4)), model)
        np.testing.assert_allclose(
            out.components[0].hypotheses[0].density.covariance, predicted.covariance
        )
        assert len(out.global_hypotheses) == len(state.global_hypotheses)

    def test_globals_extended_and_weights_kept(self):
        model = constant_velocity_model(clutter_intensity=1e-4)
        base = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        # Two hypotheses of the first component give the globals distinct vectors.
        first, *rest = base.components
        two = MbmState(
            (BernoulliComponent(first.hypotheses * 2), *rest),
            (GlobalHypothesis(math.log(0.75), (0, 0, 0, 0)),
             GlobalHypothesis(math.log(0.25), (1, 0, 0, 0))),
            base.time,
        )
        out = mbm.predict(two, model, BirthModel((birth_at(0.0, 0.0), birth_at(5.0, 5.0))))
        assert len(out.global_hypotheses) == 2
        for g_in, g_out in zip(two.global_hypotheses, out.global_hypotheses):
            assert g_out.log_weight == g_in.log_weight
            assert g_out.assignment_vector == g_in.assignment_vector + (0, 0)


STATE_ARRAYS = (
    "means", "covariances", "existences", "log_weights", "labels", "histories", "offsets",
    "vectors", "global_log_weights",
)


def random_state(rng) -> MbmState:
    """A state of 0-4 components with 1-3 hypotheses each and 1-4 globals."""
    comps = []
    for _ in range(rng.integers(0, 5)):
        hyps = []
        for _ in range(rng.integers(1, 4)):
            root = rng.normal(size=(4, 4))
            history = tuple(rng.integers(0, 4, size=rng.integers(0, 4)).tolist())
            hyps.append(SingleTargetHypothesis(
                float(rng.normal()), float(rng.uniform()),
                GaussianDensity(rng.normal(scale=50.0, size=4), root @ root.T + np.eye(4)),
                HypothesisMeta(int(rng.integers(1, 9)), int(rng.integers(1, 5)), history),
            ))
        comps.append(BernoulliComponent(tuple(hyps)))
    globals_ = [
        GlobalHypothesis(
            float(rng.normal()),
            tuple(int(rng.integers(0, len(c.hypotheses))) for c in comps),
        )
        for _ in range(rng.integers(1, 5))
    ]
    return MbmState(tuple(comps), tuple(globals_), int(rng.integers(0, 9)))


class TestPredictAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_bitwise_equal_to_per_call_birth_block(self, seed, n_births):
        rng = np.random.default_rng(seed)
        model = constant_velocity_model(survival_prob=float(rng.uniform(0.5, 1.0)))
        birth = BirthModel(tuple(
            birth_at(*rng.uniform(0.0, 300.0, size=2), existence=float(rng.uniform()))
            for _ in range(n_births)
        ))
        state = random_state(rng)
        # Twice over: the second call reads the block the first one built.
        for _ in range(2):
            out = mbm.predict(state, model, birth)
            expected = predict_reference(state, model, birth)
            assert out.time == expected.time
            for name in STATE_ARRAYS:
                got, want = getattr(out, name), getattr(expected, name)
                assert (got.dtype, got.shape, got.tobytes()) == (
                    want.dtype, want.shape, want.tobytes()
                ), name
            state = out


@st.composite
def _update_cases(draw):
    """A state, a scan and settings for ``update``.

    0-5 components of 1-4 hypotheses with existences that include 0 and 1;
    1-12 globals drawn from a pool of at most 4 vectors, so vectors repeat;
    no scan, or 0-15 measurements of which about half lie near a hypothesis;
    p_D 0, 0.5 or 1, an infinite or finite gate, and 1-10 globals per step.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), max_size=5))
    comps = []
    for i, size in enumerate(sizes):
        hyps = []
        for _ in range(size):
            root = rng.normal(size=(4, 4))
            history = tuple(rng.integers(0, 4, size=rng.integers(0, 4)).tolist())
            hyps.append(SingleTargetHypothesis(
                float(rng.normal()), draw(st.sampled_from([0.0, 1e-3, 0.3, 0.9, 1.0])),
                GaussianDensity(rng.uniform(0.0, 40.0, size=4), root @ root.T + np.eye(4)),
                HypothesisMeta(int(rng.integers(1, 9)), i + 1, history),
            ))
        comps.append(BernoulliComponent(tuple(hyps)))
    pool = [
        tuple(int(rng.integers(0, n)) for n in sizes) for _ in range(draw(st.integers(1, 4)))
    ]
    vectors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    weights = np.log(rng.uniform(1e-6, 1.0, size=len(vectors)))
    weights -= logsumexp(weights)
    state = MbmState(
        tuple(comps),
        tuple(GlobalHypothesis(float(w), v) for w, v in zip(weights, vectors)),
        int(rng.integers(0, 9)),
    )
    m = draw(st.integers(-1, 15))  # -1: no scan at all
    scan = None
    if m >= 0:
        scan = rng.uniform(0.0, 40.0, size=(m, 2))
        if len(state.means):
            near = np.flatnonzero(rng.random(m) < 0.5)
            picked = state.means[rng.integers(0, len(state.means), size=len(near))]
            scan[near] = picked[:, [0, 2]] + rng.normal(size=(len(near), 2))
    params = FilterParams(
        max_globals=draw(st.integers(1, 10)),
        gate_threshold=draw(st.sampled_from([20.0, math.inf])),
    )
    return state, scan, draw(st.sampled_from([0.0, 0.5, 1.0])), params


def _two_target_case(scan):
    """Two one-hypothesis components, near (10, 10) and (30, 30), two globals."""
    comps = tuple(
        BernoulliComponent((SingleTargetHypothesis(
            -0.5, 0.9, GaussianDensity([x, 0.5, x, -0.5], np.eye(4)),
            HypothesisMeta(1, i + 1, (0,)),
        ),))
        for i, x in enumerate((10.0, 30.0))
    )
    globals_ = (GlobalHypothesis(math.log(0.75), (0, 0)), GlobalHypothesis(math.log(0.25), (0, 0)))
    return MbmState(comps, globals_, 3), np.array(scan, dtype=float), 0.5, FilterParams(3)


def _zero_existence_case(detection_prob):
    """A component whose r = 0 hypothesis sits beside an r = 1 one at (10, 10),
    where the scan has a point, and a component of one hypothesis at (30, 30);
    each global takes one of the first component's hypotheses, and ranks
    enough children to reach a detection of the r = 0 one if it were admitted."""
    def hypothesis(r, x, label, history):
        density = GaussianDensity([x, 0.5, x, -0.5], np.eye(4))
        return SingleTargetHypothesis(-0.5, r, density, HypothesisMeta(1, label, history))

    comps = (
        BernoulliComponent((hypothesis(1.0, 10.0, 1, (1,)), hypothesis(0.0, 10.0, 1, (0,)))),
        BernoulliComponent((hypothesis(0.9, 30.0, 2, (0,)),)),
    )
    globals_ = (GlobalHypothesis(math.log(0.75), (0, 0)), GlobalHypothesis(math.log(0.25), (1, 0)))
    scan = np.array([[10.2, 9.7], [30.5, 29.6], [40.0, 0.0]])
    return MbmState(comps, globals_, 3), scan, detection_prob, FilterParams(10)


class TestUpdateAgainstReference:
    # ``_update_cases`` draws a scan that no parent gates in about 1% of its
    # examples, and a component without a gated hypothesis beside one with
    # such a hypothesis in 2-9%, so both are also given outright: the first
    # ranks (2, 0, 0) matrices, the second drops the far component and the
    # far measurement from the ranked block.  ``update`` gates every parent,
    # while the reference gates only those of positive existence, so an
    # r = 0 hypothesis beside one that gates a point is given outright too:
    # at p_D = 1, where an r = 1 parent's misdetection child has r = 0, and
    # at p_D = 0.5.  ``update`` also gates an empty scan and the empty state,
    # whose (0, 0) means it reshapes, where the reference skips its gate;
    # both are given outright too.
    @example(_two_target_case([[0.0, 40.0], [40.0, 0.0]]))
    @example(_two_target_case([[0.0, 40.0], [10.2, 9.7], [40.0, 0.0]]))
    @example(_zero_existence_case(1.0))
    @example(_zero_existence_case(0.5))
    @example(_two_target_case(np.zeros((0, 2))))
    @example((mbm.init_empty(), [[0.0, 40.0], [40.0, 0.0]], 0.5, FilterParams(3)))
    @settings(max_examples=300, deadline=None)
    @given(_update_cases())
    def test_bitwise_equal_to_k_best_reference(self, case):
        state, scan, detection_prob, params = case
        model = constant_velocity_model(detection_prob=detection_prob, clutter_intensity=1e-3)
        out = mbm.update(state, scan, model, params)
        expected = update_reference(state, scan, model, params)
        assert out.time == expected.time
        for name in STATE_ARRAYS:
            got, want = getattr(out, name), getattr(expected, name)
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()
            ), name


class TestMisdetectionUpdate:
    def test_certain_target_keeps_existence(self):
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        state = single_hypothesis_state(0.0, 1.0, GaussianDensity(np.zeros(4), np.eye(4)))
        out = mbm.update(state, [], model, NO_PRUNE)
        h = out.components[0].hypotheses[0]
        assert math.exp(h.log_weight) == pytest.approx(0.1)
        assert h.existence == pytest.approx(1.0)
        assert h.meta.association_history == (0,)

    def test_half_existence_update(self):
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        state = single_hypothesis_state(math.log(0.5), 0.5, GaussianDensity(np.zeros(4), np.eye(4)))
        out = mbm.update(state, [], model, NO_PRUNE)
        h = out.components[0].hypotheses[0]
        assert math.exp(h.log_weight) == pytest.approx(0.275)
        assert h.existence == pytest.approx(0.05 / 0.55)

    def test_empty_measurements_single_child_per_prior(self):
        model = constant_velocity_model(clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        out = mbm.update(state, [], model, NO_PRUNE)
        assert len(out.global_hypotheses) == 1
        assert len(out.components) == len(state.components)
        for comp in out.components:
            assert len(comp.hypotheses) == 1
        check_state(out)


class TestDetectionUpdate:
    def test_single_measurement_two_globals_hand_weights(self):
        # One measurement close to the first birth site gates only that site,
        # so the posterior holds exactly a clutter global and a detection
        # global.
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=10.0 / 90000.0)
        params = FilterParams(max_globals=200, gate_threshold=20.0)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        z = np.array([139.0, 171.0])
        out = mbm.update(state, [z], model, params)
        assert len(out.components) == 4
        assert len(out.global_hypotheses) == 2

        r, pd = 0.01, 0.9
        mis = 1.0 - r * pd
        s_mat = np.diag([10.0, 10.0])
        lik = multivariate_normal.pdf(z, mean=[140.0, 170.0], cov=s_mat)
        w_clutter = mis**4
        w_detect = mis**3 * r * pd * lik / model.clutter_intensity
        expected = np.array([w_clutter, w_detect]) / (w_clutter + w_detect)
        got = np.sort([math.exp(g.log_weight) for g in out.global_hypotheses])
        np.testing.assert_allclose(got, np.sort(expected), rtol=1e-9)
        check_state(out)

    def test_component_count_unchanged_by_update(self):
        rng = np.random.default_rng(4)
        model = constant_velocity_model(detection_prob=0.8, clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        for _ in range(3):
            zs = rng.uniform(130, 180, size=(3, 2))
            out = mbm.update(state, zs, model, NO_PRUNE)
            assert len(out.components) == len(state.components)
            check_state(out)
            state = mbm.predict(out, model, BirthModel())

    def test_gate_threshold_excludes_hypotheses(self):
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        birth = BirthModel((birth_at(0.0, 0.0, existence=0.5),))
        state = mbm.predict(mbm.init_empty(), model, birth)
        # statistic for this z is (14^2 + 14^2) / 10 = 39.2 > 20
        far = np.array([14.0, 14.0])
        out = mbm.update(state, [far], model, FilterParams(gate_threshold=20.0))
        assert len(out.global_hypotheses) == 1
        assert len(out.components[0].hypotheses) == 1
        # raising the gate admits the detection child
        wide = mbm.update(state, [far], model, FilterParams(gate_threshold=40.0))
        assert len(wide.global_hypotheses) == 2
        assert len(wide.components[0].hypotheses) == 2

    def test_pair_at_exactly_the_gate_threshold_is_kept(self):
        # Only a statistic above the threshold is FORBIDDEN.
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, BirthModel((birth_at(0.0, 0.0, 0.5),)))
        zs = np.array([[3.0, -2.0]])
        maha = float(gate(innovation_factors(state.means, state.covariances, model), zs)[0][0, 0])
        at_gate = mbm.update(state, zs, model, FilterParams(gate_threshold=maha))
        assert len(at_gate.global_hypotheses) == 2
        below = FilterParams(gate_threshold=float(np.nextafter(maha, 0.0)))
        assert len(mbm.update(state, zs, model, below).global_hypotheses) == 1

    def test_each_global_spawns_ceil_of_its_share(self):
        # Two globals of weight 1/2 at max_globals = 3 each spawn ceil(1.5) = 2
        # of their two feasible children (miss or detect the one measurement).
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        hyps = tuple(
            SingleTargetHypothesis(
                0.0, 0.5, GaussianDensity(np.full(4, x), np.eye(4)), HypothesisMeta(1, 1, (j,))
            )
            for j, x in enumerate((0.0, 1.0))
        )
        half = math.log(0.5)
        globals_ = (GlobalHypothesis(half, (0,)), GlobalHypothesis(half, (1,)))
        state = MbmState((BernoulliComponent(hyps),), globals_, 1)
        params = FilterParams(max_globals=3, gate_threshold=math.inf)
        out = mbm.update(state, [[0.5, 0.5]], model, params)
        children = out.components[0].hypotheses
        parents = [children[g.assignment_vector[0]].meta.association_history[0]
                   for g in out.global_hypotheses]
        assert sorted(parents) == [0, 0, 1, 1]


def _stage_state():
    """Three components over five parents with r in {0, 0.4, 1}, S = 4 I for
    parents 0-3 (position variance 3, R = I) and a correlated S for parent 4."""
    correlated = np.array([[4.0, 0.5, 1.5, 0.2], [0.5, 1.0, 0.3, 0.1],
                           [1.5, 0.3, 6.0, 0.4], [0.2, 0.1, 0.4, 2.0]])
    plain = np.diag([3.0, 1.0, 3.0, 1.0])
    parents = [  # (component, log-weight, r, position, covariance)
        (0, math.log(0.3), 0.0, (0.0, 0.0), plain),
        (0, math.log(0.7), 0.4, (1.0, 2.0), plain),
        (1, 0.0, 1.0, (5.0, -3.0), plain),
        (2, math.log(0.2), 0.4, (20.0, 20.0), plain),
        (2, math.log(0.8), 1.0, (-4.0, 1.0), correlated),
    ]
    comps = [[] for _ in range(3)]
    for i, (c, w, r, (x, y), cov) in enumerate(parents):
        density = GaussianDensity([x, 0.5, y, -0.5], cov)
        comps[c].append(SingleTargetHypothesis(w, r, density, HypothesisMeta(1, c + 1, (i,))))
    globals_ = (GlobalHypothesis(math.log(0.4), (1, 0, 0)),
                GlobalHypothesis(math.log(0.6), (0, 0, 1)))
    return MbmState(tuple(BernoulliComponent(tuple(c)) for c in comps), globals_, 2)


# Parent 1 sits at (1, 2) with S = 4 I, so (5, 2) has a statistic of exactly 4.
STAGE_SCAN = np.array([[5.0, 2.0], [6.0, -2.0], [-3.0, 0.5]])


class TestUpdateStages:
    """Each stage of ``update`` on its own, against the paper's formulas or ``kbest_dp``."""

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("p_d", [0.0, 0.7, 1.0])
    def test_association_tables_match_the_paper(self, p_d, m):
        kappa, threshold = 1e-3, 4.0
        model = constant_velocity_model(detection_prob=p_d, clutter_intensity=kappa)
        state, zs = _stage_state(), STAGE_SCAN[:m]
        params = FilterParams(gate_threshold=threshold)
        weights, costs, increments, existences, _ = mbm._association_tables(
            state, (state.means, state.covariances), zs, model, params
        )
        assert weights.shape == (5, m + 1) and costs.shape == (5, m)
        H, R = model.observation, model.measurement_noise
        hyps = [h for comp in state.components for h in comp.hypotheses]
        for i, h in enumerate(hyps):
            w, r = math.exp(h.log_weight), h.existence
            miss = w * (1.0 - r * p_d)
            log_miss = math.log(miss) if miss > 0.0 else h.log_weight + floor_log(0.0)
            assert weights[i, 0] == pytest.approx(log_miss, rel=1e-12, abs=1e-12)
            assert increments[i] == pytest.approx(log_miss - h.log_weight, rel=1e-12, abs=1e-12)
            denominator = 1.0 - r * p_d
            existence = r * (1.0 - p_d) / denominator if denominator > 0.0 else 1.0
            assert existences[i] == pytest.approx(existence, rel=1e-12, abs=1e-15)
            x, P = h.density.mean, h.density.covariance
            S = H @ P @ H.T + R
            for j, z in enumerate(zs):
                detection = w * r * p_d * multivariate_normal.pdf(z, H @ x, S) / kappa
                log_detection = math.log(detection) if detection > 0.0 else -math.inf
                if detection > 0.0:
                    assert weights[i, j + 1] == pytest.approx(log_detection, rel=1e-9)
                else:
                    assert weights[i, j + 1] == -math.inf
                statistic = float((z - H @ x) @ np.linalg.solve(S, z - H @ x))
                if i == 1 and j == 0:
                    assert statistic == threshold  # kept: only a larger one is gated out
                else:
                    assert abs(statistic - threshold) > 1e-6
                if statistic > threshold or detection == 0.0:
                    assert costs[i, j] == FORBIDDEN
                else:
                    assert costs[i, j] == pytest.approx(log_miss - log_detection, rel=1e-9)
        # Every (r, p_D) kind of pair is covered, gated in and out.
        if m and p_d == 0.7:
            assert np.isfinite(costs[1, 0]) and np.isfinite(costs).sum() >= 3
            assert (costs == FORBIDDEN).sum() >= 6

    @pytest.mark.parametrize("seed", range(20))
    def test_select_keeps_each_globals_k_best(self, seed):
        """Random tables: component 1 is gated by no measurement and
        measurement 0 by no parent.  Decoded, each global's keys are its
        parents with the assignments whose row-order totals are bitwise
        ``kbest_dp``'s k_u smallest, and the weights are the paper's."""
        rng = np.random.default_rng(seed)
        sizes, m = [2, 1, 3, 2], 4
        offsets = np.cumsum([0] + sizes)
        costs = rng.uniform(-6.0, 3.0, size=(offsets[-1], m))
        costs[rng.random(costs.shape) < 0.35] = FORBIDDEN
        costs[offsets[1]:offsets[2]] = FORBIDDEN
        costs[:, 0] = FORBIDDEN
        increments = rng.uniform(-2.0, 0.0, size=offsets[-1])
        vectors = np.unique(
            np.column_stack([rng.integers(0, n, size=8) for n in sizes]), axis=0)
        rng.shuffle(vectors)
        global_weights = np.log(rng.dirichlet(np.ones(len(vectors))))
        state = MbmState._stacked(
            1, None, None, None, None, None, None, offsets, vectors, global_weights)
        max_globals = int(rng.choice([1, 5, 20]))
        keys, weights = mbm._select(
            state, (None, costs, increments, None, None), FilterParams(max_globals=max_globals))
        parents, associations = np.divmod(keys, m + 1)
        rows = (vectors + offsets[:-1]).tolist()
        totals, expected = collections.defaultdict(list), []
        for parent, association in zip(parents.tolist(), associations.tolist()):
            g = rows.index(parent)
            assert association[1] == 0 and 1 not in association
            total = 0.0
            for row, a in zip(parent, association):
                if a:
                    total += float(costs[row, a - 1])
            totals[g].append(total)
            base = global_weights[g]
            for row in parent:
                base += increments[row]
            expected.append(base - total)
        assert sorted(totals) == list(range(len(vectors)))
        for g, w in enumerate(global_weights.tolist()):
            k_u = max(1, math.ceil(max_globals * math.exp(w)))
            ranked = sorted(totals[g])
            assert [t.hex() for t in ranked] == [t.hex() for t in kbest_dp(costs[rows[g]], k_u)]
        np.testing.assert_allclose(weights, np.array(expected) - logsumexp(expected),
                                   rtol=1e-12, atol=1e-12)

    def test_build_children_gathers_and_updates_the_selected(self):
        """Chosen keys, one child selected twice and some not at all: each
        component holds its selected children in key order, misdetections
        keep their parent's density, detections take the Kalman posterior,
        and the vectors point at the children the keys name."""
        model = constant_velocity_model(detection_prob=0.7, clutter_intensity=1e-3)
        state, zs, m = _stage_state(), STAGE_SCAN, len(STAGE_SCAN)
        tables = mbm._association_tables(state, (state.means, state.covariances), zs, model,
                                         FilterParams(gate_threshold=math.inf))
        chosen = [[(1, 1), (2, 2), (4, 0)], [(0, 0), (2, 0), (3, 3)], [(1, 0), (2, 2), (4, 0)]]
        keys = np.array([[p * (m + 1) + a for p, a in row] for row in chosen])
        weights = np.log([0.5, 0.3, 0.2])
        out = mbm._build_children(state, keys, weights, tables, zs, model)
        assert out.global_log_weights is weights and out.time == state.time
        H, R = model.observation, model.measurement_noise
        hyps = [h for comp in state.components for h in comp.hypotheses]
        children = [sorted({row[c] for row in chosen}) for c in range(3)]
        assert [len(comp.hypotheses) for comp in out.components] == [3, 2, 2]
        for c, comp in enumerate(out.components):
            for (p, a), child in zip(children[c], comp.hypotheses):
                parent = hyps[p]
                x, P = parent.density.mean, parent.density.covariance
                assert child.meta == extended(parent.meta, a)
                assert child.log_weight == tables[0][p, a]
                if a == 0:
                    r, p_d = parent.existence, model.detection_prob
                    assert child.existence == pytest.approx(r * (1 - p_d) / (1 - r * p_d))
                    np.testing.assert_array_equal(child.density.mean, x)
                    np.testing.assert_array_equal(child.density.covariance, P)
                    continue
                assert child.existence == 1.0
                S = H @ P @ H.T + R
                K = P @ H.T @ np.linalg.inv(S)
                np.testing.assert_allclose(child.density.mean, x + K @ (zs[a - 1] - H @ x),
                                           rtol=1e-9, atol=1e-9)
                np.testing.assert_allclose(child.density.covariance, P - K @ S @ K.T,
                                           rtol=1e-9, atol=1e-9)
        assert out.vectors.tolist() == [
            [children[c].index(pair) for c, pair in enumerate(row)] for row in chosen]


class TestExhaustiveEquivalence:
    def test_update_matches_brute_force_over_three_steps(self):
        model = constant_velocity_model(detection_prob=0.8, clutter_intensity=5.0 / 1e4)
        birth1 = BirthModel(
            (birth_at(10.0, 10.0, existence=0.3, pos_std=2.0), birth_at(30.0, 30.0, existence=0.2, pos_std=2.0))
        )
        birth2 = BirthModel((birth_at(20.0, 20.0, existence=0.25, pos_std=3.0),))
        steps = [
            (birth1, [np.array([11.0, 9.5]), np.array([29.0, 31.0])]),
            (birth2, [np.array([12.0, 10.5]), np.array([50.0, 50.0]), np.array([21.0, 19.0])]),
            (BirthModel(), [np.array([13.0, 11.0])]),
        ]
        state = mbm.init_empty()
        oracle = ExhaustiveMbm(model)
        for birth, zs in steps:
            state = mbm.predict(state, model, birth)
            state = mbm.update(state, zs, model, NO_PRUNE)
            oracle.predict(birth.components)
            oracle.update(zs)
            check_state(state)

        table = oracle.global_table()
        seen_mass = 0.0
        for g in state.global_hypotheses:
            key = tuple(
                state.components[i].hypotheses[g.assignment_vector[i]].meta.association_history
                for i in range(len(state.components))
            )
            assert key in table
            weight = math.exp(g.log_weight)
            assert weight == pytest.approx(table[key], abs=1e-9)
            seen_mass += table[key]
            for i in range(len(state.components)):
                h = state.components[i].hypotheses[g.assignment_vector[i]]
                ref = oracle.component_params(i, h.meta.association_history)
                assert h.existence == pytest.approx(ref["r"], abs=1e-9)
                np.testing.assert_allclose(h.density.mean, ref["mean"], atol=1e-9)
                np.testing.assert_allclose(h.density.covariance, ref["cov"], atol=1e-9)
        # hypotheses not produced carry negligible exhaustive mass
        assert 1.0 - seen_mass < 1e-9

    def test_ranked_selection_is_restriction_of_exhaustive(self):
        # With a small hypothesis budget, every produced global must appear
        # in the exhaustive set with the same relative weight.
        model = constant_velocity_model(detection_prob=0.8, clutter_intensity=5.0 / 1e4)
        birth = BirthModel(
            (birth_at(10.0, 10.0, existence=0.3, pos_std=2.0), birth_at(30.0, 30.0, existence=0.2, pos_std=2.0))
        )
        zs = [np.array([11.0, 9.5]), np.array([29.0, 31.0]), np.array([10.5, 10.5])]
        state = mbm.predict(mbm.init_empty(), model, birth)
        pruned = mbm.update(state, zs, model, FilterParams(max_globals=3, gate_threshold=float("inf")))
        oracle = ExhaustiveMbm(model)
        oracle.predict(birth.components)
        oracle.update(zs)
        table = oracle.global_table()

        def key_of(st, g):
            return tuple(
                st.components[i].hypotheses[g.assignment_vector[i]].meta.association_history
                for i in range(len(st.components))
            )

        best = max(pruned.global_hypotheses, key=lambda g: g.log_weight)
        best_ref = table[key_of(pruned, best)]
        for g in pruned.global_hypotheses:
            ref = table[key_of(pruned, g)]
            assert g.log_weight - best.log_weight == pytest.approx(
                math.log(ref) - math.log(best_ref), abs=1e-9
            )


class TestPrune:
    def build_state(self, weights, vectors, hyp_counts=None):
        n = len(vectors[0])
        hyp_counts = hyp_counts or [max(v[i] for v in vectors) + 1 for i in range(n)]
        comps = []
        for i in range(n):
            hyps = tuple(
                SingleTargetHypothesis(
                    0.0,
                    0.9,
                    GaussianDensity(np.zeros(2) + j, np.eye(2)),
                    HypothesisMeta(1, i + 1, (j,)),
                )
                for j in range(hyp_counts[i])
            )
            comps.append(BernoulliComponent(hyps))
        total = logsumexp([math.log(w) for w in weights])
        globals_ = tuple(
            GlobalHypothesis(math.log(w) - total, tuple(v)) for w, v in zip(weights, vectors)
        )
        return MbmState(tuple(comps), globals_, 1)

    def test_within_limits_is_fixpoint(self):
        state = self.build_state([0.6, 0.4], [(0, 1), (1, 0)])
        out = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=1e-5))
        assert len(out.global_hypotheses) == 2
        got = sorted(math.exp(g.log_weight) for g in out.global_hypotheses)
        assert got == pytest.approx([0.4, 0.6])

    def test_duplicate_globals_merged(self):
        state = self.build_state([0.3, 0.2, 0.5], [(0, 0), (0, 0), (1, 1)])
        out = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=1e-5))
        assert len(out.global_hypotheses) == 2
        got = sorted(math.exp(g.log_weight) for g in out.global_hypotheses)
        assert got == pytest.approx([0.5, 0.5])

    def test_low_weight_globals_dropped(self):
        state = self.build_state([1.0 - 1e-6, 1e-6], [(0, 0), (1, 1)])
        out = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=1e-5))
        assert len(out.global_hypotheses) == 1
        assert out.global_hypotheses[0].log_weight == pytest.approx(0.0, abs=1e-12)

    def test_global_at_exactly_the_weight_threshold_is_kept(self):
        state = self.build_state([0.7, 0.3], [(0, 0), (1, 1)])
        weights = state.global_log_weights
        threshold = math.exp(weights[1] - logsumexp(weights))  # as prune normalizes
        at = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=threshold))
        assert len(at.global_hypotheses) == 2
        above = FilterParams(max_globals=10, prune_global_weight=np.nextafter(threshold, 1.0))
        assert len(mbm.prune(state, above).global_hypotheses) == 1

    def test_component_at_exactly_the_existence_threshold_is_kept(self):
        state = single_hypothesis_state(0.0, 0.3, GaussianDensity(np.zeros(4), np.eye(4)))
        threshold = float(state.existences[0])
        assert len(mbm.prune(state, FilterParams(prune_existence=threshold)).components) == 1
        above = FilterParams(prune_existence=float(np.nextafter(threshold, 1.0)))
        assert len(mbm.prune(state, above).components) == 0

    def test_cap_keeps_highest_weights(self):
        weights = [0.4, 0.3, 0.2, 0.1]
        vectors = [(0, 0), (1, 1), (0, 1), (1, 0)]
        out = mbm.prune(
            self.build_state(weights, vectors),
            FilterParams(max_globals=2, prune_global_weight=1e-9),
        )
        assert len(out.global_hypotheses) == 2
        got = sorted(math.exp(g.log_weight) for g in out.global_hypotheses)
        np.testing.assert_allclose(got, [0.3 / 0.7, 0.4 / 0.7])

    def test_unreferenced_hypotheses_removed(self):
        state = self.build_state([0.9, 0.1], [(2, 0), (2, 1)], hyp_counts=[3, 2])
        out = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=1e-5))
        assert len(out.components[0].hypotheses) == 1
        assert len(out.components[1].hypotheses) == 2
        for g in out.global_hypotheses:
            assert g.assignment_vector[0] == 0

    def test_low_existence_component_removed(self):
        comp_low = BernoulliComponent(
            (
                SingleTargetHypothesis(
                    0.0, 1e-4, GaussianDensity(np.zeros(2), np.eye(2)), HypothesisMeta(1, 1)
                ),
            )
        )
        comp_high = BernoulliComponent(
            (
                SingleTargetHypothesis(
                    0.0, 0.9, GaussianDensity(np.zeros(2), np.eye(2)), HypothesisMeta(1, 2)
                ),
            )
        )
        state = MbmState(
            (comp_low, comp_high), (GlobalHypothesis(0.0, (0, 0)),), 1
        )
        out = mbm.prune(state, FilterParams(prune_existence=1e-3))
        assert len(out.components) == 1
        assert out.components[0].hypotheses[0].meta.label == (1, 2)
        assert out.global_hypotheses[0].assignment_vector == (0,)

    def test_vanished_global_weights_raise(self):
        # Every global at weight zero leaves nothing to normalize by.
        state = self.build_state([0.5, 0.5], [(0, 0), (1, 1)])
        vanished = MbmState(state.components, tuple(
            GlobalHypothesis(-math.inf, g.assignment_vector) for g in state.global_hypotheses
        ), 1)
        with pytest.raises(NumericalError, match="weight vanished or diverged"):
            mbm.prune(vanished, FilterParams())

    def test_all_below_threshold_keeps_best(self):
        state = self.build_state([0.5, 0.5], [(0, 0), (1, 1)])
        out = mbm.prune(state, FilterParams(prune_global_weight=0.9))
        assert len(out.global_hypotheses) == 1
        assert out.global_hypotheses[0].log_weight == pytest.approx(0.0)

    def test_merge_after_component_removal(self):
        # two globals that differ only in the hypothesis of a component that
        # gets removed must merge
        comp_doomed = BernoulliComponent(
            tuple(
                SingleTargetHypothesis(
                    0.0, 5e-4, GaussianDensity(np.zeros(2) + j, np.eye(2)), HypothesisMeta(1, 1, (j,))
                )
                for j in range(2)
            )
        )
        comp_kept = BernoulliComponent(
            (
                SingleTargetHypothesis(
                    0.0, 0.9, GaussianDensity(np.zeros(2), np.eye(2)), HypothesisMeta(1, 2)
                ),
            )
        )
        state = MbmState(
            (comp_doomed, comp_kept),
            (
                GlobalHypothesis(math.log(0.6), (0, 0)),
                GlobalHypothesis(math.log(0.4), (1, 0)),
            ),
            1,
        )
        out = mbm.prune(state, FilterParams(prune_existence=1e-3))
        assert len(out.components) == 1
        assert len(out.global_hypotheses) == 1
        assert out.global_hypotheses[0].log_weight == pytest.approx(0.0)

    def test_pattern_weight_ratios_preserved(self):
        weights = [0.35, 0.3, 0.2, 0.15]
        vectors = [(0, 0), (1, 1), (0, 1), (0, 0)]
        state = self.build_state(weights, vectors)
        out = mbm.prune(state, FilterParams(max_globals=10, prune_global_weight=1e-5))
        pre = {}
        for w, v in zip(weights, vectors):
            pre[v] = pre.get(v, 0.0) + w
        post = {g.assignment_vector: math.exp(g.log_weight) for g in out.global_hypotheses}
        ratio = None
        for vec, w_post in post.items():
            r = w_post / pre[vec]
            ratio = r if ratio is None else ratio
            assert r == pytest.approx(ratio, rel=1e-9)
            assert w_post >= pre[vec] - 1e-12


def reference_prune(state, params):
    """``mbm.prune`` one global hypothesis and one component at a time.

    Duplicates fold their log-weights with ``np.logaddexp`` in order of
    appearance, and the cap ranks by (-weight, index).
    """

    def merge(globals_):
        merged = {}
        for g in globals_:
            key = g.assignment_vector
            merged[key] = float(np.logaddexp(merged[key], g.log_weight)) if key in merged else g.log_weight
        return [GlobalHypothesis(w, key) for key, w in merged.items()]

    def normalized(globals_):
        total = logsumexp([g.log_weight for g in globals_])
        return tuple(GlobalHypothesis(g.log_weight - total, g.assignment_vector) for g in globals_)

    merged = normalized(merge(state.global_hypotheses))
    kept = [g for g in merged if math.exp(g.log_weight) >= params.prune_global_weight]
    if not kept:
        kept = [max(merged, key=lambda g: g.log_weight)]
    if len(kept) > params.max_globals:
        ranked = sorted(range(len(kept)), key=lambda i: (-kept[i].log_weight, i))
        kept = [kept[i] for i in sorted(ranked[: params.max_globals])]
    components, columns = [], []
    for i, comp in enumerate(state.components):
        used = sorted({g.assignment_vector[i] for g in kept})
        if any(comp.hypotheses[j].existence >= params.prune_existence for j in used):
            components.append(BernoulliComponent(tuple(comp.hypotheses[j] for j in used)))
            columns.append((i, used))
    rebuilt = [
        GlobalHypothesis(g.log_weight, tuple(used.index(g.assignment_vector[i]) for i, used in columns))
        for g in kept
    ]
    return MbmState(tuple(components), normalized(merge(rebuilt)), state.time)


class TestPruneAgainstReference:
    def test_random_states_bitwise(self):
        # Few distinct vectors and weights, so duplicates and exact ties of
        # the cap's ranking are common.
        rng = np.random.default_rng(71)
        for trial in range(300):
            sizes = rng.integers(1, 4, size=rng.integers(0, 5))
            comps = tuple(
                BernoulliComponent(tuple(
                    SingleTargetHypothesis(
                        float(rng.normal()), float(rng.choice([1e-4, 0.3, 0.9])),
                        GaussianDensity(rng.normal(size=2), np.eye(2)), HypothesisMeta(1, i, (j,)),
                    )
                    for j in range(size)
                ))
                for i, size in enumerate(sizes)
            )
            levels = np.log(rng.uniform(1e-7, 1.0, size=3))
            globals_ = tuple(
                GlobalHypothesis(float(rng.choice(levels)), tuple(int(rng.integers(0, n)) for n in sizes))
                for _ in range(rng.integers(1, 15))
            )
            params = FilterParams(
                max_globals=int(rng.integers(1, 6)),
                prune_global_weight=float(rng.choice([0.0, 1e-3, 0.2, 0.9])),
            )
            state = MbmState(comps, globals_, trial)
            assert_states_identical(mbm.prune(state, params), reference_prune(state, params))


class TestEstimate:
    def make_state(self, existences, weights=None):
        comps = tuple(
            BernoulliComponent(
                (
                    SingleTargetHypothesis(
                        0.0,
                        r,
                        GaussianDensity([float(i), 0.0, 2.0 * i, 0.0], np.eye(4)),
                        HypothesisMeta(1, i + 1),
                    ),
                )
            )
            for i, r in enumerate(existences)
        )
        weights = weights or [1.0]
        total = logsumexp([math.log(w) for w in weights])
        globals_ = tuple(
            GlobalHypothesis(math.log(w) - total, tuple(0 for _ in comps)) for w in weights
        )
        return MbmState(comps, globals_, 1)

    def test_all_below_threshold_empty(self):
        state = self.make_state([0.1, 0.39, 0.2])
        assert mbm.estimate(state, FilterParams()) == []

    def test_exact_threshold_excluded(self):
        state = self.make_state([0.4])
        assert mbm.estimate(state, FilterParams(estimate_existence=0.4)) == []

    def test_detected_target_reported_with_label(self):
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        birth = BirthModel((birth_at(0.0, 0.0, existence=0.5),))
        state = mbm.predict(mbm.init_empty(), model, birth)
        z = np.array([0.5, -0.5])
        out = mbm.update(state, [z], model, FilterParams())
        estimates = mbm.estimate(out, FilterParams())
        assert len(estimates) == 1
        assert estimates[0].label == (1, 1)
        expected, _ = kalman_update(
            GaussianDensity([0.0, 0.0, 0.0, 0.0], np.diag([9.0, 1.0, 9.0, 1.0])), z, model
        )
        np.testing.assert_allclose(estimates[0].state, expected.mean)
        assert not np.shares_memory(estimates[0].state, out.means)

    def test_tie_breaks_to_lowest_index(self):
        comps = tuple(
            BernoulliComponent(
                (
                    SingleTargetHypothesis(
                        0.0,
                        r,
                        GaussianDensity(np.zeros(4), np.eye(4)),
                        HypothesisMeta(1, i + 1),
                    ),
                )
            )
            for i, r in enumerate([0.9, 0.2])
        )
        globals_ = (
            GlobalHypothesis(math.log(0.5), (0, 0)),
            GlobalHypothesis(math.log(0.5), (0, 0)),
        )
        state = MbmState(comps, globals_, 1)
        estimates = mbm.estimate(state, FilterParams())
        assert len(estimates) == 1


class TestStepAndLabels:
    def test_decay_to_empty_without_measurements(self):
        model = constant_velocity_model(clutter_intensity=1e-4)
        params = FilterParams()
        state, _ = mbm.step(mbm.init_empty(), [], model, scenario1_birth(), params)
        existences = []
        for _ in range(4):
            state, estimates = mbm.step(state, [], model, BirthModel(), params)
            assert estimates == []
            if state.components:
                existences.append(max(h.existence for c in state.components for h in c.hypotheses))
        assert len(state.components) == 0
        assert all(b < a for a, b in zip(existences, existences[1:], strict=False))

    def test_kalman_reduction_with_certain_birth(self):
        # p_D = 1, no clutter, one certain birth at the true prior: the MBM
        # recursion must coincide with a plain Kalman filter.
        rng = np.random.default_rng(6)
        model = constant_velocity_model(detection_prob=1.0, clutter_intensity=0.0)
        prior = GaussianDensity([0.0, 1.0, 0.0, -1.0], np.diag([4.0, 1.0, 4.0, 1.0]))
        birth = BirthModel((BirthComponent(1.0, prior),))
        params = FilterParams(max_globals=50, gate_threshold=float("inf"))

        truth = np.array([0.0, 1.0, 0.0, -1.0])
        state = mbm.init_empty()
        reference = prior
        for k in range(50):
            truth = model.transition @ truth + np.linalg.cholesky(
                model.process_noise
            ) @ rng.standard_normal(4)
            z = model.observation @ truth + rng.standard_normal(2)
            this_birth = birth if k == 0 else BirthModel()
            if k > 0:
                reference = kalman_predict(reference, model)
            state, estimates = mbm.step(state, [z], model, this_birth, params)
            reference, _ = kalman_update(reference, z, model)
            assert len(estimates) == 1
            np.testing.assert_allclose(estimates[0].state, reference.mean, atol=1e-8)
        check_state(state)

    def test_label_metadata_never_touches_numerics(self):
        model = constant_velocity_model(detection_prob=0.85, clutter_intensity=2e-4)
        birth = BirthModel((birth_at(140.0, 170.0), birth_at(160.0, 150.0)))
        rng = np.random.default_rng(12)
        scans = [rng.uniform(130, 180, size=(rng.integers(0, 4), 2)) for _ in range(8)]
        label_scrambled_run(scans, [model] * 8, birth, FilterParams(max_globals=30), 13)

    def test_labels_unique_and_preserved(self):
        model = constant_velocity_model(detection_prob=0.9, clutter_intensity=1e-4)
        birth = BirthModel((birth_at(140.0, 170.0), birth_at(160.0, 150.0)))
        params = FilterParams(max_globals=20)
        rng = np.random.default_rng(3)
        state = mbm.init_empty()
        for _ in range(6):
            zs = rng.uniform(130, 180, size=(2, 2))
            state, _ = mbm.step(state, zs, model, birth, params)
            labels = [
                (h.meta.birth_time, h.meta.birth_index)
                for c in state.components
                for h in c.hypotheses
            ]
            # all hypotheses of one component share the component's label
            for comp in state.components:
                assert len({h.meta.label for h in comp.hypotheses}) == 1
            comp_labels = [c.hypotheses[0].meta.label for c in state.components]
            assert len(comp_labels) == len(set(comp_labels))

    def test_normalization_error_when_everything_vanishes(self):
        state = mbm.init_empty()
        bad = MbmState((), (), 0)
        with pytest.raises(InputError):
            mbm.estimate(bad, FilterParams())
        # estimate on a healthy empty state returns no targets
        assert mbm.estimate(state, FilterParams()) == []

    def test_malformed_measurements_rejected(self):
        from mbmtrack.errors import InputError

        model = constant_velocity_model(clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        with pytest.raises(InputError, match="^measurements have inconsistent dimensions$"):
            mbm.update(state, [[1.0, 2.0], [3.0]], model, FilterParams())
        with pytest.raises(InputError, match="^measurements must have 2 coordinates, got 3$"):
            mbm.update(state, [[1.0, 2.0, 3.0]], model, FilterParams())
        with pytest.raises(InputError, match="^measurements must have 2 coordinates, got 1x2$"):
            mbm.update(state, [[[1.0, 2.0]]], model, FilterParams())

    @pytest.mark.parametrize("element", [1.0 + 2.0j, {}, "x", np.complex128(1.0 + 2.0j)])
    def test_non_real_measurements_rejected(self, element):
        model = constant_velocity_model(clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        with pytest.raises(InputError, match="malformed measurements"):
            mbm.update(state, [[1.0, element]], model, FilterParams())

    def test_step_estimates_before_pruning(self, monkeypatch):
        calls = []
        orig_prune, orig_estimate = mbm.prune, mbm.estimate

        def spying_prune(state, params):
            calls.append("prune")
            return orig_prune(state, params)

        def spying_estimate(state, params):
            calls.append("estimate")
            return orig_estimate(state, params)

        monkeypatch.setattr(mbm, "prune", spying_prune)
        monkeypatch.setattr(mbm, "estimate", spying_estimate)
        model = constant_velocity_model(clutter_intensity=1e-4)
        mbm.step(mbm.init_empty(), [], model, scenario1_birth(), FilterParams())
        assert calls == ["estimate", "prune"]


@pytest.mark.parametrize(
    "scan, tail",
    [
        (np.zeros((1, 4)), "must have 2 coordinates, got 4"),
        ([1.0, 2.0, 3.0], "must have 2 coordinates, got 3"),
        ([[1.0, 2.0], [3.0]], "have inconsistent dimensions"),
        ([[np.nan, 2.0]], "must be finite"),
    ],
    ids=["one_by_four_block", "three_numbers", "ragged", "nan_point"],
)
def test_one_scan_rule_at_every_entry_point(scan, tail):
    """update, batch_statistics and kalman_update refuse a bad scan with one message."""
    model = constant_velocity_model(clutter_intensity=1e-4)
    state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
    prior = GaussianDensity(np.zeros(4), np.eye(4))
    for call in (
        lambda: mbm.update(state, scan, model, FilterParams()),
        lambda: PreparedMeasurementUpdate(prior, model).batch_statistics(scan),
        lambda: kalman_update(prior, scan, model),
    ):
        with pytest.raises(InputError, match=f"^measurements {tail}$"):
            call()


def test_birth_covariance_must_be_psd():
    """A non-PSD birth is refused at construction, before a step gates it."""
    for bad in (-np.eye(4), np.diag([1.0, 1.0, 1.0, -1e-3])):
        with pytest.raises(InputError, match="^covariance must be positive semi-definite$"):
            BirthComponent(0.1, GaussianDensity([100.0, 0.0, 100.0, 0.0], bad))
    for good in (np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, -1e-18])):
        BirthComponent(0.1, GaussianDensity([100.0, 0.0, 100.0, 0.0], good))
    # The checked covariance is read-only, so no density can come to hold a
    # non-PSD or non-finite one after construction.
    written = GaussianDensity([0.0], [[1.0]])
    for bad in (-1.0, np.inf):
        with pytest.raises(ValueError, match="read-only"):
            written.covariance[0, 0] = bad
    assert written.covariance.tolist() == [[1.0]]


def test_birth_components_must_share_one_dimension():
    flat = BirthComponent(0.1, GaussianDensity([100.0, 100.0], np.eye(2)))
    with pytest.raises(InputError, match="birth components must share one state dimension"):
        BirthModel((birth_at(100.0, 100.0), flat))
    assert len(BirthModel((flat, flat)).stacked[0]) == 2


def test_birth_of_the_wrong_dimension_fails_in_predict():
    flat = BirthModel((BirthComponent(0.1, GaussianDensity(np.zeros(2), np.eye(2))),))
    model = builtin_scenario("scenario1").model
    with pytest.raises(InputError, match="birth components must have dimension 4"):
        mbm.step(mbm.init_empty(), np.zeros((0, 2)), model, flat, FilterParams())


def test_state_of_the_wrong_dimension_rejected():
    # A scenario1 state (4-D hypotheses) under a planar random-walk model.
    scenario = builtin_scenario("scenario1")
    state = mbm.predict(mbm.init_empty(), scenario.model, scenario.birth)
    planar = LinearGaussianModel(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 0.99, 0.9, 1e-4)
    flat = BirthModel((BirthComponent(0.1, GaussianDensity(np.zeros(2), np.eye(2))),))
    with pytest.raises(InputError, match="state hypotheses must have dimension 2, not 4"):
        mbm.predict(state, planar, flat)
    with pytest.raises(InputError, match="state hypotheses must have dimension 2, not 4"):
        mbm.update(state, [[0.0, 0.0]], planar, FilterParams())
    # The empty state has no hypotheses, so it fits every model.
    empty = mbm.update(mbm.init_empty(), [[0.0, 0.0]], planar, FilterParams())
    assert len(mbm.predict(empty, planar, flat).means) == 1


@pytest.mark.parametrize("existence", [0.0, 0.5])
def test_singular_innovation_raises_whatever_the_existence(existence):
    """``update`` gates every parent, so a singular S fails at existence 0 too."""
    planar = LinearGaussianModel(np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)),
                                 0.99, 0.9, 1e-4)
    state = single_hypothesis_state(0.0, existence, GaussianDensity(np.zeros(2), np.zeros((2, 2))))
    with pytest.raises(NumericalError, match="not positive definite"):
        mbm.update(state, [[0.0, 0.0]], planar, FilterParams())


@pytest.mark.parametrize(
    "detection_prob, scan", [(0.0, [[0.0, 0.0]]), (0.9, []), (0.9, None)],
    ids=["blind_step", "empty_scan", "no_scan"],
)
def test_singular_innovation_raises_on_every_step(detection_prob, scan):
    """``update`` gates on every step, so a singular S fails where no
    detection can happen too: at p_D = 0 and on an empty scan."""
    planar = LinearGaussianModel(np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)),
                                 0.99, detection_prob, 1e-4)
    state = single_hypothesis_state(0.0, 0.5, GaussianDensity(np.zeros(2), np.zeros((2, 2))))
    with pytest.raises(NumericalError, match="not positive definite"):
        mbm.update(state, scan, planar, FilterParams())


@pytest.mark.parametrize("stage", ["predict", "update", "prune", "step"])
def test_state_without_globals_rejected(stage):
    scenario = builtin_scenario("scenario1")
    bad, params = MbmState((), (), 0), FilterParams()
    calls = {
        "predict": lambda: mbm.predict(bad, scenario.model, scenario.birth),
        "update": lambda: mbm.update(bad, [[0.0, 0.0]], scenario.model, params),
        "prune": lambda: mbm.prune(bad, params),
        "step": lambda: mbm.step(bad, [[0.0, 0.0]], scenario.model, scenario.birth, params),
    }
    with pytest.raises(InputError, match="^state has no global hypotheses$"):
        calls[stage]()


class TestFilterParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_globals": 0},
            {"max_globals": -3},
            {"max_globals": 2.5},
            {"max_globals": True},
            {"gate_threshold": 0.0},
            {"gate_threshold": -1.0},
            {"gate_threshold": float("nan")},
            {"prune_global_weight": -1e-9},
            {"prune_global_weight": 1.0},
            {"prune_global_weight": float("nan")},
            {"prune_existence": 2.0},
            {"prune_existence": 1.0},
            {"estimate_existence": -0.1},
            {"estimate_existence": 1.5},
            {"estimate_existence": float("nan")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InputError):
            FilterParams(**kwargs)

    def test_boundary_values_accepted(self):
        FilterParams(
            max_globals=np.int64(1),
            gate_threshold=float("inf"),
            prune_global_weight=0.0,
            prune_existence=0.0,
            estimate_existence=1.0,
        )
        FilterParams(estimate_existence=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteMeasurements:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_update_rejects(self, bad):
        model = constant_velocity_model(clutter_intensity=1e-4)
        state = mbm.predict(mbm.init_empty(), model, scenario1_birth())
        with pytest.raises(InputError, match="finite"):
            mbm.update(state, [[140.0, 170.0], [150.0, bad]], model, FilterParams())
        # A non-finite birth mean fails as early, when the birth is built.
        with pytest.raises(InputError, match="finite"):
            BirthComponent(0.1, GaussianDensity([140.0, 0.0, bad, 0.0], np.eye(4)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFarPointAgainstDiagonalS:
    """Scenario1's model has a diagonal S; with R = 1e-4 I, a point at 1e308
    overflows the first whitened coordinate, and the gate computes 0 * inf."""

    SCAN = [[150.0, 160.0], [1e308, 0.0]]

    @staticmethod
    def tracked(birth):
        """The model, and the prediction after six steps on (150, 160)."""
        scenario = builtin_scenario("scenario1")
        model = dataclasses.replace(scenario.model, measurement_noise=1e-4 * np.eye(2))
        state = mbm.init_empty()
        for _ in range(6):
            state, _ = mbm.step(state, [[150.0, 160.0]], model, scenario.birth, FilterParams())
        return model, mbm.predict(state, model, birth(scenario.birth))

    def test_far_point_is_gated_out(self):
        model, predicted = self.tracked(lambda birth: birth)
        out = mbm.update(predicted, self.SCAN, model, FilterParams())
        expected = mbm.update(predicted, self.SCAN[:1], model, FilterParams())
        for name in STATE_ARRAYS:
            assert getattr(out, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_far_birth_alone_takes_the_far_point(self):
        far = BirthComponent(0.5, GaussianDensity([1e308, 0.0, 0.0, 0.0], np.eye(4)))
        model, predicted = self.tracked(lambda birth: BirthModel(birth.components + (far,)))
        out = mbm.update(predicted, self.SCAN, model, FilterParams())
        assert np.isfinite(out.global_log_weights).all()
        took_far_point = out.histories[:, -1] == 2
        assert took_far_point.any()
        assert (out.means[took_far_point, 0] > 1e307).all()


def _model_and_birth_out_of_range(case):
    """Scenario1's model and birth with one magnitude out of the planar
    determinant's float range: det S = S11 S22 - S12^2 overflows, or underflows."""
    scenario = builtin_scenario("scenario1")
    model, birth = scenario.model, scenario.birth

    def births(scale):
        return BirthModel(tuple(
            BirthComponent(b.existence, GaussianDensity(b.density.mean, scale * np.eye(4)))
            for b in birth.components
        ))

    def noise(scale):
        return dataclasses.replace(model, measurement_noise=scale * np.eye(2))

    return {
        "measurement_noise": (noise(1e300), birth),
        "process_noise": (constant_velocity_model(process_noise_intensity=1e300), birth),
        "birth_covariance": (model, births(1e300)),
        "underflow": (noise(1e-200), births(1e-200)),
    }[case]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "case", ["measurement_noise", "process_noise", "birth_covariance", "underflow"]
)
def test_planar_determinant_out_of_range_raises(case):
    """A det S of inf (or 0) would make every gain 0 (or NaN), with a
    RuntimeWarning, and the filter would keep its prior means."""
    model, birth = _model_and_birth_out_of_range(case)
    state = mbm.init_empty()
    with pytest.raises(NumericalError, match="determinant overflows or underflows"):
        for _ in range(3):
            state, _ = mbm.step(state, [[150.0, 160.0]], model, birth, FilterParams())


def _log_weight_lists():
    """1-400 log-weights with floored log-zeros and exact ties of the maximum."""
    value = st.one_of(
        st.floats(min_value=-1e4, max_value=1e3, allow_nan=False), st.just(floor_log(0.0))
    )

    @st.composite
    def lists(draw):
        values = draw(st.lists(value, min_size=1, max_size=397))
        values += [max(values)] * draw(st.integers(0, 3))
        return draw(st.permutations(values))

    return lists()


class TestLogsumexp:
    @settings(max_examples=300, deadline=None)
    @given(_log_weight_lists())
    def test_bitwise_equal_to_scipy(self, values):
        got = mbm._logsumexp(values)
        assert np.float64(got).tobytes() == np.float64(logsumexp(values)).tobytes()

    @pytest.mark.parametrize(
        "values", [[], [-math.inf], [-math.inf, -math.inf], [math.inf, 1.0], [math.nan, 1.0]]
    )
    def test_non_finite_edges_match_scipy(self, values):
        with np.errstate(all="ignore"):
            expected = float(logsumexp(values))
        assert np.array_equal(mbm._logsumexp(values), expected, equal_nan=True)

    @pytest.mark.parametrize("value", [-0.0, 0.0, -745.0, floor_log(0.0)])
    def test_lone_term_matches_scipy_bitwise(self, value):
        # scipy's formula reduces to log1p(0) + log(1) + a: a, and +0.0 for -0.0.
        got = mbm._logsumexp([value])
        assert np.float64(got).tobytes() == np.float64(logsumexp([value])).tobytes()

    def test_lone_global_weight_stays_exactly_zero(self):
        scenario, scans = scenario1_scans(10)
        params = FilterParams(max_globals=1)
        state = mbm.init_empty()
        for k, zs in enumerate(scans, start=1):
            model = scenario.model_at(k)
            updated = mbm.update(mbm.predict(state, model, scenario.birth), zs, model, params)
            state = mbm.prune(updated, params)
            for weights in (updated.global_log_weights, state.global_log_weights):
                assert weights.tobytes() == np.zeros(1).tobytes()


def misdetection_weight(parent, model):
    """Log-weight and existence of the misdetection child of ``parent``, one at a time."""
    r = parent.existence
    denom = 1.0 - r * model.detection_prob
    if denom > 0.0:
        return (
            parent.log_weight + math.log(denom),
            min(max(r * (1.0 - model.detection_prob) / denom, 0.0), 1.0),
        )
    return parent.log_weight + floor_log(0.0), 1.0


def extended(meta, association):
    """``meta`` with ``association`` appended to its history."""
    return HypothesisMeta(
        meta.birth_time, meta.birth_index, meta.association_history + (association,)
    )


def eager_update(state, zs, model, params):
    """Reference update that builds every misdetection and gated detection child.

    Same arithmetic as ``mbm.update``, but with no deferred construction:
    the child of every slot exists whether or not a global selects it.
    """
    zs = mbm._as_measurement_block(zs, model.meas_dim)
    m, n = len(zs), len(state.components)
    log_pd, log_kappa = floor_log(model.detection_prob), model.log_clutter_intensity
    children, mis_index, mis_increment, det_index, cost_rows = [], [], [], [], []
    for comp in state.components:
        kids, mis, incr, det, rows = [], [], [], {}, []
        for p_idx, parent in enumerate(comp.hypotheses):
            log_weight, existence = misdetection_weight(parent, model)
            mis.append(len(kids))
            incr.append(log_weight - parent.log_weight)
            kids.append(
                SingleTargetHypothesis(
                    log_weight, existence, parent.density,
                    extended(parent.meta, 0),
                )
            )
            row = np.full(m, FORBIDDEN)
            if m > 0 and parent.existence > 0.0 and model.detection_prob > 0.0:
                prepared = PreparedMeasurementUpdate(parent.density, model)
                maha, logliks = prepared.batch_statistics(zs)
                log_r = math.log(parent.existence)
                log_mis = floor_log(1.0 - parent.existence * model.detection_prob)
                for j in range(m):
                    if maha[j] > params.gate_threshold:
                        continue
                    det[(p_idx, j)] = len(kids)
                    kids.append(
                        SingleTargetHypothesis(
                            parent.log_weight + log_r + log_pd + logliks[j] - log_kappa,
                            1.0,
                            prepared.posterior(zs[j]),
                            extended(parent.meta, j + 1),
                        )
                    )
                    row[j] = log_mis - (log_r + log_pd + logliks[j] - log_kappa)
            rows.append(row)
        children.append(kids)
        mis_index.append(mis)
        mis_increment.append(incr)
        det_index.append(det)
        cost_rows.append(rows)
    new_globals = []
    for g in state.global_hypotheses:
        vec = g.assignment_vector
        base = [mis_index[i][vec[i]] for i in range(n)]
        base_log_weight = g.log_weight
        for i in range(n):
            base_log_weight += mis_increment[i][vec[i]]
        cost_matrix = np.array([cost_rows[i][vec[i]] for i in range(n)]).reshape(n, m)
        # One matrix at a time, so the filter's stacked call is checked against it.
        k_u = max(1, math.ceil(params.max_globals * math.exp(min(g.log_weight, 0.0))))
        for assigned in ranked_alone(cost_matrix, k_u, False):
            child = base.copy()
            for i, j in assigned.row_to_col.items():
                child[i] = det_index[i][(vec[i], j)]
            new_globals.append(
                GlobalHypothesis(base_log_weight - assigned.total_cost, tuple(child))
            )
    components = tuple(BernoulliComponent(tuple(kids)) for kids in children)
    total = logsumexp([g.log_weight for g in new_globals])
    normalized = tuple(GlobalHypothesis(g.log_weight - total, g.assignment_vector) for g in new_globals)
    return MbmState(components, normalized, state.time)


def assert_states_identical(a, b):
    assert a.time == b.time
    assert a.global_hypotheses == b.global_hypotheses  # bitwise weights, same vectors
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert len(ca.hypotheses) == len(cb.hypotheses)
        for ha, hb in zip(ca.hypotheses, cb.hypotheses):
            assert ha.log_weight == hb.log_weight
            assert ha.existence == hb.existence
            assert ha.meta == hb.meta
            assert np.array_equal(ha.density.mean, hb.density.mean)
            assert np.array_equal(ha.density.covariance, hb.density.covariance)


def scenario1_scans(n_steps, seed=2027):
    scenario = generate_truth(builtin_scenario("scenario1"), 2026)
    return scenario, generate_run_measurements(scenario, seed)[:n_steps]


class TestDeferredChildren:
    @pytest.mark.parametrize("max_globals", [1, 200])
    def test_every_hypothesis_is_referenced(self, max_globals):
        scenario, scans = scenario1_scans(25)
        params = FilterParams(max_globals=max_globals)
        state = mbm.init_empty()
        for k, zs in enumerate(scans, start=1):
            model = scenario.model_at(k)
            updated = mbm.update(mbm.predict(state, model, scenario.birth), zs, model, params)
            check_state(updated)  # also asserts that every hypothesis is referenced
            state = mbm.prune(updated, params)
            check_state(state)

    @pytest.mark.parametrize("max_globals", [1, 200])
    def test_pruned_state_and_estimates_match_eager_build(self, max_globals):
        scenario, scans = scenario1_scans(25)
        params = FilterParams(max_globals=max_globals)
        state = mbm.init_empty()
        unreferenced = 0
        for k, zs in enumerate(scans, start=1):
            model = scenario.model_at(k)
            predicted = mbm.predict(state, model, scenario.birth)
            lazy = mbm.update(predicted, zs, model, params)
            eager = eager_update(predicted, zs, model, params)
            unreferenced += sum(len(c.hypotheses) for c in eager.components) - sum(
                len(c.hypotheses) for c in lazy.components
            )
            lazy_estimates = mbm.estimate(lazy, params)
            eager_estimates = mbm.estimate(eager, params)
            assert [e.label for e in lazy_estimates] == [e.label for e in eager_estimates]
            for e_lazy, e_eager in zip(lazy_estimates, eager_estimates):
                assert np.array_equal(e_lazy.state, e_eager.state)
            state = mbm.prune(lazy, params)
            check_state(state)
            assert_states_identical(state, mbm.prune(eager, params))
        # the eager build made children no global used, so the comparison
        # exercised the renumbering
        assert unreferenced > 0

    @pytest.mark.parametrize("name", ["scenario2", "scenario3"])
    def test_other_scenarios_keep_state_invariants(self, name):
        scenario = generate_truth(builtin_scenario(name), 2026)
        params = FilterParams(max_globals=200)
        state = mbm.init_empty()
        for k, zs in enumerate(generate_run_measurements(scenario, 2027)[:25], start=1):
            model = scenario.model_at(k)
            state, _ = mbm.step(state, zs, model, scenario.birth, params)
            check_state(state)


class TestStackedRanking:
    def test_lsap_solves_match_per_global_k_best(self, monkeypatch):
        """The step's one stacked ranking makes exactly the LSAP solves, and
        gives bitwise the rankings, of ranking each global's matrix alone."""
        solve = assignment.linear_sum_assignment
        solves = [0]

        def counted(node):
            solves[0] += 1
            return solve(node)

        calls = []
        ranked_columns = mbm._ranked_columns

        def recorded(costs, ks, resolve_ties):
            ranked = ranked_columns(costs, ks, resolve_ties)
            calls.append((costs, ks, resolve_ties, ranked))
            return ranked

        monkeypatch.setattr(assignment, "linear_sum_assignment", counted)
        monkeypatch.setattr(mbm, "_ranked_columns", recorded)
        scenario, scans = scenario1_scans(25)
        params = FilterParams(max_globals=200)
        state = mbm.init_empty()
        for k, zs in enumerate(scans, start=1):
            model = scenario.model_at(k)
            state, _ = mbm.step(state, zs, model, scenario.birth, params)
        stacked_solves, solves[0] = solves[0], 0
        assert len(calls) == len(scans)
        for costs, ks, resolve_ties, (counts, totals, cols) in calls:
            assert costs.ndim == 3 and len(costs) == len(ks) == len(counts)
            # Only the gated block is ranked: every row and every column
            # admits an entry in some matrix of the stack.
            admitted = costs < FORBIDDEN
            assert admitted.any(axis=(0, 2)).all() and admitted.any(axis=(0, 1)).all()
            assert not resolve_ties and cols.shape == (len(totals), costs.shape[1])
            end = 0
            for matrix, k_u, count in zip(costs, ks, counts):
                alone = ranked_alone(matrix, k_u, False)
                rows, costs_out = cols[end:end + count].tolist(), totals[end:end + count].tolist()
                assert [(a.row_to_col, a.total_cost.hex()) for a in alone] == [
                    ({r: c for r, c in enumerate(row) if c >= 0}, cost.hex())
                    for row, cost in zip(rows, costs_out)
                ]
                end += count
            assert end == len(totals)
        assert solves[0] == stacked_solves > 0


def _scored_run_counts(max_globals: int) -> dict:
    """Work counters of one scored scenario1 run (truth seed 2026, run seed 2027).

    Read from the golden replay of the same run, which splits LSAP solves by
    caller: those inside GOSPA's ranking calls are scoring's, all others
    the filter's.
    """
    steps, scoring = golden.replay(("scenario1", max_globals, 2027))
    return {
        "solves": sum(step["lsap_solves"] for step in steps),
        "globals": sum(step["update_counts"][1] for step in steps),
        "children": sum(step["update_counts"][0] for step in steps),
        "gospa_k_best": scoring["gospa_k_best_calls"],
        "gospa_solves": scoring["gospa_lsap_solves"],
    }


class TestWorkCounters:
    def test_scenario1_counters_at_canonical_cap(self):
        """The filter's LSAP solves, globals and children on one scenario1 run
        at N_h = 200 are deterministic; a change that keeps rankings and
        child selection keeps them.  Scoring the run is one GOSPA ranking
        call, whose solves a change that keeps the matchings keeps too."""
        counts = _scored_run_counts(200)
        assert counts == {
            "solves": 25_643, "globals": 23_266, "children": 20_530,
            "gospa_k_best": 1, "gospa_solves": 115,
        }

    def test_scenario1_scoring_counters_at_nh1(self):
        counts = _scored_run_counts(1)
        assert (counts["gospa_k_best"], counts["gospa_solves"]) == (1, 128)


class TestStateArrays:
    def test_metadata_arrays_round_trip(self):
        histories = [(), (0,), (2, 0, 1)]
        comp = BernoulliComponent(tuple(
            SingleTargetHypothesis(0.0, 0.5, GaussianDensity(np.zeros(2), np.eye(2)),
                                   HypothesisMeta(3, i + 1, history))
            for i, history in enumerate(histories)
        ))
        state = MbmState((comp,), (GlobalHypothesis(0.0, (2,)),), 4)
        assert state.labels.tolist() == [[3, 1], [3, 2], [3, 3]]
        assert state.histories.tolist() == [[-1, -1, -1], [-1, -1, 0], [2, 0, 1]]
        rebuilt = MbmState(state.components, state.global_hypotheses, 4)
        assert rebuilt.components == state.components
        assert [h.meta.association_history for h in rebuilt.components[0].hypotheses] == histories

    def test_prune_drops_padding_no_kept_history_reaches(self):
        comps = tuple(
            BernoulliComponent((SingleTargetHypothesis(
                0.0, 0.9, GaussianDensity(np.zeros(2), np.eye(2)), HypothesisMeta(1, 1, history)
            ),))
            for history in [(0,), (1, 0, 2)]
        )
        state = MbmState(comps, (GlobalHypothesis(0.0, (0, 0)),), 3)
        assert state.histories.shape == (2, 3)
        kept = mbm.prune(MbmState(comps[:1], (GlobalHypothesis(0.0, (0,)),), 3), FilterParams())
        assert kept.histories.tolist() == [[0]]
        assert mbm.prune(state, FilterParams()).histories.tolist() == [[-1, -1, 0], [1, 0, 2]]

    def test_merge_returns_inputs_without_duplicates(self):
        vectors = np.array([[0, 1], [1, 0], [0, 0]])
        weights = np.log([0.2, 0.3, 0.5])
        merged = mbm._merge_duplicates(vectors, weights)
        assert merged[0] is vectors and merged[1] is weights
        vectors[2] = vectors[0]
        merged_vectors, merged_weights = mbm._merge_duplicates(vectors, weights)
        assert merged_vectors.tolist() == [[0, 1], [1, 0]]
        assert merged_weights[0] == np.logaddexp(weights[0], weights[2])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_merge_folds_as_a_dict_in_order_of_appearance(self, data):
        """Groups of any size, interleaved, zero-width vectors and -inf weights
        included, against a dict of tuples: groups in order of first appearance,
        each folded left to right with ``np.logaddexp``, bitwise."""
        width = data.draw(st.integers(0, 3), label="width")
        row = st.tuples(*[st.integers(0, 2)] * width)
        pool = data.draw(st.lists(row, min_size=1, max_size=4), label="pool")
        rows = data.draw(st.lists(st.sampled_from(pool), max_size=12), label="rows")
        weight = st.one_of(st.floats(-50.0, 5.0), st.just(-math.inf))
        weights = data.draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
        groups = {}
        for key, w in zip(rows, weights):
            groups[key] = np.logaddexp(groups[key], w) if key in groups else np.float64(w)
        vectors = np.array(rows, dtype=np.intp).reshape(len(rows), width)
        log_weights = np.array(weights)
        merged_vectors, merged_weights = mbm._merge_duplicates(vectors, log_weights)
        assert merged_vectors.dtype == np.intp and merged_vectors.shape == (len(groups), width)
        assert list(map(tuple, merged_vectors.tolist())) == list(groups)
        assert merged_weights.dtype == np.float64
        assert merged_weights.tobytes() == np.array(list(groups.values())).tobytes()
        if len(groups) == len(rows):
            assert merged_vectors is vectors and merged_weights is log_weights

    def test_constructor_folds_repeated_vectors(self):
        """Three globals over two vectors make a state of two, weighted as
        ``_merge_duplicates`` weights them, at the first one's place."""
        comp = BernoulliComponent(tuple(
            SingleTargetHypothesis(0.0, 0.5, GaussianDensity(np.zeros(2), np.eye(2)),
                                   HypothesisMeta(1, 1, (i,)))
            for i in range(2)
        ))
        weights = np.log([0.2, 0.3, 0.5])
        given = [GlobalHypothesis(w, (v,)) for w, v in zip(weights.tolist(), (1, 0, 1))]
        state = MbmState((comp,), tuple(given), 1)
        vectors, merged = mbm._merge_duplicates(np.array([[1], [0], [1]]), weights)
        assert state.vectors.tolist() == vectors.tolist() == [[1], [0]]
        assert state.global_log_weights.tolist() == merged.tolist()
        assert state.global_hypotheses == tuple(
            GlobalHypothesis(w, (v,)) for w, v in zip(merged.tolist(), (1, 0)))
        check_state(mbm.prune(state, FilterParams()))


@st.composite
def _scan_plans(draw):
    """Per step, measurements as (kind, a, b): kind 0 is a point near the
    birth sites, 1 repeats an earlier point of the scan, 2 lies on the gate
    boundary of a predicted hypothesis and 3 at its predicted measurement
    (a picks the hypothesis, b is the angle)."""
    point = st.tuples(st.integers(0, 3), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return draw(st.lists(st.lists(point, max_size=5), min_size=1, max_size=6))


def _scan(plan, predicted, model, params):
    points = []
    for kind, a, b in plan:
        if kind == 1 and points:
            points.append(points[int(a * len(points)) % len(points)])
        elif kind >= 2 and len(predicted.means):
            i = int(a * len(predicted.means)) % len(predicted.means)
            h = model.observation
            s = h @ predicted.covariances[i] @ h.T + model.measurement_noise
            angle = 2.0 * math.pi * b
            offset = np.linalg.cholesky(s) @ [math.cos(angle), math.sin(angle)]
            reach = math.sqrt(params.gate_threshold) if kind == 2 else 0.0
            points.append(h @ predicted.means[i] + reach * offset)
        else:
            points.append(np.array([135.0 + 35.0 * a, 145.0 + 30.0 * b]))
    return np.array(points).reshape(len(points), 2)


class TestRandomScans:
    """The filter keeps its invariants on scans with empty scans, repeated
    points and points on the gate boundary, at N_h = 1, 5 and 200."""

    @settings(max_examples=60, deadline=None)
    @given(_scan_plans(), st.sampled_from([1, 5, 200]))
    def test_step_keeps_invariants(self, plans, max_globals):
        model = constant_velocity_model(clutter_intensity=10.0 / 90000.0)
        birth, params = scenario1_birth(), FilterParams(max_globals=max_globals)
        update, prune, updated = mbm.update, mbm.prune, []

        def checked_update(predicted, zs, model, params):
            out = update(predicted, zs, model, params)
            check_state(out)
            # With survival below 1, only a detection leaves existence at 1.
            assert np.array_equal(out.histories[:, -1] > 0, out.existences == 1.0)
            # Children encode their parents, so distinct vectors stay distinct
            # (check_state asserts that of ``out``).
            assert len(np.unique(predicted.vectors, axis=0)) == len(predicted.vectors)
            updated.append(out)
            return out

        def checked_prune(state, params):
            out = prune(state, params)
            check_state(out)
            return out

        state = mbm.init_empty()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mbm, "update", checked_update)
            patch.setattr(mbm, "prune", checked_prune)
            for plan in plans:
                zs = _scan(plan, mbm.predict(state, model, birth), model, params)
                state, estimates = mbm.step(state, zs, model, birth, params)
                view = updated[-1]
                best = max(range(len(view.global_hypotheses)),
                           key=lambda g: view.global_hypotheses[g].log_weight)
                expected = [
                    comp.hypotheses[idx].meta.label
                    for comp, idx in zip(view.components,
                                         view.global_hypotheses[best].assignment_vector)
                    if comp.hypotheses[idx].existence > params.estimate_existence
                ]
                assert [e.label for e in estimates] == expected
