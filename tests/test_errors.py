import math
from dataclasses import replace

import numpy as np
import pytest

from mbmtrack.assignment import k_best
from mbmtrack.errors import InputError, finite_array, integer, real_array, real_number
from mbmtrack.gaussian import GaussianDensity
from mbmtrack.gospa import GospaParams
from mbmtrack.mbm import BirthComponent, FilterParams
from mbmtrack.sim import constant_velocity_model, make_rng, scenario_from_mapping


@pytest.mark.parametrize("value", [0, -3, 10**30, np.int64(4), np.uint8(2)])
def test_integers_accepted(value):
    assert integer(value, "probe", -10) == value


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(1.0), "3", None])
def test_bools_and_non_integers_rejected(value):
    with pytest.raises(InputError, match="probe must be an integer >= -10"):
        integer(value, "probe", -10)


@pytest.mark.parametrize(
    "build, name",
    [(make_rng, "seed"), (lambda v: FilterParams(max_globals=v), "max_globals")],
)
def test_rejected_int_too_long_to_print_names_its_bits(build, name):
    with pytest.raises(InputError, match=f"{name} must be an integer >= ., got an integer of "
                                         f"16610 bits"):
        build(-10**5000)
    with pytest.raises(InputError, match=f"{name} must be an integer >= ., got -1$"):
        build(-1)


@pytest.mark.parametrize(
    "values, shape, message",
    [
        ([1.0, 2.0j], None, "malformed probe: complex"),
        (np.ones(2, dtype=complex), None, "malformed probe: complex"),
        ([1.0, np.complex128(2.0)], None, "malformed probe: complex"),
        ("x", None, "malformed probe"),
        ([1.0, {}], None, "malformed probe"),
        ([[1.0], [2.0, 3.0]], None, "malformed probe"),
        ([1.0, np.nan], None, "probe must be finite"),
        ([1.0, -np.inf], None, "probe must be finite"),
        ([1.0, 2.0], (3,), r"probe must have shape \(3,\), got \(2,\)"),
    ],
)
def test_finite_array_names_what_is_wrong(values, shape, message):
    with pytest.raises(InputError, match=message):
        finite_array(values, "probe", shape)


@pytest.mark.parametrize(
    "values, kind",
    [(["0", "300"], "string"), ([1.0, "2"], "string"), ([True, False], "bool"),
     (np.array([1.0, 2.0], dtype=object), "object")],
)
def test_real_array_takes_no_strings_bools_or_objects(values, kind):
    with pytest.raises(InputError, match=f"malformed probe: {kind} elements are not real numbers"):
        real_array(values, "probe")


def test_real_array_keeps_non_finite_values():
    assert real_array([np.inf, 1], "probe").tolist() == [np.inf, 1.0]


@pytest.mark.parametrize(
    "value, interval, ok",
    [
        (0, "[0, 1]", True), (1, "[0, 1]", True), (0, "(0, 1]", False), (1, "[0, 1)", False),
        (0.5, "(0, 1)", True), (math.inf, "(0, inf]", True), (math.inf, "(0, inf)", False),
        (-math.inf, "[0, inf)", False), (math.nan, "[0, inf)", False), (1e308, "(0, inf)", True),
        (np.float32(0.25), "[0, 1]", True), (np.int64(3), "[1, inf)", True),
    ],
)
def test_real_number_interval_ends(value, interval, ok):
    if ok:
        number = real_number(value, "probe", interval)
        assert type(number) is float and number == value
    else:
        with pytest.raises(InputError, match=r"probe must be .*a real number in"):
            real_number(value, "probe", interval)


@pytest.mark.parametrize("value", ["0.5", None, 0.5j, np.complex128(0.5), True, np.bool_(False),
                                   np.array(0.5), [0.5]])
def test_real_number_rejects_non_reals(value):
    with pytest.raises(InputError, match="probe"):
        real_number(value, "probe", "[0, 1]")


def test_real_number_names_an_int_beyond_the_float_range_by_its_size():
    with pytest.raises(InputError, match="probe must fit a float, got an integer of 1329 bits"):
        real_number(10**400, "probe", "(0, inf]")
    with pytest.raises(InputError, match="probe must be finite: a real number in"):
        real_number(math.inf, "probe", "(0, inf)")


def test_integer_accepts_any_size_at_or_above_its_bound():
    assert integer(10**400, "seed", 0) == 10**400
    assert type(integer(np.uint8(2), "k", 1)) is int
    make_rng(10**400)  # SeedSequence takes any int >= 0
    assert len(k_best(np.zeros((2, 2)), 10**400)) == 7  # every assignment of a 2 x 2 matrix
    for value in (0, -1, 2.0, "3", None, 3j, True, math.nan):
        with pytest.raises(InputError, match="probe must be an integer >= 1"):
            integer(value, "probe", 1)


_MODEL = constant_velocity_model()
_DENSITY = GaussianDensity(np.zeros(4), np.eye(4))


def _mapping(**extra):
    raw = {"duration": 3, "region": {"x": [0.0, 10.0], "y": [0.0, 10.0]}, "clutter_rate": 1.0,
           "birth": [{"existence": 0.1, "mean": [5.0, 0.0, 5.0, 0.0], "std": [1.0] * 4}]}
    return {**raw, **extra}


_SCENARIO = scenario_from_mapping(_mapping())


def _birth_file(existence):
    return _mapping(birth=[
        {"existence": existence, "mean": [5.0, 0.0, 5.0, 0.0], "std": [1.0] * 4}
    ])


def _schedule_file(detection_prob):
    return _mapping(detection_schedule=[{"steps": [1, 2], "detection_prob": detection_prob}])


_BAD = {"str": "0.5", "none": None, "complex": 0.5j, "true": True, "false": False,
        "nan": math.nan, "huge": 10**400}
# Per scalar parameter (its name ends the key): how it is set, and the kinds
# of bad value that a bare comparison such as ``0 <= value <= 1`` lets
# through or turns into a TypeError.  NaN and out-of-range values, which such
# a comparison rejects, are tested in each module's own tests.
_SCALARS = {
    "survival_prob": (lambda v: constant_velocity_model(survival_prob=v), "str none complex true"),
    "detection_prob": (lambda v: constant_velocity_model(detection_prob=v),
                       "str none complex true"),
    "model copy detection_prob": (lambda v: replace(_MODEL, detection_prob=v),
                                  "str none complex true"),
    "clutter_intensity": (lambda v: constant_velocity_model(clutter_intensity=v),
                          "str none complex true huge"),
    "birth existence": (lambda v: BirthComponent(v, _DENSITY), "str none complex true"),
    "max_globals": (lambda v: FilterParams(max_globals=v), "huge"),
    "gate_threshold": (lambda v: FilterParams(gate_threshold=v), "str none complex true huge"),
    "prune_global_weight": (lambda v: FilterParams(prune_global_weight=v),
                            "str none complex false"),
    "prune_existence": (lambda v: FilterParams(prune_existence=v), "str none complex false"),
    "estimate_existence": (lambda v: FilterParams(estimate_existence=v),
                           "str none complex true"),
    "GOSPA cutoff": (lambda v: GospaParams(cutoff=v), "str none complex true"),
    "GOSPA order": (lambda v: GospaParams(order=v), "str none complex true"),
    "sampling_time": (lambda v: constant_velocity_model(sampling_time=v), "huge"),
    "noise_intensity": (lambda v: constant_velocity_model(process_noise_intensity=v), "huge"),
    "file clutter_rate": (lambda v: scenario_from_mapping(_mapping(clutter_rate=v)), "str true"),
    "file measurement_noise_std": (
        lambda v: scenario_from_mapping(_mapping(model={"measurement_noise_std": v})), "str true"
    ),
    "file survival_prob": (
        lambda v: scenario_from_mapping(_mapping(model={"survival_prob": v})), "str true"
    ),
    "file birth existence": (lambda v: scenario_from_mapping(_birth_file(v)), "str true"),
    "file gate_threshold": (
        lambda v: scenario_from_mapping(_mapping(filter={"gate_threshold": v})), "str true"
    ),
    "file schedule detection_prob": (lambda v: scenario_from_mapping(_schedule_file(v)),
                                     "str true"),
    # A scan's detection probability and clutter rate, and the run's duration,
    # are set on its Scenario.
    "scan detection_prob": (
        lambda v: replace(_SCENARIO, detection_schedule=(v,)), "str none complex true nan huge",
    ),
    "scan clutter_rate": (
        lambda v: replace(_SCENARIO, clutter_rate=v), "str none complex true nan huge",
    ),
    "scan duration": (lambda v: replace(_SCENARIO, duration=v), "str none complex true nan huge"),
}


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name, (_, kinds) in _SCALARS.items() for kind in kinds.split()],
)
def test_bad_scalar_raises_input_error(name, kind):
    build = _SCALARS[name][0]
    with pytest.raises(InputError, match=name.split()[-1]):
        build(_BAD[kind])


@pytest.mark.parametrize(
    "name, out_of_range",
    [("scan detection_prob", 1.5), ("scan clutter_rate", -1.0),
     # Past the README's bounds: numpy could not draw (1e300) or allocate
     # (9.2e18, 10**12 and 10**19) what a run of them asks for.
     ("scan clutter_rate", 1e4 + 1.0), ("scan clutter_rate", 9.2e18),
     ("scan clutter_rate", 1e300), ("scan duration", 10**5 + 1), ("scan duration", 10**12),
     ("scan duration", 10**19)],
)
def test_out_of_range_scan_scalar_raises_input_error(name, out_of_range):
    with pytest.raises(InputError, match=name.split()[-1]):
        _SCALARS[name][0](out_of_range)


def test_checked_scalars_are_stored_converted():
    params = FilterParams(
        max_globals=np.int64(5), gate_threshold=9, prune_existence=np.float32(0.5)
    )
    assert type(params.max_globals) is int and type(params.gate_threshold) is float
    assert type(params.prune_existence) is float
    assert params == FilterParams(max_globals=5, gate_threshold=9.0, prune_existence=0.5)
    model = replace(_MODEL, detection_prob=1)
    assert type(model.detection_prob) is float and type(model.survival_prob) is float
    gospa_params = GospaParams(cutoff=10, order=np.int64(2))
    assert gospa_params == GospaParams(cutoff=10.0, order=2.0)
    assert type(gospa_params.cutoff) is float and type(gospa_params.order) is float
    assert type(BirthComponent(np.float32(0.5), _DENSITY).existence) is float
