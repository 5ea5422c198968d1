import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_config
from reference import evaluate_switch
from trsim.sim import ConfigError
from trsim.trmode import Mode, hold_modes, uplink_enabled

THRESHOLD, HYSTERESIS = -90.0, 3.0


def held(trace, threshold=THRESHOLD, hysteresis=HYSTERESIS, start=Mode.AM):
    """One device's modes after each slot of its rss trace, by hold_modes."""
    in_tr = hold_modes(np.array(trace, float)[:, None], threshold, hysteresis,
                       np.array([start is Mode.TR]))
    return [Mode.TR if tr else Mode.AM for tr in in_tr[:, 0].tolist()]


class TestSwitchRule:
    def test_degrading_below_band_enters_tr(self):
        assert held([THRESHOLD - HYSTERESIS - 1.0]) == [Mode.TR]

    def test_recovering_above_band_returns_to_am(self):
        assert held([THRESHOLD + HYSTERESIS + 1.0], start=Mode.TR) == [Mode.AM]

    @pytest.mark.parametrize("mode", [Mode.AM, Mode.TR])
    def test_exactly_at_threshold_keeps_mode(self, mode):
        assert held([THRESHOLD], start=mode) == [mode]

    @pytest.mark.parametrize("mode", [Mode.AM, Mode.TR])
    def test_band_edges_keep_mode(self, mode):
        assert held([THRESHOLD - HYSTERESIS, THRESHOLD + HYSTERESIS], start=mode) == [mode] * 2

    def test_zero_hysteresis_recovers_bare_threshold_rule(self):
        assert held([-90.001], -90.0, 0.0) == [Mode.TR]
        assert held([-89.999], -90.0, 0.0, Mode.TR) == [Mode.AM]
        assert held([-90.0], -90.0, 0.0) == [Mode.AM]
        assert held([-90.0], -90.0, 0.0, Mode.TR) == [Mode.TR]

    def test_negative_hysteresis_rejected(self):
        """The band is checked where it is declared, on ScenarioConfig."""
        with pytest.raises(ConfigError) as err:
            make_config(hysteresis_db=-1.0)
        assert err.value.errors == ["hysteresis_db must be in [0, 1000], got -1.0"]


class TestGating:
    def test_uplink_enabled_only_in_am(self):
        assert uplink_enabled(Mode.AM) is True
        assert uplink_enabled(Mode.TR) is False

    def test_uplink_disabled_after_subthreshold_sample(self):
        assert uplink_enabled(held([THRESHOLD - 10.0])[0]) is False


@given(
    trace=st.lists(st.floats(-130.0, -50.0, allow_nan=False), min_size=1, max_size=300),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 15.0, allow_nan=False),
)
def test_mode_changes_never_fire_inside_dead_band(trace, threshold, hysteresis):
    modes = held(trace, threshold, hysteresis)
    for rss, before, after in zip(trace, [Mode.AM, *modes], modes):
        if after is not before:
            assert rss < threshold - hysteresis or rss > threshold + hysteresis


@given(
    trace=st.lists(st.floats(0.1, 40.0, allow_nan=False), min_size=1, max_size=100),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 10.0, allow_nan=False),
)
def test_trace_above_band_never_leaves_am(trace, threshold, hysteresis):
    rss = [threshold + hysteresis + offset for offset in trace]
    assert held(rss, threshold, hysteresis) == [Mode.AM] * len(trace)


@given(
    trace=st.lists(st.floats(0.1, 40.0, allow_nan=False), min_size=1, max_size=100),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 10.0, allow_nan=False),
)
def test_trace_below_band_locks_into_tr_after_first_sample(trace, threshold, hysteresis):
    rss = [threshold - hysteresis - offset for offset in trace]
    assert held(rss, threshold, hysteresis) == [Mode.TR] * len(trace)


@given(
    data=st.data(),
    n_slots=st.integers(1, 40),
    n=st.integers(1, 5),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 10.0, allow_nan=False),
)
def test_hold_modes_equals_evaluate_switch_in_turn(data, n_slots, n, threshold, hysteresis):
    """The engine's switch over a whole (n_slots, n) array against the scalar
    rule applied slot after slot, band edges included."""
    edges = [threshold - hysteresis, threshold, threshold + hysteresis]
    value = st.one_of(st.sampled_from(edges), st.floats(-130.0, -50.0, allow_nan=False))
    rss = np.array(data.draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=n_slots, max_size=n_slots
    )))
    start_tr = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    held = hold_modes(rss, threshold, hysteresis, start_tr)
    for i in range(n):
        mode = Mode.TR if start_tr[i] else Mode.AM
        for t in range(n_slots):
            mode = evaluate_switch(float(rss[t, i]), threshold, hysteresis, mode)
            assert held[t, i] == (mode is Mode.TR)


def test_hold_modes_rejects_nan():
    with pytest.raises(ValueError):
        hold_modes(np.array([[-80.0], [math.nan]]), THRESHOLD, HYSTERESIS, np.array([False]))
