import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_config
from trsim.sim import ConfigError
from trsim.trmode import (
    Mode,
    evaluate_switch,
    hold_modes,
    uplink_enabled,
)

THRESHOLD, HYSTERESIS = -90.0, 3.0


class TestEvaluateSwitch:
    def test_degrading_below_band_enters_tr(self):
        rss = THRESHOLD - HYSTERESIS - 1.0
        assert evaluate_switch(rss, THRESHOLD, HYSTERESIS, Mode.AM) is Mode.TR

    def test_recovering_above_band_returns_to_am(self):
        rss = THRESHOLD + HYSTERESIS + 1.0
        assert evaluate_switch(rss, THRESHOLD, HYSTERESIS, Mode.TR) is Mode.AM

    @pytest.mark.parametrize("mode", [Mode.AM, Mode.TR])
    def test_exactly_at_threshold_keeps_mode(self, mode):
        assert evaluate_switch(THRESHOLD, THRESHOLD, HYSTERESIS, mode) is mode

    @pytest.mark.parametrize("mode", [Mode.AM, Mode.TR])
    def test_band_edges_keep_mode(self, mode):
        for rss in (THRESHOLD - HYSTERESIS, THRESHOLD + HYSTERESIS):
            assert evaluate_switch(rss, THRESHOLD, HYSTERESIS, mode) is mode

    def test_zero_hysteresis_recovers_bare_threshold_rule(self):
        assert evaluate_switch(-90.001, -90.0, 0.0, Mode.AM) is Mode.TR
        assert evaluate_switch(-89.999, -90.0, 0.0, Mode.TR) is Mode.AM
        assert evaluate_switch(-90.0, -90.0, 0.0, Mode.AM) is Mode.AM
        assert evaluate_switch(-90.0, -90.0, 0.0, Mode.TR) is Mode.TR

    def test_nan_rss_rejected(self):
        with pytest.raises(ValueError):
            evaluate_switch(math.nan, THRESHOLD, HYSTERESIS, Mode.AM)

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
        mode = evaluate_switch(THRESHOLD - 10.0, THRESHOLD, HYSTERESIS, Mode.AM)
        assert uplink_enabled(mode) is False


@given(
    trace=st.lists(st.floats(-130.0, -50.0, allow_nan=False), min_size=1, max_size=300),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 15.0, allow_nan=False),
)
def test_mode_changes_never_fire_inside_dead_band(trace, threshold, hysteresis):
    mode = Mode.AM
    for rss in trace:
        new = evaluate_switch(rss, threshold, hysteresis, mode)
        if new is not mode:
            assert rss < threshold - hysteresis or rss > threshold + hysteresis
        mode = new


@given(
    trace=st.lists(st.floats(0.1, 40.0, allow_nan=False), min_size=1, max_size=100),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 10.0, allow_nan=False),
)
def test_trace_above_band_never_leaves_am(trace, threshold, hysteresis):
    mode = Mode.AM
    for offset in trace:
        mode = evaluate_switch(threshold + hysteresis + offset, threshold, hysteresis, mode)
        assert mode is Mode.AM


@given(
    trace=st.lists(st.floats(0.1, 40.0, allow_nan=False), min_size=1, max_size=100),
    threshold=st.floats(-110.0, -70.0, allow_nan=False),
    hysteresis=st.floats(0.0, 10.0, allow_nan=False),
)
def test_trace_below_band_locks_into_tr_after_first_sample(trace, threshold, hysteresis):
    mode = Mode.AM
    for offset in trace:
        mode = evaluate_switch(threshold - hysteresis - offset, threshold, hysteresis, mode)
        assert mode is Mode.TR


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
