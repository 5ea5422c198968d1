import pytest
from hypothesis import given, strategies as st

from conftest import assert_frame_invariants, make_config, slot_census
from trsim.frames import (
    Duplex,
    RadioFrame,
    SlotKind,
    build_fdd_pair,
    build_tdd_frame,
    frame_dump,
    make_numerology,
)
from trsim.sim import _am_uplink_mask


def patterns():
    """Random 10-entry D/U patterns with exactly one superframe marker."""
    return st.tuples(
        st.lists(st.sampled_from("DU"), min_size=9, max_size=9),
        st.integers(0, 9),
    ).map(lambda t: "".join(t[0][: t[1]] + ["S"] + t[0][t[1] :]))


class TestNumerology:
    @pytest.mark.parametrize("mu,slots", [(0, 1), (1, 2), (2, 4), (3, 8), (4, 16)])
    def test_derived_fields(self, mu, slots):
        num = make_numerology(mu)
        assert num.slots_per_subframe == slots

    @pytest.mark.parametrize("mu", [-1, 5, 100])
    def test_out_of_range_rejected(self, mu):
        with pytest.raises(ValueError):
            make_numerology(mu)


class TestFddPair:
    def test_inactive_uplink_frame_carries_switch_state_zero(self):
        _, ul = build_fdd_pair(make_numerology(0), tr_active=False)
        census = slot_census(ul)
        assert census[SlotKind.FREQ_SWITCH0] == 1
        assert census[SlotKind.UPLINK] == 9
        assert census[SlotKind.FREQ_SWITCH1] == 0

    def test_active_uplink_frame_is_silenced(self):
        _, ul = build_fdd_pair(make_numerology(1), tr_active=True)
        census = slot_census(ul)
        assert census[SlotKind.FREQ_SWITCH1] == 1
        assert census[SlotKind.GUARD] == 19
        assert census[SlotKind.UPLINK] == 0

    def test_downlink_frame_identical_under_both_flags(self):
        dl_off, _ = build_fdd_pair(make_numerology(2), tr_active=False)
        dl_on, _ = build_fdd_pair(make_numerology(2), tr_active=True)
        assert dl_off.subframes == dl_on.subframes
        assert slot_census(dl_off)[SlotKind.DOWNLINK] == 40

    def test_switch_subframe_position_is_configurable(self):
        _, ul = build_fdd_pair(make_numerology(0), tr_active=False, switch_subframe=4)
        assert ul.subframes[4][0] is SlotKind.FREQ_SWITCH0
        assert all(sf[0] is SlotKind.UPLINK for i, sf in enumerate(ul.subframes) if i != 4)

    def test_bad_switch_subframe_rejected(self):
        with pytest.raises(ValueError):
            build_fdd_pair(make_numerology(0), tr_active=False, switch_subframe=10)


class TestTddFrame:
    PATTERN = "DSUUUDUUUU"

    def test_active_frame_holds_and_silences_uplink(self):
        frame = build_tdd_frame(make_numerology(0), self.PATTERN, tr_active=True)
        census = slot_census(frame)
        assert census[SlotKind.UPLINK] == 0
        assert census[SlotKind.HOLD] == 1
        assert census[SlotKind.RELEASE] == 0

    def test_inactive_frame_keeps_pattern_and_releases(self):
        frame = build_tdd_frame(make_numerology(1), self.PATTERN, tr_active=False)
        census = slot_census(frame)
        assert census[SlotKind.UPLINK] == self.PATTERN.count("U") * 2
        assert census[SlotKind.RELEASE] == 1
        assert census[SlotKind.HOLD] == 0

    def test_all_downlink_pattern_differs_only_in_toggle_slot(self):
        pattern = "DSDDDDDDDD"
        on = build_tdd_frame(make_numerology(1), pattern, tr_active=True)
        off = build_tdd_frame(make_numerology(1), pattern, tr_active=False)
        flat_on = [s for sf in on.subframes for s in sf]
        flat_off = [s for sf in off.subframes for s in sf]
        diffs = [
            (i, a, b) for i, (a, b) in enumerate(zip(flat_on, flat_off)) if a is not b
        ]
        assert len(diffs) == 1
        assert diffs[0][1] is SlotKind.HOLD and diffs[0][2] is SlotKind.RELEASE

    @pytest.mark.parametrize(
        "pattern", ["DSUUUDUUU", "DDUUUDUUUU", "DSUUUSUUUU", "DSXUUDUUUU"]
    )
    def test_bad_patterns_rejected(self, pattern):
        with pytest.raises(ValueError):
            build_tdd_frame(make_numerology(0), pattern, tr_active=False)


class TestFrameInvariantsHelper:
    """`assert_frame_invariants` is the one statement of the frame rules the
    tests check built frames against, so each rule must reject a frame that
    breaks it and only it."""

    D, U, H, R = SlotKind.DOWNLINK, SlotKind.UPLINK, SlotKind.HOLD, SlotKind.RELEASE
    G, F1 = SlotKind.GUARD, SlotKind.FREQ_SWITCH1

    @pytest.mark.parametrize(
        "duplex,subframes,mu",
        [
            pytest.param(Duplex.TDD, ((H,),) + ((D,),) * 8, 0, id="nine-subframes"),
            pytest.param(Duplex.TDD, ((H,), (D, D)) + ((D,),) * 8, 0, id="ragged-subframes"),
            pytest.param(Duplex.TDD, ((H, D),) + ((D, D),) * 9, 0, id="slot-count-not-2^mu"),
            pytest.param(Duplex.TDD, ((H,), (U,)) + ((D,),) * 8, 0, id="uplink-with-tr-active"),
            pytest.param(Duplex.FDD_UPLINK, ((F1,),) + ((U,),) * 9, 0, id="uplink-with-switch-state-1"),
            pytest.param(Duplex.FDD_DOWNLINK, ((U,),) + ((D,),) * 9, 0, id="uplink-in-fdd-downlink"),
            pytest.param(Duplex.FDD_UPLINK, ((D,),) + ((U,),) * 9, 0, id="downlink-in-fdd-uplink"),
            pytest.param(Duplex.TDD, ((H,), (R,)) + ((D,),) * 8, 0, id="hold-and-release-together"),
            pytest.param(Duplex.TDD, ((H,), (H,)) + ((D,),) * 8, 0, id="duplicated-hold"),
            pytest.param(Duplex.FDD_UPLINK, ((H,),) + ((G,),) * 9, 0, id="hold-outside-tdd"),
            pytest.param(Duplex.TDD, ((D,),) * 10, 0, id="tdd-without-toggle"),
        ],
    )
    def test_broken_frame_is_rejected(self, duplex, subframes, mu):
        frame = RadioFrame(duplex=duplex, subframes=subframes)
        with pytest.raises(AssertionError):
            assert_frame_invariants(frame, mu)


class TestCensusAndDump:
    def test_all_downlink_census(self):
        dl, _ = build_fdd_pair(make_numerology(0), tr_active=False)
        assert dict(slot_census(dl)) == {SlotKind.DOWNLINK: 10}

    @pytest.mark.parametrize("mu", range(5))
    def test_counts_sum_to_frame_size(self, mu):
        num = make_numerology(mu)
        frame = build_tdd_frame(num, "DSUUUDUUUU", tr_active=False)
        assert sum(slot_census(frame).values()) == 10 * num.slots_per_subframe

    def test_dump_layout(self):
        frame = build_tdd_frame(make_numerology(1), "DSUUUDUUUU", tr_active=True)
        lines = frame_dump(frame).splitlines()
        assert len(lines) == 10
        assert all(len(line) == 2 for line in lines)
        assert lines[0] == "DD"
        assert lines[1] == "HG"

    def test_dump_codes_are_single_characters(self):
        assert {kind.value for kind in SlotKind} == {"D", "U", "G", "0", "1", "H", "R"}


@given(
    mu=st.integers(0, 4),
    pattern=patterns(),
    tr_active=st.booleans(),
    switch_subframe=st.integers(0, 9),
)
def test_constructor_invariants(mu, pattern, tr_active, switch_subframe):
    num = make_numerology(mu)
    dl, ul = build_fdd_pair(num, tr_active, switch_subframe=switch_subframe)
    tdd = build_tdd_frame(num, pattern, tr_active)
    for frame in (dl, ul, tdd):
        assert_frame_invariants(frame, mu)

    # downlink slot counts never depend on the TR flag
    other_tdd = build_tdd_frame(num, pattern, not tr_active)
    assert slot_census(tdd)[SlotKind.DOWNLINK] == slot_census(other_tdd)[SlotKind.DOWNLINK]
    other_dl, other_ul = build_fdd_pair(num, not tr_active, switch_subframe=switch_subframe)
    assert slot_census(dl)[SlotKind.DOWNLINK] == slot_census(other_dl)[SlotKind.DOWNLINK]
    assert slot_census(ul)[SlotKind.DOWNLINK] == slot_census(other_ul)[SlotKind.DOWNLINK]


@given(mu=st.integers(0, 4), pattern=patterns())
def test_engine_uplink_mask_is_the_pattern(mu, pattern):
    """The engine's AM uplink slots: in TDD each slot of a 'U' subframe, in
    FDD each slot outside subframe 0, the frequency-switching subframe."""
    tdd = make_config(numerology_mu=mu, duplex="tdd", tdd_pattern=pattern)
    assert _am_uplink_mask(tdd) == [e == "U" for e in pattern for _ in range(2**mu)]
    fdd = make_config(numerology_mu=mu, duplex="fdd")
    assert _am_uplink_mask(fdd) == [sf != 0 for sf in range(10) for _ in range(2**mu)]
