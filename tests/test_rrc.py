import random

import pytest

from trsim import rrc
from trsim.rrc import (
    RrcEvent,
    RrcState,
    check_reachability,
    transition,
    uplink_grant_allowed,
)

EE = RrcState.ENERGY_EFFICIENT


class TestTransitionTable:
    @pytest.mark.parametrize(
        "state,event,expected",
        [
            (RrcState.IDLE, RrcEvent.CONNECTION_REQUEST, RrcState.CONNECTED),
            (RrcState.CONNECTED, RrcEvent.CONNECTION_RELEASE, RrcState.IDLE),
            (RrcState.CONNECTED, RrcEvent.SUSPEND_TO_INACTIVE, RrcState.INACTIVE),
            (RrcState.INACTIVE, RrcEvent.RESUME_FROM_INACTIVE, RrcState.CONNECTED),
            (RrcState.INACTIVE, RrcEvent.INACTIVITY_TIMEOUT, RrcState.IDLE),
            (RrcState.CONNECTED, RrcEvent.TR_MODE_ENTER, EE),
            (EE, RrcEvent.TR_MODE_EXIT, RrcState.CONNECTED),
            (EE, RrcEvent.UPLINK_DATA_PENDING, RrcState.CONNECTED),
            (EE, RrcEvent.DOWNLINK_DATA_ARRIVAL, EE),
        ],
    )
    def test_listed_pairs(self, state, event, expected):
        assert transition(state, event) is expected

    def test_unlisted_pairs_self_loop(self):
        assert transition(RrcState.IDLE, RrcEvent.TR_MODE_ENTER) is RrcState.IDLE
        assert transition(RrcState.INACTIVE, RrcEvent.TR_MODE_ENTER) is RrcState.INACTIVE
        assert transition(RrcState.IDLE, RrcEvent.DOWNLINK_DATA_ARRIVAL) is RrcState.IDLE

    def test_total_over_all_pairs(self):
        for state in RrcState:
            for event in RrcEvent:
                assert transition(state, event) in RrcState


class TestGrantGate:
    def test_connected_only(self):
        assert uplink_grant_allowed(RrcState.CONNECTED) is True
        assert uplink_grant_allowed(RrcState.IDLE) is False
        assert uplink_grant_allowed(RrcState.INACTIVE) is False
        assert uplink_grant_allowed(EE) is False

    def test_pending_uplink_reaches_grant_in_one_event(self):
        nxt = transition(EE, RrcEvent.UPLINK_DATA_PENDING)
        assert nxt is RrcState.CONNECTED
        assert uplink_grant_allowed(nxt) is True


def report_lines() -> list[str]:
    return check_reachability().splitlines()


class TestReachability:
    def test_enumeration_covers_all_pairs(self):
        """Each table line is one (state, event) pair, where `transition`
        takes it and ` self` on a self-loop; the 36 pairs each appear once."""
        pairs = []
        for line in report_lines():
            head, arrow, tail = line.partition(" -> ")
            if arrow:
                state, event = head.split()
                nxt, *self_loop = tail.split()
                expected = transition(RrcState(state), RrcEvent(event))
                assert RrcState(nxt) is expected
                assert self_loop == (["self"] if expected.value == state else [])
                pairs.append((state, event))
        assert len(pairs) == len(set(pairs)) == 36

    def test_every_state_reachable_from_idle(self):
        reach = [l.split() for l in report_lines() if l.startswith("reachable-from-Idle ")]
        assert [state for _, state, _ in reach] == [s.value for s in RrcState]
        assert all(via.startswith("via=") for _, _, via in reach)

    def test_ee_reached_via_connected(self):
        assert (
            "reachable-from-Idle EnergyEfficient via=ConnectionRequest,TrModeEnter"
            in report_lines()
        )

    def test_no_single_event_moves_idle_to_ee(self):
        for line in report_lines():
            assert not (line.startswith("Idle ") and line.endswith(" -> EnergyEfficient"))
        for event in RrcEvent:
            assert transition(RrcState.IDLE, event) is not EE

    def test_ee_grant_blocked_and_exit_events(self):
        lines = report_lines()
        assert "ee-grant-blocked true" in lines
        assert "grant-allowed Connected" in lines
        assert "ee-to-grant-events TrModeExit,UplinkDataPending" in lines

    def test_report_mentions_every_pair(self):
        lines = report_lines()
        assert lines[0] == "transition-table entries=36"
        assert len([l for l in lines if " -> " in l]) == 36

    def test_unreachable_state_is_reported(self, monkeypatch):
        """Without Connected -> Inactive no event path leads from Idle to
        Inactive, and the report says so."""
        monkeypatch.delitem(
            rrc._TRANSITIONS, (RrcState.CONNECTED, RrcEvent.SUSPEND_TO_INACTIVE)
        )
        lines = report_lines()
        assert "reachable-from-Idle Inactive unreachable" in lines
        assert "Connected SuspendToInactive -> Connected self" in lines
        assert "reachable-from-Idle EnergyEfficient via=ConnectionRequest,TrModeEnter" in lines


def test_grant_never_available_in_ee_over_random_traces():
    rng = random.Random(1_000_003)
    events = list(RrcEvent)
    for _ in range(1_000):
        state = rng.choice(list(RrcState))
        for _ in range(100):
            state = transition(state, rng.choice(events))
            if state is EE:
                assert not uplink_grant_allowed(state)
            assert uplink_grant_allowed(state) == (state is RrcState.CONNECTED)
