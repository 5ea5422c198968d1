"""Four-state RRC machine with an energy-efficient half-duplex state.

Alongside Idle/Connected/Inactive there is an EnergyEfficient state for
devices in TR mode: the connection is kept for downlink transfer only and
no uplink grant is issued. Pending uplink data moves the device back to
Connected in a single step. Unlisted (state, event) pairs self-loop so the
transition function is total and the machine stays model-checkable.
"""

from __future__ import annotations

from collections import deque
from enum import Enum


class RrcState(Enum):
    IDLE = "Idle"
    CONNECTED = "Connected"
    INACTIVE = "Inactive"
    ENERGY_EFFICIENT = "EnergyEfficient"


class RrcEvent(Enum):
    CONNECTION_REQUEST = "ConnectionRequest"
    CONNECTION_RELEASE = "ConnectionRelease"
    SUSPEND_TO_INACTIVE = "SuspendToInactive"
    RESUME_FROM_INACTIVE = "ResumeFromInactive"
    TR_MODE_ENTER = "TrModeEnter"
    TR_MODE_EXIT = "TrModeExit"
    UPLINK_DATA_PENDING = "UplinkDataPending"
    DOWNLINK_DATA_ARRIVAL = "DownlinkDataArrival"
    INACTIVITY_TIMEOUT = "InactivityTimeout"


_TRANSITIONS: dict[tuple[RrcState, RrcEvent], RrcState] = {
    (RrcState.IDLE, RrcEvent.CONNECTION_REQUEST): RrcState.CONNECTED,
    (RrcState.CONNECTED, RrcEvent.CONNECTION_RELEASE): RrcState.IDLE,
    (RrcState.CONNECTED, RrcEvent.SUSPEND_TO_INACTIVE): RrcState.INACTIVE,
    (RrcState.INACTIVE, RrcEvent.RESUME_FROM_INACTIVE): RrcState.CONNECTED,
    (RrcState.INACTIVE, RrcEvent.INACTIVITY_TIMEOUT): RrcState.IDLE,
    (RrcState.CONNECTED, RrcEvent.TR_MODE_ENTER): RrcState.ENERGY_EFFICIENT,
    (RrcState.ENERGY_EFFICIENT, RrcEvent.TR_MODE_EXIT): RrcState.CONNECTED,
    (RrcState.ENERGY_EFFICIENT, RrcEvent.UPLINK_DATA_PENDING): RrcState.CONNECTED,
    (RrcState.ENERGY_EFFICIENT, RrcEvent.DOWNLINK_DATA_ARRIVAL): RrcState.ENERGY_EFFICIENT,
}


def transition(state: RrcState, event: RrcEvent) -> RrcState:
    """Total transition function; unlisted pairs keep the current state."""
    return _TRANSITIONS.get((state, event), state)


def uplink_grant_allowed(state: RrcState) -> bool:
    """Uplink grants are issued in Connected only."""
    return state is RrcState.CONNECTED


def check_reachability() -> str:
    """The `rrc-check` report: every (state, event) pair and where it leads,
    the shortest event path from Idle to each state (or `unreachable`), the
    states that allow an uplink grant, and the events that take
    EnergyEfficient to one. It shows that every state is reachable from Idle
    and that no uplink grant is available from EnergyEfficient without first
    reaching Connected.
    """
    lines = [f"transition-table entries={len(RrcState) * len(RrcEvent)}"]
    for state in RrcState:
        for event in RrcEvent:
            nxt = transition(state, event)
            suffix = " self" if nxt is state else ""
            lines.append(f"{state.value} {event.value} -> {nxt.value}{suffix}")

    # BFS for shortest event paths from Idle
    paths: dict[RrcState, tuple[RrcEvent, ...]] = {RrcState.IDLE: ()}
    queue = deque([RrcState.IDLE])
    while queue:
        state = queue.popleft()
        for event in RrcEvent:
            nxt = transition(state, event)
            if nxt not in paths:
                paths[nxt] = paths[state] + (event,)
                queue.append(nxt)
    for state in RrcState:
        path = paths.get(state)
        via = "unreachable" if path is None else "via=" + ",".join(e.value for e in path)
        lines.append(f"reachable-from-Idle {state.value} {via}")

    ee = RrcState.ENERGY_EFFICIENT
    lines += [
        "grant-allowed " + ",".join(s.value for s in RrcState if uplink_grant_allowed(s)),
        f"ee-grant-blocked {str(not uplink_grant_allowed(ee)).lower()}",
        "ee-to-grant-events " + ",".join(
            e.value for e in RrcEvent if uplink_grant_allowed(transition(ee, e))
        ),
    ]
    return "\n".join(lines)
