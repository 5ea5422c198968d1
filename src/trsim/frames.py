"""Radio frame construction.

A frame is 10 subframes of 1 ms; each subframe holds `slots_per_subframe`
slots as set by the numerology (15 kHz * 2^mu subcarrier spacing gives
2^mu slots per subframe).

FDD uses a downlink/uplink frame pair. The uplink frame carries a
frequency-switching subframe whose state slot reads 0 (uplink running) or
1 (uplink stopped); while it reads 1 every other uplink subframe is
silenced to guard slots.

TDD uses a single frame built from a 10-entry direction pattern with
exactly one superframe position. The superframe's toggle slot is Hold
(uplink suppressed, no DL->UL switching) or Release (conventional
operation); with Hold active every uplink subframe is silenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .schema import MU

SUBFRAMES_PER_FRAME = 10


class SlotKind(Enum):
    # values double as the single-character dump codes
    DOWNLINK = "D"
    UPLINK = "U"
    GUARD = "G"
    FREQ_SWITCH0 = "0"
    FREQ_SWITCH1 = "1"
    HOLD = "H"
    RELEASE = "R"


class Duplex(Enum):
    FDD_DOWNLINK = "fdd-downlink"
    FDD_UPLINK = "fdd-uplink"
    TDD = "tdd"


@dataclass(frozen=True)
class Numerology:
    mu: int
    subcarrier_spacing_khz: float
    slots_per_subframe: int


def make_numerology(mu: int) -> Numerology:
    """Numerology mu in schema.MU: spacing 15 * 2^mu kHz, 2^mu slots/subframe."""
    if not MU[0] <= mu <= MU[1]:
        raise ValueError(f"mu must be in [{MU[0]}, {MU[1]}], got {mu}")
    return Numerology(
        mu=mu,
        subcarrier_spacing_khz=15.0 * 2**mu,
        slots_per_subframe=2**mu,
    )


@dataclass(frozen=True)
class RadioFrame:
    duplex: Duplex
    subframes: tuple[tuple[SlotKind, ...], ...]
    tr_active: bool


def _frame(
    duplex: Duplex, entries: Sequence[str], toggle: SlotKind, tr_active: bool, n: int
) -> RadioFrame:
    """One subframe of `n` slots per 'D'/'U'/'S' entry. 'U' is guard with TR
    active; 'S' is the `toggle` state slot followed by guard."""
    subframe = {
        "D": (SlotKind.DOWNLINK,) * n,
        "U": (SlotKind.GUARD if tr_active else SlotKind.UPLINK,) * n,
        "S": (toggle,) + (SlotKind.GUARD,) * (n - 1),
    }
    return RadioFrame(duplex, tuple(subframe[e] for e in entries), tr_active)


def build_fdd_pair(
    num: Numerology,
    tr_active: bool,
    switch_subframe: int = 0,
) -> tuple[RadioFrame, RadioFrame]:
    """Build the FDD downlink/uplink frame pair.

    The downlink frame is all downlink slots regardless of the TR flag.
    The uplink frame holds the frequency-switching subframe at
    `switch_subframe`; its state slot is FREQ_SWITCH1 with TR active (all
    other subframes silenced to guard) and FREQ_SWITCH0 otherwise (other
    subframes carry uplink).
    """
    if not 0 <= switch_subframe < SUBFRAMES_PER_FRAME:
        raise ValueError(
            f"switch_subframe must be in [0, {SUBFRAMES_PER_FRAME - 1}],"
            f" got {switch_subframe}"
        )
    n = num.slots_per_subframe
    state = SlotKind.FREQ_SWITCH1 if tr_active else SlotKind.FREQ_SWITCH0
    ul_entries = ["U"] * SUBFRAMES_PER_FRAME
    ul_entries[switch_subframe] = "S"
    return (
        _frame(Duplex.FDD_DOWNLINK, "D" * SUBFRAMES_PER_FRAME, state, tr_active, n),
        _frame(Duplex.FDD_UPLINK, ul_entries, state, tr_active, n),
    )


def parse_pattern(dl_ul_pattern: Sequence[str] | str) -> tuple[str, ...]:
    entries = tuple(dl_ul_pattern)
    if len(entries) != SUBFRAMES_PER_FRAME:
        raise ValueError(
            f"pattern must have {SUBFRAMES_PER_FRAME} entries, got {len(entries)}"
        )
    bad = sorted({e for e in entries if e not in ("D", "U", "S")})
    if bad:
        raise ValueError(f"pattern entries must be 'D', 'U' or 'S', got {bad}")
    n_super = entries.count("S")
    if n_super != 1:
        raise ValueError(
            f"pattern must mark exactly one superframe position 'S', got {n_super}"
        )
    return entries


def build_tdd_frame(
    num: Numerology,
    dl_ul_pattern: Sequence[str] | str,
    tr_active: bool,
) -> RadioFrame:
    """Build a TDD frame from a 10-entry 'D'/'U'/'S' pattern.

    With TR active the superframe's toggle slot is Hold and every 'U'
    subframe is silenced to guard; otherwise the toggle slot is Release
    and the pattern is emitted as given.
    """
    toggle = SlotKind.HOLD if tr_active else SlotKind.RELEASE
    return _frame(
        Duplex.TDD, parse_pattern(dl_ul_pattern), toggle, tr_active, num.slots_per_subframe
    )


def frame_dump(frame: RadioFrame) -> str:
    """One line per subframe, slots as single-character codes."""
    return "\n".join("".join(slot.value for slot in sf) for sf in frame.subframes)
