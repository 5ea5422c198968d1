"""trsim: deterministic single-cell link simulator with a half-duplex
low-radiation device mode (TR), NR-style frame structures, an extended
RRC state machine, and EM exposure / outage / complexity metrics."""

__version__ = "0.1.0"

from .channel import (
    draw_fading_gain,
    free_space_path_loss,
    outage_analytic,
    outage_monte_carlo,
)
from .exposure import (
    ExposureReport,
    ExposureStandard,
    FrequencyBand,
    UnmappedBandError,
    complexity_metric,
    e_field_from_density,
    network_exposure,
    power_density,
)
from .frames import (
    Duplex,
    Numerology,
    RadioFrame,
    SlotKind,
    build_fdd_pair,
    build_tdd_frame,
    frame_dump,
    make_numerology,
    slot_census,
    validate_frame,
)
from .rrc import (
    ReachabilityReport,
    RrcEvent,
    RrcState,
    check_reachability,
    transition,
    uplink_grant_allowed,
)
from .sim import (
    ConfigError,
    Devices,
    DeviceSpec,
    GenerationScenario,
    ScenarioConfig,
    SimResult,
    generation_power_density_series,
    iter_run,
    outage_curve,
    run_scenario,
)
from .trmode import Mode, ServiceClass, evaluate_switch, service_admitted, uplink_enabled

__all__ = [
    "ConfigError",
    "DeviceSpec",
    "Devices",
    "Duplex",
    "ExposureReport",
    "ExposureStandard",
    "FrequencyBand",
    "GenerationScenario",
    "Mode",
    "Numerology",
    "RadioFrame",
    "ReachabilityReport",
    "RrcEvent",
    "RrcState",
    "ScenarioConfig",
    "ServiceClass",
    "SimResult",
    "SlotKind",
    "UnmappedBandError",
    "build_fdd_pair",
    "build_tdd_frame",
    "check_reachability",
    "complexity_metric",
    "draw_fading_gain",
    "e_field_from_density",
    "evaluate_switch",
    "frame_dump",
    "free_space_path_loss",
    "generation_power_density_series",
    "iter_run",
    "make_numerology",
    "network_exposure",
    "outage_analytic",
    "outage_curve",
    "outage_monte_carlo",
    "power_density",
    "run_scenario",
    "service_admitted",
    "slot_census",
    "transition",
    "uplink_enabled",
    "uplink_grant_allowed",
    "validate_frame",
]
