"""trsim: deterministic single-cell link simulator with a half-duplex
low-radiation device mode (TR), NR-style frame structures, an extended
RRC state machine, and EM exposure / outage / complexity metrics."""

__version__ = "0.1.0"
