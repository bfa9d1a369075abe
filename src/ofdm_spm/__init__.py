"""OFDM with subcarrier power modulation: modem, channel, analysis, harness."""

from .analysis import (
    BerBreakdown,
    ber_breakdown,
    rayleigh_bpsk_ber,
    throughput,
)
from .channel import (
    ChannelProfile,
    add_awgn,
    apply_channel,
    channel_frequency_response,
    draw_taps,
)
from .core import (
    DEFAULT_HIGH_FACTOR,
    Policy,
    PowerPair,
    SubcarrierLayout,
    constellation_point,
    detection_threshold,
    map_bpsk,
    power_pair_for,
    reference_pair,
)
from .harness import (
    CSV_COLUMNS,
    SimConfig,
    SweepRecord,
    monte_carlo_objective,
    run_baseline_ofdm_bpsk,
    run_sweep,
    write_csv,
)
from .optimize import ScanResult, mean_ber_objective, scan_levels
from .rx import detect_bpsk_bit, detect_power_bit, equalize_symbols, ofdm_demodulate
from .tx import ofdm_modulate

__version__ = "0.1.0"
