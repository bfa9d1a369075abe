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
    default_profile,
    draw_flat_rayleigh,
    draw_taps,
    make_profile,
)
from .core import (
    DEFAULT_HIGH_FACTOR,
    Policy,
    PowerPair,
    SubcarrierLayout,
    constellation_point,
    default_layout,
    detection_threshold,
    map_bpsk,
    power_pair_for,
)
from .harness import (
    CSV_COLUMNS,
    SimConfig,
    SweepRecord,
    monte_carlo_objective,
    run_baseline_ofdm_bpsk,
    run_baseline_point,
    run_point,
    run_sweep,
    write_csv,
)
from .optimize import ScanResult, mean_ber_objective, reference_pair, scan_levels
from .rx import detect_bpsk_bit, detect_power_bit, equalize_symbols, ofdm_demodulate
from .tx import ofdm_modulate

__version__ = "0.1.0"
