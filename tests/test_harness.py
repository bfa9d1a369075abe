"""Simulation harness: config validation, determinism, accuracy, CSV output."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import io
import math

import numpy as np
import pytest

from ofdm_spm import (
    CSV_COLUMNS,
    Policy,
    SimConfig,
    ber_breakdown,
    monte_carlo_objective,
    rayleigh_bpsk_ber,
    reference_pair,
    run_baseline_ofdm_bpsk,
    run_sweep,
    scan_levels,
    write_csv,
)
from ofdm_spm import harness, rx
from ofdm_spm.harness import CHANNEL_MODES

INF = float("inf")


def _point(cfg, snr_db, run=run_sweep):
    """The one-row sweep at snr_db, which is what simulate runs."""
    (record,) = run(dataclasses.replace(cfg, snr_db_grid=(snr_db,)))
    return record


def _baseline_point(cfg, snr_db):
    return _point(cfg, snr_db, run_baseline_ofdm_bpsk)


def _tiny(**kw):
    base = dict(ofdm_symbols=300, snr_db_grid=(10.0,), channel_mode="identity")
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.fft_size == 64
        assert cfg.data_subcarriers == 52
        assert cfg.pair().high == 1.35

    @pytest.mark.parametrize(
        "kw",
        [
            dict(fft_size=48),
            dict(fft_size=0),
            dict(data_subcarriers=0),
            dict(data_subcarriers=65),
            dict(powers_db=(0.0, math.inf, -17.0, -21.0, -25.0)),
            dict(ofdm_symbols=0),
            dict(snr_db_grid=()),
            dict(channel_mode="awgn"),
            dict(snr_convention="per_symbol"),
            dict(coherence_block=0),
            dict(batch_symbols=0),
            dict(workers=0),
            dict(master_seed=-1),
            dict(master_seed=1.5),
            dict(high_factor=1.45),
            dict(policy=Policy.REALLOC_OPTIMIZED, high_factor=1.0),
            dict(delays=(1, 3), powers_db=(0.0, -3.0)),
            dict(snr_db_grid=(0.0, math.nan)),
            dict(ofdm_symbols=10.5),
            dict(batch_symbols=2.5),
            dict(master_seed=True),
            dict(workers=1.5),
            dict(coherence_block=2.0),
            dict(fft_size=64.0),
            dict(data_subcarriers=52.0),
            dict(snr_db_grid=(0.0, 4000.0)),
            dict(policy="saving"),
            dict(high_factor="auto"),
            dict(high_factor="1.3"),
            dict(delays=(0, 3, 5, 6, 64)),
            dict(fft_size=8, data_subcarriers=6),
            dict(high_factor=np.float32(1.45)),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_integer_error_is_one_line(self):
        with pytest.raises(ValueError, match=r"^ofdm_symbols must be an integer, got 10\.5$"):
            SimConfig(ofdm_symbols=10.5)

    def test_policy_error_is_one_line(self):
        with pytest.raises(ValueError, match=r"^policy must be a Policy, got 'saving'$"):
            SimConfig(policy="saving")

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(ofdm_symbols=np.int64(10), master_seed=np.uint32(3))
        assert _point(cfg, 10.0).bits_counted == 2 * 52 * 10

    def test_delay_spread_must_fit_the_fft(self):
        too_long = dict(fft_size=8, data_subcarriers=6, delays=(0, 3, 5, 6, 8))
        with pytest.raises(ValueError, match=r"^delay spread 8 does not fit an FFT of size 8$"):
            SimConfig(**too_long, channel_mode="multipath")
        # The same sizes are fine when the channel has no memory.
        SimConfig(**too_long, channel_mode="flat")

    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    def test_malformed_delays_rejected_on_every_mode(self, channel_mode):
        # the profile is built on every mode, so flat and identity check it too
        with pytest.raises(ValueError) as info:
            SimConfig(channel_mode=channel_mode, delays=(5, 3), powers_db=(0.0,))
        assert str(info.value) == "delays and powers_db must be 1-D and equally long"

    def test_default_high_factor_follows_policy(self):
        assert SimConfig(policy=Policy.REALLOC_OPTIMIZED).pair().high == 1.918
        assert SimConfig(policy=Policy.POWER_SAVING, high_factor=1.2).pair().high == 1.2
        # a float32 H is squared as a float, so the pair still meets the budget
        assert SimConfig(high_factor=np.float32(1.3)).pair().high == float(np.float32(1.3))


class TestNoiseDensity:
    def test_subcarrier_convention(self):
        cfg = SimConfig()
        assert cfg.noise_density(10.0, cfg.pair()) == pytest.approx(0.1)
        assert cfg.noise_density(0.0, cfg.pair()) == pytest.approx(1.0)
        assert cfg.noise_density(INF, cfg.pair()) == 0.0

    def test_per_bit_convention(self):
        cfg = SimConfig(snr_convention="per_bit")
        # Saving budget 2 spreads over two bits: Eb = 1/2.
        assert cfg.noise_density(10.0, cfg.pair()) == pytest.approx(0.05)
        opt = SimConfig(policy=Policy.REALLOC_OPTIMIZED, snr_convention="per_bit")
        assert opt.noise_density(10.0, opt.pair()) == pytest.approx(0.1)
        # Baseline carries no pair: Eb = 1.
        assert cfg.noise_density(10.0, None) == pytest.approx(0.1)

    def test_negative_infinity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig().noise_density(-INF, None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            SimConfig().noise_density(math.nan, None)

    @pytest.mark.parametrize("run", [
        run_sweep,
        run_baseline_ofdm_bpsk,
        pytest.param(lambda cfg: monte_carlo_objective(cfg)([cfg.pair()]),
                     id="monte_carlo_objective"),
    ])
    def test_negative_infinity_in_a_grid_fails_before_any_point(self, run, monkeypatch):
        # SimConfig keeps -inf (the theory table's zero SNR); simulations reject it up front
        calls = []
        monkeypatch.setattr(harness, "_draws", lambda *args: calls.append(args) or iter(()))
        cfg = SimConfig(ofdm_symbols=10, snr_db_grid=(0.0, 10.0, -INF))
        with pytest.raises(ValueError, match="-inf"):
            run(cfg)
        assert calls == []

    def test_linear_overflow_rejected(self):
        # 10^(4000/10) is past the largest float; +inf stays the noiseless point
        with pytest.raises(ValueError, match="overflows"):
            SimConfig().noise_density(4000.0, None)
        with pytest.raises(ValueError, match="overflows"):
            SimConfig(snr_db_grid=(3082.5, 3082.6))
        assert SimConfig(snr_db_grid=(3082.5, INF)).noise_density(INF, None) == 0.0


class TestNoiselessLoopback:
    @pytest.mark.parametrize(
        "policy",
        [Policy.POWER_SAVING, Policy.REALLOC_NON_OPTIMIZED, Policy.REALLOC_OPTIMIZED],
    )
    def test_identity_channel(self, policy):
        rec = _point(_tiny(policy=policy), INF)
        assert rec.ber_power_sim == 0.0
        assert rec.ber_bpsk_sim == 0.0
        assert rec.throughput == 2.0
        assert rec.ber_total_theory == 0.0

    def test_identity_baseline(self):
        rec = _baseline_point(_tiny(), INF)
        assert rec.ber_bpsk_sim == 0.0
        assert math.isnan(rec.ber_power_sim)
        assert rec.throughput == 1.0

    def test_multipath_channel(self):
        cfg = _tiny(channel_mode="multipath", coherence_block=7, ofdm_symbols=500)
        rec = _point(cfg, INF)
        assert rec.ber_total_sim == 0.0

    def test_flat_channel(self):
        rec = _point(_tiny(channel_mode="flat"), INF)
        assert rec.ber_total_sim == 0.0

    def test_fft_size_above_4096(self):
        cfg = _tiny(fft_size=8192, data_subcarriers=6000, ofdm_symbols=4)
        rec = _point(cfg, INF)
        assert rec.bits_counted == 2 * 6000 * 4
        assert rec.ber_total_sim == 0.0

    def test_erased_bins_decode_as_zero_bits(self, monkeypatch):
        # a floor above |H| = 1 erases every bin: each decision is (0, 0),
        # so about half the bits of either stream are wrong, noise or not
        monkeypatch.setattr(rx, "GAIN_FLOOR", 2.0)
        rec = _point(_tiny(), INF)
        assert 0.45 < rec.ber_power_sim < 0.55 and 0.45 < rec.ber_bpsk_sim < 0.55
        assert 0.45 < _baseline_point(_tiny(), INF).ber_bpsk_sim < 0.55


class TestDeterminism:
    def test_point_repeatable(self):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=1000)
        a = _point(cfg, 10.0)
        b = _point(cfg, 10.0)
        assert a == b

    def test_seed_changes_stream(self):
        a = _point(_tiny(channel_mode="flat", ofdm_symbols=1000, master_seed=1), 10.0)
        b = _point(_tiny(channel_mode="flat", ofdm_symbols=1000, master_seed=2), 10.0)
        assert a.ber_total_sim != b.ber_total_sim

    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    def test_point_equals_its_sweep_row(self, channel_mode):
        # every point shares each batch's draw, so a point is its sweep row
        cfg = _tiny(channel_mode=channel_mode, ofdm_symbols=600, batch_symbols=256,
                    snr_db_grid=(5.0, 10.0, 15.0, INF), master_seed=3)
        sweep, baseline = run_sweep(cfg), run_baseline_ofdm_bpsk(cfg)
        assert [r.snr_db for r in sweep] == [5.0, 10.0, 15.0, INF]
        for i, s in enumerate(cfg.snr_db_grid):
            assert _point(cfg, s) == sweep[i]
            assert _baseline_point(cfg, s) == baseline[i]  # the NaN cells are math.nan

    def test_worker_count_does_not_change_results(self):
        small = dict(
            channel_mode="flat",
            ofdm_symbols=400,
            batch_symbols=128,
            snr_db_grid=(5.0, 15.0),
            master_seed=9,
        )
        serial = run_sweep(SimConfig(**small))
        parallel = run_sweep(SimConfig(workers=2, **small))
        assert serial == parallel

    @pytest.mark.parametrize("symbols, started", [(400, [2]), (100, [])], ids=["two", "one"])
    def test_pool_has_no_more_workers_than_batches(self, symbols, started, monkeypatch):
        pools = []

        class InlinePool:
            """Records the pool size and runs each task at submit, in process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        small = dict(channel_mode="flat", ofdm_symbols=symbols, batch_symbols=256, master_seed=9)
        assert _point(SimConfig(workers=8, **small), 10.0) == _point(SimConfig(**small), 10.0)
        assert pools == started

    def test_partial_last_batch_counts_all_bits(self):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=1500, batch_symbols=1024)
        rec = _point(cfg, 10.0)
        assert rec.bits_counted == 2 * 52 * 1500
        errors = rec.ber_power_sim * rec.bits_counted / 2
        assert errors == pytest.approx(round(errors), abs=1e-6)


class TestAccuracy:
    def test_flat_point_tracks_closed_form(self):
        cfg = SimConfig(
            channel_mode="flat", ofdm_symbols=20_000, snr_db_grid=(10.0,), master_seed=7
        )
        rec = _point(cfg, 10.0)
        bd = ber_breakdown(10.0**1.0, cfg.pair())
        n_bits = 52 * 20_000
        for sim, theory in [(rec.ber_power_sim, bd.ber_power), (rec.ber_bpsk_sim, bd.ber_bpsk)]:
            sigma = math.sqrt(theory * (1 - theory) / n_bits)
            assert abs(sim - theory) < 3 * sigma

    def test_baseline_flat_tracks_closed_form(self):
        cfg = SimConfig(
            channel_mode="flat", ofdm_symbols=20_000, snr_db_grid=(10.0,), master_seed=8
        )
        rec = _baseline_point(cfg, 10.0)
        theory = rayleigh_bpsk_ber(10.0)
        sigma = math.sqrt(theory * (1 - theory) / (52 * 20_000))
        assert abs(rec.ber_bpsk_sim - theory) < 3 * sigma

    def test_theory_columns_match_analysis(self):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=100)
        rec = _point(cfg, 10.0)
        bd = ber_breakdown(10.0, cfg.pair())
        assert rec.ber_power_theory == pytest.approx(bd.ber_power, abs=1e-15)
        assert rec.ber_bpsk_theory == pytest.approx(bd.ber_bpsk, abs=1e-15)
        assert rec.ber_total_theory == pytest.approx(
            0.5 * (rec.ber_power_theory + rec.ber_bpsk_theory), abs=1e-15
        )

    def test_per_bit_theory_shifts_axis(self):
        # Saving budget 2 at 10 dB per-bit equals 13.01 dB per-subcarrier.
        cfg = _tiny(snr_convention="per_bit")
        rec = _point(cfg, 10.0)
        pair = cfg.pair()
        snr_eff = 1.0 / cfg.noise_density(10.0, pair)
        assert snr_eff == pytest.approx(20.0)
        assert rec.ber_power_theory == pytest.approx(
            ber_breakdown(snr_eff, pair).ber_power, abs=1e-15
        )

    def test_record_internal_consistency(self):
        rec = _point(_tiny(channel_mode="flat", ofdm_symbols=800), 5.0)
        assert rec.ber_total_sim == pytest.approx(
            0.5 * (rec.ber_power_sim + rec.ber_bpsk_sim), abs=1e-15
        )
        assert rec.throughput == pytest.approx(
            (1 - rec.ber_power_sim) + (1 - rec.ber_bpsk_sim), abs=1e-15
        )
        assert rec.seed == 0

    def test_baseline_record_shape(self):
        rec = _baseline_point(_tiny(channel_mode="flat", ofdm_symbols=800), 5.0)
        assert math.isnan(rec.ber_power_sim)
        assert math.isnan(rec.ber_power_theory)
        assert rec.bits_counted == 52 * 800  # no power bits
        assert rec.ber_total_sim == rec.ber_bpsk_sim
        assert rec.throughput == pytest.approx(1 - rec.ber_bpsk_sim, abs=1e-15)


class TestCsv:
    def test_schema_and_round_trip(self):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=200, snr_db_grid=(0.0, 10.0))
        recs = run_sweep(cfg)
        buf = io.StringIO()
        write_csv(recs, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4 and lines[-1] == ""
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        # repr round-trips exactly
        assert float(row[3]) == recs[0].ber_total_sim
        assert int(row[8]) == recs[0].bits_counted
        assert int(row[9]) == 0

    def test_baseline_nan_cells(self):
        rec = _baseline_point(_tiny(ofdm_symbols=50), 10.0)
        buf = io.StringIO()
        write_csv([rec], buf)
        row = buf.getvalue().split("\n")[1].split(",")
        assert row[1] == "nan" and row[4] == "nan"

    def test_path_and_handle_agree(self, tmp_path):
        recs = run_sweep(_tiny(channel_mode="flat", ofdm_symbols=100))
        p = tmp_path / "out.csv"
        write_csv(recs, p)
        buf = io.StringIO()
        write_csv(recs, buf)
        assert p.read_text() == buf.getvalue()

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=300, snr_db_grid=(5.0, 10.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), a)
        write_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()


def _per_candidate_objective(cfg):
    """Reference rule for the Monte Carlo objective: a whole sweep per candidate."""

    def score(pair):
        records = run_sweep(dataclasses.replace(cfg, high_factor=pair.high))
        return float(np.mean([r.ber_total_sim for r in records]))

    return lambda pairs: [score(pair) for pair in pairs]


# (scan policy, SimConfig fields); every scan candidate must score exactly
# what the reference rule gives it
SCAN_CASES = {
    "multipath_realloc_opt": (
        Policy.REALLOC_OPTIMIZED,
        dict(policy=Policy.REALLOC_OPTIMIZED, channel_mode="multipath",
             snr_db_grid=(0.0, 10.0, 20.0), ofdm_symbols=300),
    ),
    "flat_saving": (
        Policy.POWER_SAVING,
        dict(channel_mode="flat", snr_db_grid=(0.0, 10.0, 20.0), ofdm_symbols=300),
    ),
    "multipath_per_bit_batches": (
        Policy.REALLOC_OPTIMIZED,
        dict(policy=Policy.REALLOC_OPTIMIZED, channel_mode="multipath",
             snr_convention="per_bit", coherence_block=4, batch_symbols=256,
             snr_db_grid=(0.0, 10.0), ofdm_symbols=700),
    ),
    "identity": (
        Policy.POWER_SAVING,
        dict(channel_mode="identity", snr_db_grid=(0.0, 5.0), ofdm_symbols=300),
    ),
    "flat_erasures": (
        Policy.POWER_SAVING,
        dict(channel_mode="flat", snr_db_grid=(0.0, 10.0, 20.0), ofdm_symbols=300),
    ),
}
# rx.GAIN_FLOOR per case, where not the default: 0.3 erases about 9 % of
# the Rayleigh bins, which both rules must decode as (0, 0)
SCAN_GAIN_FLOORS = {"flat_erasures": 0.3}


class TestMonteCarloObjective:
    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_scan_equals_per_candidate_sweeps(self, case, monkeypatch):
        policy, fields = SCAN_CASES[case]
        monkeypatch.setattr(rx, "GAIN_FLOOR", SCAN_GAIN_FLOORS.get(case, rx.GAIN_FLOOR))
        cfg = SimConfig(master_seed=11, **fields)
        fast = scan_levels(policy, objective=monte_carlo_objective(cfg))
        slow = scan_levels(policy, objective=_per_candidate_objective(cfg))
        assert fast.trace_high.tolist() == slow.trace_high.tolist()
        assert fast.trace_objective.tolist() == slow.trace_objective.tolist()
        assert fast.pair == slow.pair
        assert fast.trace_objective.min() > 0

    def test_chain_runs_once_per_batch(self, monkeypatch):
        # the draws are made once, whatever the number of SNR points and candidates
        rows = []
        draws = harness._draws

        def counting(*args):
            batch = draws(*args)
            rows.append(batch[1].shape[0])
            return batch

        monkeypatch.setattr(harness, "_draws", counting)
        cfg = SimConfig(ofdm_symbols=600, batch_symbols=256, snr_db_grid=(0.0, 10.0))
        objective = monte_carlo_objective(cfg)
        assert rows == []  # the factory draws nothing; each call draws its batches
        res = scan_levels(Policy.POWER_SAVING, objective=objective)
        assert res.trace_high.size == 37
        assert rows == [256, 256, 88]

    def test_workers_share_one_pool_and_the_trace(self, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        fields = dict(ofdm_symbols=600, batch_symbols=256, snr_db_grid=(0.0, 10.0, 20.0),
                      master_seed=2)
        serial = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(**fields))
        )
        assert starts == []
        parallel = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(workers=2, **fields))
        )
        assert starts == [2]
        assert parallel.trace_objective.tolist() == serial.trace_objective.tolist()

    def test_workers_count_the_errors(self, monkeypatch):
        # each batch is scored for every candidate in its worker, so the
        # parent only sums counts
        calls = []
        error_counts = harness._error_counts

        def recording(*args):
            calls.append(args[1])
            return error_counts(*args)

        monkeypatch.setattr(harness, "_error_counts", recording)
        fields = dict(ofdm_symbols=600, batch_symbols=256, snr_db_grid=(0.0, 10.0, 20.0),
                      master_seed=2)
        serial = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(**fields))
        )
        assert len(calls) == 3 * serial.trace_high.size
        calls.clear()
        parallel = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(workers=2, **fields))
        )
        assert calls == []
        assert parallel.trace_objective.tolist() == serial.trace_objective.tolist()

    def test_deterministic_and_plausible(self):
        cfg = SimConfig(
            channel_mode="flat",
            ofdm_symbols=3000,
            snr_db_grid=(5.0, 10.0, 15.0),
            master_seed=4,
        )
        obj = monte_carlo_objective(cfg)
        ref = reference_pair(Policy.POWER_SAVING)
        (v1,), (v2,) = obj([ref]), obj([ref])
        assert v1 == v2
        closed = np.mean([ber_breakdown(10 ** (s / 10), ref).ber_total for s in cfg.snr_db_grid])
        assert v1 == pytest.approx(closed, rel=0.15)

    def test_feeds_scan(self):
        cfg = SimConfig(
            channel_mode="flat", ofdm_symbols=600, snr_db_grid=(10.0,), master_seed=4
        )
        res = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(cfg), h_step=0.05
        )
        assert 1.05 <= res.pair.high < 1.42
