"""Simulation harness: config validation, determinism, accuracy, CSV output."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import io
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ofdm_spm import (
    CSV_COLUMNS,
    Policy,
    SimConfig,
    ber_breakdown,
    channel_frequency_response,
    draw_taps,
    monte_carlo_objective,
    power_pair_for,
    rayleigh_bpsk_ber,
    reference_pair,
    run_baseline_ofdm_bpsk,
    run_sweep,
    scan_levels,
    write_csv,
)
from conftest import expand_blocks
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

    @pytest.mark.parametrize(
        "name, low",
        [("ofdm_symbols", 1), ("coherence_block", 1), ("batch_symbols", 1), ("workers", 1),
         ("master_seed", 0)],
    )
    def test_lower_bound_error_is_one_line(self, name, low):
        SimConfig(**{name: low})
        for value in (low - 1, np.int64(low - 5)):
            message = rf"^{name} must be >= {low}, got {int(value)}$"
            with pytest.raises(ValueError, match=message):
                SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, choices",
        [("channel_mode", "('multipath', 'flat', 'identity')"),
         ("snr_convention", "('subcarrier', 'per_bit')")],
    )
    def test_choice_error_is_one_line(self, name, choices):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be one of {re.escape(choices)}, got 'bogus'$"):
            SimConfig(**{name: "bogus"})

    def test_policy_error_is_one_line(self):
        with pytest.raises(ValueError, match=r"^policy must be a Policy, got 'saving'$"):
            SimConfig(policy="saving")

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(ofdm_symbols=np.int64(10), master_seed=np.uint32(3))
        assert _point(cfg, 10.0).bits_counted == 2 * 52 * 10

    @pytest.mark.parametrize("name, value", [("ofdm_symbols", np.int16(5000)),
                                             ("coherence_block", np.int8(1)),
                                             ("ofdm_symbols", np.uint8(200))])
    def test_narrow_numpy_integers_are_stored_as_int(self, name, value):
        # stored as given, these overflowed the unit and bit-count arithmetic
        flat = dict(channel_mode="flat", snr_db_grid=(10.0,))
        cfg = SimConfig(**flat, **{name: value})
        assert type(getattr(cfg, name)) is int
        out, twin = io.StringIO(), io.StringIO()
        write_csv(run_sweep(cfg), out)
        write_csv(run_sweep(SimConfig(**flat, **{name: int(value)})), twin)
        assert out.getvalue() == twin.getvalue()

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

    def test_underflow_names_the_given_snr(self):
        # 10^(-4000/10) underflows to a linear SNR of 0; the error names -4000
        with pytest.raises(ValueError, match=r"snr_db = -4000\.0 is not simulatable"):
            SimConfig().noise_density(-4000, None)

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


class TestBlockFading:
    @pytest.mark.parametrize("block, count", [(2, 7), (3, 9), (5, 3), (10**5, 100)])
    def test_expand_blocks_repeats_each_draw_over_its_block(self, block, count):
        per_block = np.arange(-(-count // block) * 2).reshape(-1, 2)
        expanded = expand_blocks(per_block, block, count)
        np.testing.assert_array_equal(expanded, np.repeat(per_block, block, axis=0)[:count])

    @pytest.mark.parametrize("channel_mode", ["flat", "multipath"])
    def test_memory_follows_the_symbols_not_the_block(self, channel_mode):
        # 100 symbols in one block of 10**5: repeating the draw over the whole
        # block before cutting it to 100 rows would allocate about 83 MB
        cfg = _tiny(channel_mode=channel_mode, ofdm_symbols=100, coherence_block=10**5)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestTiles:
    """A run is tiled into units of _UNIT_ROWS rows, in whole coherence
    blocks; each unit is one seeded draw, so neither batch_symbols nor the
    worker count changes a byte of the output."""

    # 2100 symbols are 3 units at every block below, the first two whole
    FIELDS = dict(ofdm_symbols=2100, snr_db_grid=(0.0, 10.0, INF), master_seed=4)

    @pytest.mark.parametrize("block", [1, 3, 16])
    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    def test_batch_symbols_and_workers_do_not_change_the_csv(self, channel_mode, block,
                                                              monkeypatch):
        monkeypatch.setattr(rx, "GAIN_FLOOR", 0.3)  # some bins erased on the fading channels
        scan = [power_pair_for(Policy.REALLOC_OPTIMIZED, h) for h in (1.5, 1.7, 1.9)]
        outputs = []
        for batch in (1, 130, 2048, self.FIELDS["ofdm_symbols"]):
            for workers in (1, 2):
                cfg = SimConfig(channel_mode=channel_mode, coherence_block=block,
                                batch_symbols=batch, workers=workers, **self.FIELDS)
                buf = io.StringIO()
                write_csv(run_sweep(cfg) + run_baseline_ofdm_bpsk(cfg), buf)
                outputs.append((buf.getvalue(), monte_carlo_objective(cfg)(scan)))
        assert len(harness._units(cfg.ofdm_symbols, block)) == 3
        assert all(output == outputs[0] for output in outputs)

    # (streams, fields): the SPM draw, the baseline's one-stream draw, and a
    # last unit of 53 x 2 x 51 bits (55 x 2 x 51 at block 3), which is not a
    # whole number of bytes
    LAYOUTS = [(2, {}), (1, {}), (2, dict(data_subcarriers=51, ofdm_symbols=2101))]

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    def test_a_unit_is_one_seeded_draw(self, channel_mode, block, monkeypatch):
        # bits unpacked from random bytes, then |H|, then one noise fill of
        # the whole unit
        monkeypatch.setattr(rx, "GAIN_FLOOR", 0.3)
        for streams, fields in self.LAYOUTS:
            cfg = SimConfig(channel_mode=channel_mode, coherence_block=block,
                            **{**self.FIELDS, **fields})
            index, count = harness._units(cfg.ofdm_symbols, block)[-1]
            bits, z = harness._draws(cfg, streams, (index, count))

            layout = cfg.layout()
            n, blocks = layout.n, -(-count // block)
            size = count * streams * n
            rng = np.random.default_rng([cfg.master_seed, index])
            unit_bits = np.unpackbits(np.frombuffer(rng.bytes(-(-size // 8)), np.uint8),
                                      count=size)
            magnitude = np.ones((count, n))
            if channel_mode == "flat":
                gains = rng.rayleigh(math.sqrt(0.5), size=(blocks, n))
                magnitude = expand_blocks(gains, block, count)
            elif channel_mode == "multipath":
                taps = draw_taps(cfg.profile(), blocks, rng)
                response = channel_frequency_response(taps, cfg.fft_size)[:, layout.data_bins]
                magnitude = np.abs(expand_blocks(response, block, count))
            noise = rng.standard_normal((count, n))
            erased = magnitude < rx.GAIN_FLOOR
            assert bits.dtype == np.int8 and (size % 8 != 0) == (n == 51)
            np.testing.assert_array_equal(bits, unit_bits.reshape(count, streams, n))
            np.testing.assert_array_equal(z, np.where(erased, np.nan, noise / magnitude))
            assert erased.any() == (channel_mode != "identity")

    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    def test_a_batch_holds_no_whole_batch_noise_array(self, channel_mode):
        # 8192 symbols at batch_symbols 8192: the bits, fading, noise, |H|
        # and erasures of one unit at a time, never a (count, n) array of
        # the whole run
        cfg = SimConfig(channel_mode=channel_mode, ofdm_symbols=8192, batch_symbols=8192,
                        master_seed=1)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8192 * 52 * 16  # one complex (count, n) array, 6.8 MB


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
    def test_point_equals_its_sweep_row(self, channel_mode, monkeypatch):
        # every point shares each unit's draw, so a point is its sweep row
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        cfg = _tiny(channel_mode=channel_mode, ofdm_symbols=600,
                    snr_db_grid=(5.0, 10.0, 15.0, INF), master_seed=3)
        sweep, baseline = run_sweep(cfg), run_baseline_ofdm_bpsk(cfg)
        assert [r.snr_db for r in sweep] == [5.0, 10.0, 15.0, INF]
        for i, s in enumerate(cfg.snr_db_grid):
            assert _point(cfg, s) == sweep[i]
            assert _baseline_point(cfg, s) == baseline[i]  # the NaN cells are math.nan

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(harness, "_UNIT_ROWS", 128)
        small = dict(
            channel_mode="flat",
            ofdm_symbols=400,
            snr_db_grid=(5.0, 15.0),
            master_seed=9,
        )
        serial = run_sweep(SimConfig(**small))
        parallel = run_sweep(SimConfig(workers=2, **small))
        assert serial == parallel

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # a state shared between units, such as one generator, would
        # show as counts that depend on how the threads interleave
        monkeypatch.setattr(harness, "_UNIT_ROWS", 64)
        fields = dict(ofdm_symbols=1200, snr_db_grid=(0.0, 10.0), master_seed=9)
        serial = run_baseline_ofdm_bpsk(SimConfig(**fields)), run_sweep(SimConfig(**fields))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cfg = SimConfig(workers=8, **fields)
            parallel = run_baseline_ofdm_bpsk(cfg), run_sweep(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial

    @pytest.mark.parametrize("symbols, started", [(400, [2]), (100, [])], ids=["two", "one"])
    def test_pool_has_no_more_workers_than_batches(self, symbols, started, monkeypatch):
        pools = []

        class InlinePool:
            """Records the pool size and runs each task at submit, on the calling thread."""

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

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        small = dict(channel_mode="flat", ofdm_symbols=symbols, master_seed=9)
        assert _point(SimConfig(workers=8, **small), 10.0) == _point(SimConfig(**small), 10.0)
        assert pools == started

    def test_one_worker_runs_every_batch_on_the_calling_thread(self, monkeypatch):
        # a traced benchmark round keeps one span stack, so at workers=1 no
        # program code may run on a second thread or in a second process
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a pool")

        def no_thread(*args, **kwargs):
            raise AssertionError("workers=1 started a thread")

        threads = []
        error_counts = harness._error_counts

        def recording(*args):
            threads.append(threading.get_ident())
            return error_counts(*args)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(harness, "_error_counts", recording)
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        cfg = SimConfig(channel_mode="multipath", ofdm_symbols=600, snr_db_grid=(0.0, 10.0),
                        master_seed=5)
        run_sweep(cfg)
        assert len(threads) == 3  # one call per 256-symbol unit
        run_baseline_ofdm_bpsk(cfg)
        assert len(threads) == 6
        res = scan_levels(Policy.POWER_SAVING, objective=monte_carlo_objective(cfg))
        assert len(threads) == 6 + 3 * res.trace_high.size
        assert set(threads) == {threading.get_ident()}

    def test_partial_last_batch_counts_all_bits(self):
        cfg = _tiny(channel_mode="flat", ofdm_symbols=1500)
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

    @pytest.mark.parametrize("floor", [0.3, 1.0])
    def test_flat_erasures_follow_the_rayleigh_law(self, floor, monkeypatch):
        # |CN(0, 1)| is Rayleigh of scale sqrt(1/2): P(|H| < r) = 1 - exp(-r^2),
        # and each flat bin is erased on its own
        monkeypatch.setattr(rx, "GAIN_FLOOR", floor)
        cfg = SimConfig(channel_mode="flat", ofdm_symbols=3000, master_seed=9)
        erased = np.concatenate([np.isnan(harness._draws(cfg, 2, unit)[1]).ravel()
                                 for unit in harness._units(cfg.ofdm_symbols, 1)])
        p = 1.0 - math.exp(-floor**2)
        assert abs(erased.mean() - p) <= 5.0 * math.sqrt(p * (1.0 - p) / erased.size)

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
             snr_convention="per_bit", coherence_block=4, snr_db_grid=(0.0, 10.0),
             ofdm_symbols=700),
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
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)  # several units per run
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
            bits, z = draws(*args)
            rows.append(z.shape[0])
            return bits, z

        monkeypatch.setattr(harness, "_draws", counting)
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        cfg = SimConfig(ofdm_symbols=600, snr_db_grid=(0.0, 10.0))
        objective = monte_carlo_objective(cfg)
        assert rows == []  # the factory draws nothing; each call draws its units
        res = scan_levels(Policy.POWER_SAVING, objective=objective)
        assert res.trace_high.size == 37
        assert rows == [256, 256, 88]

    def test_links_are_built_once_per_run(self, monkeypatch):
        # a scan's scorer is built before its first draw, not again in each unit
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        cfg = SimConfig(ofdm_symbols=600, snr_db_grid=(0.0, 10.0), master_seed=3)
        assert len(harness._units(600, 1)) == 3
        plain = scan_levels(Policy.POWER_SAVING, objective=monte_carlo_objective(cfg))
        pairs = []
        link = harness._link

        def recording(pair):
            pairs.append(pair)
            return link(pair)

        monkeypatch.setattr(harness, "_link", recording)
        res = scan_levels(Policy.POWER_SAVING, objective=monte_carlo_objective(cfg))
        assert [pair.high for pair in pairs] == res.trace_high.tolist()
        assert res.trace_objective.tolist() == plain.trace_objective.tolist()
        assert res.trace_high.tolist() == plain.trace_high.tolist()

    def test_workers_share_one_pool_and_the_trace(self, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        fields = dict(ofdm_symbols=600, snr_db_grid=(0.0, 10.0, 20.0), master_seed=2)
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
        # each unit is scored for every candidate on a pool thread, so the
        # calling thread only sums counts
        calls = []
        error_counts = harness._error_counts

        def recording(*args):
            calls.append(threading.get_ident())
            return error_counts(*args)

        monkeypatch.setattr(harness, "_error_counts", recording)
        monkeypatch.setattr(harness, "_UNIT_ROWS", 256)
        fields = dict(ofdm_symbols=600, snr_db_grid=(0.0, 10.0, 20.0), master_seed=2)
        serial = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(**fields))
        )
        assert len(calls) == 3 * serial.trace_high.size
        calls.clear()
        parallel = scan_levels(
            Policy.POWER_SAVING, objective=monte_carlo_objective(SimConfig(workers=2, **fields))
        )
        assert threading.get_ident() not in calls
        assert len(calls) == 3 * serial.trace_high.size
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
