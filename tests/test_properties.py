"""Property tests: config files round-trip, batch plans tile the symbols."""

from __future__ import annotations

import argparse
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ofdm_spm import Policy, SimConfig  # noqa: E402
from ofdm_spm.cli import _build_config  # noqa: E402
from ofdm_spm.harness import _batch_plan  # noqa: E402

FEW = settings(max_examples=40, deadline=None)


@st.composite
def sim_configs(draw):
    fft_size = 2 ** draw(st.integers(1, 10))
    policy = draw(st.sampled_from(list(Policy)))
    # a valid H satisfies budget/2 < H^2 < budget; keep clear of both ends
    budget = policy.budget
    high = draw(st.none() | st.floats(1.001 * (budget / 2) ** 0.5, 0.999 * budget**0.5))
    channel = draw(st.sampled_from(["multipath", "flat", "identity"]))
    # tap delays strictly increasing from 0, the last one below fft_size
    taps = draw(st.integers(1, min(fft_size, 6)))
    widest = max(1, min(3, (fft_size - 1) // max(taps - 1, 1)))
    gaps = draw(st.lists(st.integers(1, widest), min_size=taps - 1, max_size=taps - 1))
    delays = tuple(sum(gaps[:i]) for i in range(taps))
    cp_floor = delays[-1] if channel == "multipath" else 0
    return SimConfig(
        fft_size=fft_size,
        data_subcarriers=draw(st.integers(1, fft_size)),
        cp_len=draw(st.integers(cp_floor, fft_size - 1)),
        ofdm_symbols=draw(st.integers(1, 10**6)),
        policy=policy,
        high_factor=high,
        snr_db_grid=tuple(draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=5))),
        channel_mode=channel,
        delays=delays,
        powers_db=tuple(draw(st.lists(st.floats(-60.0, 20.0), min_size=taps,
                                      max_size=taps))),
        coherence_block=draw(st.integers(1, 64)),
        master_seed=draw(st.integers(0, 2**63)),
        snr_convention=draw(st.sampled_from(["subcarrier", "per_bit"])),
        batch_symbols=draw(st.integers(1, 10**5)),
        workers=draw(st.integers(1, 8)),
    )


def _config_text(cfg: SimConfig) -> str:
    def text(value):
        if isinstance(value, Policy):
            return value.value
        if isinstance(value, str):
            return value
        if isinstance(value, tuple):
            return ", ".join(text(v) for v in value)
        return repr(value)

    lines = []
    for name in SimConfig.__dataclass_fields__:
        value = getattr(cfg, name)
        if value is not None:  # None means "use the default", which is not writable
            lines.append(f"{name} = {text(value)}")
    return "\n".join(lines) + "\n"


@FEW
@given(sim_configs())
def test_config_file_round_trip(cfg):
    # _build_config reads the file through _load_config_file
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.cfg")
        with open(path, "w") as handle:
            handle.write(_config_text(cfg))
        assert _build_config(argparse.Namespace(config=path)) == cfg


@FEW
@given(st.integers(1, 10**5), st.integers(1, 5000), st.integers(1, 300))
def test_batch_plan_tiles_the_symbols(total, batch, block):
    plan = list(_batch_plan(total, batch, block))
    assert [index for index, _ in plan] == list(range(len(plan)))
    counts = [count for _, count in plan]
    assert sum(counts) == total
    assert all(count > 0 for count in counts)
    assert all(count % block == 0 for count in counts[:-1])
