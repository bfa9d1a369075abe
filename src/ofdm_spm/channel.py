"""Rayleigh multipath channel: tap profiles, random realizations, AWGN.

The tap gains are circular-symmetric complex Gaussians whose variances
follow a delay/power profile normalized to unit total power, so the
per-subcarrier frequency response has E|H_k|^2 = 1 and plain Rayleigh
statistics on every bin. A flat i.i.d. per-subcarrier mode is also
provided as the statistical reference case for the closed-form curves.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Power-delay profile, validated and normalized on construction.

    Delays are integer sample offsets, strictly increasing from a first
    tap at 0. powers_db are finite relative dB values; the absolute scale
    is irrelevant, so only the linear powers renormalized to sum(p_k) = 1
    are kept, as powers.
    """

    delays: np.ndarray = field(repr=False)
    powers_db: InitVar[tuple]
    powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, powers_db):
        d = np.asarray(self.delays)
        p_db = np.asarray(powers_db, dtype=np.float64)
        if d.ndim != 1 or p_db.ndim != 1 or d.size != p_db.size:
            raise ValueError("delays and powers_db must be 1-D and equally long")
        if d.size == 0:
            raise ValueError("profile needs at least one tap")
        if not np.isfinite(p_db).all():
            raise ValueError(f"powers_db must be finite, got {tuple(p_db.tolist())}")
        # Python floats overflow to inf quietly, where numpy's would warn
        if np.isinf(p_db.max().item() - p_db.min().item()):
            raise ValueError(f"powers_db spread overflows, got {tuple(p_db.tolist())}")
        # numeric, whole and well inside intp, so the cast neither warns nor wraps
        if d.dtype.kind not in "iuf" or not np.all(
                (-2**62 < d) & (d < 2**62) & (d == np.round(d))):
            raise ValueError("delays must be integer sample offsets")
        d = d.astype(np.intp)
        if d[0] != 0:
            raise ValueError(f"first delay must be 0, got {d[0]}")
        if np.any(np.diff(d) <= 0):
            raise ValueError("delays must be strictly increasing")
        lin = 10.0 ** ((p_db - p_db.max()) / 10.0)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "powers", lin / lin.sum())

    @property
    def max_delay(self) -> int:
        return int(self.delays[-1])


def _complex_normal(shape, rng) -> np.ndarray:
    """Complex samples whose real and imaginary parts are standard normals.

    Each sample takes one (real, imaginary) pair of draws, in order, which
    a complex view of the draw reads without a copy.
    """
    return rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]


def draw_taps(profile: ChannelProfile, count: int, rng) -> np.ndarray:
    """Draw `count` independent tap vectors, shape (count, max_delay + 1).

    Tap k is CN(0, p_k); positions between the profile delays stay zero.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    taps = np.zeros((count, profile.max_delay + 1), dtype=np.complex128)
    g = _complex_normal((count, profile.delays.size), rng)
    taps[:, profile.delays] = np.sqrt(profile.powers / 2.0) * g
    return taps


def channel_frequency_response(taps, fft_size: int) -> np.ndarray:
    """Unnormalized DFT of the zero-padded taps, H_k = sum_m h_m e^{-j2pi km/N}.

    This is the per-subcarrier response seen after a cyclic prefix at least
    as long as the delay spread, and the quantity the equalizer divides by.
    Works on a single tap vector or a batch (last axis = delay).
    """
    taps = np.asarray(taps)
    depth = taps.shape[-1]
    if depth > fft_size:
        raise ValueError(
            f"delay spread {depth - 1} does not fit an FFT of size {fft_size}"
        )
    return np.fft.fft(taps, fft_size)


def apply_channel(samples, taps) -> np.ndarray:
    """Linear convolution with the channel taps, truncated to the input length.

    A batch of tap vectors convolves row-wise with a batch of sample rows.
    With a cyclic prefix covering the delay spread the truncation loses
    nothing.
    """
    taps = np.asarray(taps)
    x = np.asarray(samples)
    length = x.shape[-1]
    if taps.shape[-1] > length:
        raise ValueError("channel is longer than the input block")
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], taps.shape[:-1]) + (length,),
                   dtype=np.complex128)
    for d in range(taps.shape[-1]):
        tap = taps[..., d : d + 1]
        if not tap.any():
            continue
        out[..., d:] += tap * x[..., : length - d]
    return out


def add_awgn(samples, n0: float, rng) -> np.ndarray:
    """Add complex white Gaussian noise, CN(0, n0) per sample."""
    if n0 < 0:
        raise ValueError(f"noise density must be nonnegative, got {n0!r}")
    x = np.asarray(samples)
    noise = _complex_normal(x.shape, rng)
    noise *= np.sqrt(n0 / 2.0)
    return x + noise


def draw_flat_rayleigh(count: int, rng) -> np.ndarray:
    """i.i.d. CN(0, 1) per-subcarrier gains (E|g|^2 = 1), shape (count,)."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return _complex_normal((count,), rng) / np.sqrt(2.0)
