"""Transmit side: data-bin points onto the FFT grid, then to time domain."""
from __future__ import annotations

import numpy as np

from .core import SubcarrierLayout


def ofdm_modulate(points, layout: SubcarrierLayout, cp_len: int) -> np.ndarray:
    """Data-bin points (..., n) to time samples (..., fft_size + cp_len).

    Guard bins stay zero. The IDFT carries the unitary 1/sqrt(N) scaling,
    so symbol energy is the same in both domains, and the cyclic prefix
    is a copy of the last cp_len samples. Leading axes are a batch.
    """
    points = np.asarray(points)
    size = layout.fft_size
    if points.shape[-1:] != (layout.n,):
        raise ValueError(
            f"expected {layout.n} data-bin points on the last axis, got shape {points.shape}"
        )
    if not 0 <= cp_len < size:
        raise ValueError(f"cp_len must be in [0, {size}), got {cp_len}")
    grid = np.zeros(points.shape[:-1] + (size,), dtype=np.complex128)
    grid[..., layout.data_bins] = points
    body = np.fft.ifft(grid, norm="ortho")
    return np.concatenate([body[..., size - cp_len :], body], axis=-1) if cp_len else body
