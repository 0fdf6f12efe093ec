"""Causal Butterworth low-pass filtering and integer-stride decimation.

Biquad coefficients come from the bilinear transform with cutoff pre-warping;
the cascade runs with zero initial conditions. All functions are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, GendtError
from .ptog import MeasurementSeries


class DspError(GendtError):
    pass


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth low-pass; the sample rate is the filtered series' own."""

    cutoff_hz: float = 8.0
    order: int = 4
    zero_phase: bool = False

    def __post_init__(self) -> None:
        # the cutoff-vs-Nyquist check needs the sample rate; butter_sections makes it
        if not self.cutoff_hz > 0:
            raise DspError(f"filter cutoff_hz must be > 0, got {self.cutoff_hz}")
        if not self.order >= 1:
            raise DspError(f"filter order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class DownsampleSpec:
    """Exactly one of factor / target_rate_hz; a target rate resolves to
    round(sample_rate / target_rate) with a floor of 1."""

    factor: Optional[int] = None
    target_rate_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.factor is None) == (self.target_rate_hz is None):
            raise DspError("downsample needs exactly one of factor or target_rate_hz")
        if self.factor is not None and not self.factor >= 1:
            raise DspError(f"downsample factor must be >= 1, got {self.factor}")
        if self.target_rate_hz is not None and not self.target_rate_hz > 0:
            raise DspError(f"downsample target_rate_hz must be > 0, got {self.target_rate_hz}")

    def factor_for(self, sample_rate_hz: float) -> int:
        """The integer stride for a series sampled at `sample_rate_hz`."""
        if self.factor is not None:
            return self.factor
        ratio = sample_rate_hz / self.target_rate_hz
        if not math.isfinite(ratio):
            raise DspError(
                f"downsample target_rate_hz {self.target_rate_hz} is too low for a "
                f"{sample_rate_hz} Hz series"
            )
        return max(1, round(ratio))


def butter_sections(
    spec: FilterSpec, sample_rate_hz: float
) -> list[tuple[float, float, float, float, float]]:
    """Second-order sections (b0, b1, b2, a1, a2) for a unity-DC-gain low-pass.

    Conjugate analog pole pairs map to biquads; an odd order contributes one
    extra first-order section (b2 = a2 = 0).
    """
    nyquist = sample_rate_hz / 2
    if not spec.cutoff_hz < nyquist:
        raise DspError(
            f"filter cutoff_hz {spec.cutoff_hz} Hz must lie below the Nyquist frequency "
            f"{nyquist} Hz of a {sample_rate_hz} Hz series"
        )
    n = spec.order
    k = math.tan(math.pi * spec.cutoff_hz / sample_rate_hz)
    k2 = k * k
    sections = []
    for i in range(n // 2):
        # quadratic factor s^2 + 2 sin(theta) s + 1 of the normalized prototype
        c = 2.0 * math.sin(math.pi * (2 * i + 1) / (2 * n))
        a0 = 1.0 + c * k + k2
        sections.append(
            (k2 / a0, 2.0 * k2 / a0, k2 / a0, 2.0 * (k2 - 1.0) / a0, (1.0 - c * k + k2) / a0)
        )
    if n % 2:
        a0 = k + 1.0
        sections.append((k / a0, k / a0, 0.0, (k - 1.0) / a0, 0.0))
    return sections


def _cascade(x: np.ndarray, sections) -> None:
    """Run the cascade in place down axis 0 of `x`, one column per series,
    each from zero initial state. Each step is the scalar biquad's arithmetic
    on a row, so every column is bit-identical to filtering its series alone."""
    for b0, b1, b2, a1, a2 in sections:
        z1 = z2 = np.zeros(x.shape[1])
        for i, v in enumerate(x):
            w = b0 * v + z1
            z1 = b1 * v - a1 * w + z2
            z2 = b2 * v - a2 * w
            x[i] = w


def downsample(x: Sequence[float], factor: int) -> np.ndarray:
    """Keep every factor-th sample starting at index 0."""
    if len(x) == 0:
        raise EmptyInput("downsample requires at least one sample")
    return np.array(x[::factor], dtype=np.float64)


def preprocess(series: MeasurementSeries, f: FilterSpec, dspec: DownsampleSpec) -> np.ndarray:
    """Low-pass then decimate one measurement series at its own sample rate
    (order is fixed)."""
    return preprocess_many([series], f, dspec)[0]


def preprocess_many(
    series: Sequence[MeasurementSeries], f: FilterSpec, dspec: DownsampleSpec
) -> list[np.ndarray]:
    """`preprocess` of every series, in one causal cascade per sample rate over
    a zero-padded (samples, series) array; trailing zeros cannot change the
    outputs before them. With f.zero_phase (offline replay only) the cascade
    runs forward and then backward over the flipped array, doubling the
    effective order and cancelling phase lag; there each series' padding leads,
    and zero input from zero state leaves the state at zero."""
    out: list = [None] * len(series)
    for rate in dict.fromkeys(s.sample_rate_hz for s in series):
        group = [i for i, s in enumerate(series) if s.sample_rate_hz == rate]
        sections = butter_sections(f, rate)
        lengths = np.array([len(series[i].samples) for i in group])
        x = np.zeros((lengths.max(), len(group)))
        for j, i in enumerate(group):
            x[: lengths[j], j] = series[i].samples
        # extreme samples may overflow to inf or nan, as Python floats do; encode rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            _cascade(x, sections)
            if f.zero_phase:
                x[np.arange(len(x))[:, None] >= lengths] = 0.0  # the forward pass rang past each end
                _cascade(x[::-1], sections)
        for j, i in enumerate(group):
            out[i] = downsample(x[: lengths[j], j], dspec.factor_for(rate))
    return out
