"""Causal Butterworth low-pass filtering and integer-stride decimation.

Biquad coefficients come from the bilinear transform with cutoff pre-warping;
the cascade runs with zero initial conditions. All functions are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyInput, GendtError
from .ptog import MeasurementSeries


class DspError(GendtError):
    pass


class InvalidCutoff(DspError):
    """Cutoff not above zero, or at or above the series' Nyquist frequency."""


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth low-pass; the sample rate is the filtered series' own."""

    cutoff_hz: float = 8.0
    order: int = 4
    zero_phase: bool = False

    def __post_init__(self) -> None:
        # the cutoff-vs-Nyquist check needs the sample rate; butter_sections makes it
        if not self.cutoff_hz > 0:
            raise InvalidCutoff(f"filter cutoff_hz must be > 0, got {self.cutoff_hz}")
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
        raise InvalidCutoff(
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


def _run_cascade(x: list[float], sections) -> list[float]:
    y = x
    for b0, b1, b2, a1, a2 in sections:
        z1 = 0.0
        z2 = 0.0
        out = [0.0] * len(y)
        for i, v in enumerate(y):
            w = b0 * v + z1
            z1 = b1 * v - a1 * w + z2
            z2 = b2 * v - a2 * w
            out[i] = w
        y = out
    return y


def lowpass(x: Sequence[float], spec: FilterSpec, sample_rate_hz: float) -> list[float]:
    """Apply the Butterworth cascade; output length equals input length.

    Causal single pass by default. With spec.zero_phase the cascade runs
    forward and backward (offline replay only), doubling the effective order
    and cancelling phase lag.
    """
    if len(x) == 0:
        raise EmptyInput("lowpass requires at least one sample")
    sections = butter_sections(spec, sample_rate_hz)
    y = _run_cascade([float(v) for v in x], sections)
    if spec.zero_phase:
        y.reverse()
        y = _run_cascade(y, sections)
        y.reverse()
    return y


def downsample(x: Sequence[float], factor: int) -> list[float]:
    """Keep every factor-th sample starting at index 0."""
    if len(x) == 0:
        raise EmptyInput("downsample requires at least one sample")
    return [float(v) for v in x[::factor]]


def preprocess(series: MeasurementSeries, f: FilterSpec, dspec: DownsampleSpec) -> list[float]:
    """Low-pass then decimate one measurement series at its own sample rate
    (order is fixed)."""
    rate = series.sample_rate_hz
    return downsample(lowpass(series.samples, f, rate), dspec.factor_for(rate))
