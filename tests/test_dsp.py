"""Filter behavior against the analytic Butterworth magnitude, plus decimation
and composition laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import lowpass
from gendt.dsp import (
    DownsampleSpec,
    DspError,
    FilterSpec,
    butter_sections,
    downsample,
    preprocess,
    preprocess_many,
)
from gendt.errors import EmptyInput
from gendt.ptog import MeasurementSeries, PtogError, RunId, SensorId, StateId

FS = 250.0
FC = 8.0


def analytic_gain_db(f: float, fc: float, order: int) -> float:
    return 20.0 * math.log10(1.0 / math.sqrt(1.0 + (f / fc) ** (2 * order)))


def steady_state_gain_db(freq: float, spec: FilterSpec, cycles_settle: int = 40) -> float:
    """Drive a sine at FS, measure the tail amplitude via rms over whole periods."""
    period = FS / freq
    n_settle = int(cycles_settle * period)
    n_measure = int(32 * period)
    n = n_settle + n_measure
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * freq * t)
    y = np.asarray(lowpass(x.tolist(), spec, FS))
    tail = y[n_settle : n_settle + n_measure]
    amplitude = math.sqrt(2.0) * float(np.sqrt(np.mean(tail**2)))
    return 20.0 * math.log10(amplitude)


def test_constant_signal_passes_at_dc_gain_one():
    spec = FilterSpec(FC, order=4)
    y = lowpass([3.25] * 4000, spec, FS)
    assert abs(y[-1] - 3.25) < 1e-6 * 3.25


def test_gain_at_twice_cutoff_matches_analytic():
    spec = FilterSpec(FC, order=4)
    measured = steady_state_gain_db(2 * FC, spec)
    expected = analytic_gain_db(2 * FC, FC, 4)  # about -24.1 dB
    assert expected == pytest.approx(-24.1, abs=0.05)
    assert measured == pytest.approx(expected, abs=0.5)


def test_gain_at_cutoff_is_minus_3db():
    spec = FilterSpec(FC, order=4)
    measured = steady_state_gain_db(FC, spec)
    assert measured == pytest.approx(-3.01, abs=0.3)


def test_odd_order_matches_analytic():
    spec = FilterSpec(FC, order=3)
    for freq in (FC, 2 * FC):
        assert steady_state_gain_db(freq, spec) == pytest.approx(
            analytic_gain_db(freq, FC, 3), abs=0.4
        )


def test_invalid_cutoff_rejected():
    with pytest.raises(DspError, match="must lie below the Nyquist frequency 125.0 Hz"):
        butter_sections(FilterSpec(cutoff_hz=125.0), 250.0)
    with pytest.raises(DspError, match="must lie below the Nyquist frequency 125.0 Hz"):
        lowpass([1.0], FilterSpec(cutoff_hz=125.0), 250.0)
    with pytest.raises(DspError, match="^filter cutoff_hz must be > 0, got 0.0$"):
        FilterSpec(cutoff_hz=0.0)


def test_empty_input_rejected():
    spec = FilterSpec(FC)
    with pytest.raises(PtogError):  # a series holds at least one sample
        lowpass([], spec, FS)
    with pytest.raises(EmptyInput):
        downsample([], 2)


def test_lowpass_preserves_length():
    spec = FilterSpec(FC)
    for n in (1, 2, 17, 400):
        assert len(lowpass([1.0] * n, spec, FS)) == n


def test_linearity():
    spec = FilterSpec(FC, order=4)
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, 600).tolist()
    y = rng.normal(0, 1, 600).tolist()
    a, b = 2.5, -1.25
    combined = lowpass([a * xi + b * yi for xi, yi in zip(x, y)], spec, FS)
    separate = [
        a * fx + b * fy for fx, fy in zip(lowpass(x, spec, FS), lowpass(y, spec, FS))
    ]
    for c, s in zip(combined, separate):
        assert c == pytest.approx(s, rel=1e-9, abs=1e-12)


def test_bounded_output_for_bounded_input():
    spec = FilterSpec(FC, order=4)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2000)
        y = np.asarray(lowpass(x.tolist(), spec, FS))
        assert np.max(np.abs(y)) <= 2.0


def test_downsample_definitional():
    assert downsample([1, 2, 3, 4, 5], 2).tolist() == [1.0, 3.0, 5.0]


def test_downsample_identity():
    x = [0.5, 1.5, 2.5]
    assert downsample(x, 1).tolist() == x


def test_downsample_stride_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 1000).tolist()
    out = downsample(x, 20)
    assert len(out) == 50
    assert out.tolist() == [x[i] for i in range(0, 1000, 20)]


def test_downsample_length_law_exhaustive():
    # range slicing shares list slice semantics and keeps this O(1) per case
    for n in range(1, 10001):
        for d in range(1, 101):
            assert len(range(n)[::d]) == math.ceil(n / d)


def make_series(samples, rate=FS):
    return MeasurementSeries(
        RunId(1), StateId(1, "P1"), SensorId("spindle_current", "A"), rate, tuple(samples)
    )


def test_preprocess_length_contract():
    n = 777
    series = make_series([1.0] * n)
    out = preprocess(series, FilterSpec(FC), DownsampleSpec(20))
    assert len(out) == math.ceil(n / 20)


def test_preprocess_constant_stays_constant():
    series = make_series([2.0] * 3000)
    out = preprocess(series, FilterSpec(FC), DownsampleSpec(10))
    assert out[-1] == pytest.approx(2.0, abs=1e-6)


def test_preprocess_suppresses_high_band():
    """White noise in, energy above the cutoff drops >= 20 dB relative to the
    passband (FFT band-energy oracle, factor 1 so the full band is visible)."""
    rng = np.random.default_rng(17)
    n = 32768
    x = rng.normal(0, 1, n)
    series = make_series(x.tolist())
    y = np.asarray(preprocess(series, FilterSpec(FC, order=4), DownsampleSpec(1)))

    freqs = np.fft.rfftfreq(n, d=1 / FS)
    px = np.abs(np.fft.rfft(x)) ** 2
    py = np.abs(np.fft.rfft(y)) ** 2
    passband = freqs < FC
    highband = freqs > FC
    gain_pass = py[passband].sum() / px[passband].sum()
    gain_high = py[highband].sum() / px[highband].sum()
    suppression_db = 10 * math.log10(gain_high / gain_pass)
    assert suppression_db <= -20.0


def test_filter_before_decimation_is_observable():
    """A tone above the post-decimation Nyquist must not alias through."""
    d = 5
    tone = 60.0  # aliases to 10 Hz after decimating 250 -> 50 Hz
    n = 5000
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * tone * t)
    spec = FilterSpec(FC, order=4)
    correct = np.asarray(preprocess(make_series(x.tolist()), spec, DownsampleSpec(d)))
    # the same cutoff at the decimated rate
    wrong_order = np.asarray(lowpass(downsample(x.tolist(), d), spec, FS / d))
    # the decimate-first path folds the tone near 10 Hz where the filter
    # cannot remove it; filtered-first output carries far less energy
    assert np.sqrt(np.mean(correct[200:] ** 2)) < 0.1 * np.sqrt(np.mean(wrong_order[200:] ** 2))


def test_preprocess_uses_the_series_rate():
    """One spec serves series of any rate: the stride and the Nyquist check
    both follow the series' own sample rate."""
    spec = DownsampleSpec(target_rate_hz=20.0)
    assert len(preprocess(make_series([1.0] * 100, rate=100.0), FilterSpec(FC), spec)) == 20
    assert len(preprocess(make_series([1.0] * 100, rate=FS), FilterSpec(FC), spec)) == 9
    with pytest.raises(DspError, match="must lie below the Nyquist frequency"):
        preprocess(make_series([1.0] * 100, rate=2 * FC), FilterSpec(FC), spec)


def test_zero_phase_flag_removes_lag():
    spec = FilterSpec(FC, order=4)
    zp = FilterSpec(FC, order=4, zero_phase=True)
    n = 2000
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * 2.0 * t)  # well inside the passband
    causal = np.asarray(lowpass(x.tolist(), spec, FS))
    sym = np.asarray(lowpass(x.tolist(), zp, FS))
    mid = slice(500, 1500)

    def lag(y):
        corr = np.correlate(y[mid], x[mid], mode="full")
        return int(np.argmax(corr)) - (len(x[mid]) - 1)

    assert lag(sym) == 0
    assert lag(causal) > 0


def test_resolve_downsample_factor():
    assert DownsampleSpec(target_rate_hz=20.0).factor_for(250.0) == 12
    assert DownsampleSpec(factor=20).factor_for(250.0) == 20
    assert DownsampleSpec(target_rate_hz=100.0).factor_for(10.0) == 1
    with pytest.raises(DspError):
        DownsampleSpec()
    with pytest.raises(DspError):
        DownsampleSpec(factor=3, target_rate_hz=20.0)


def run_cascade(x: list[float], sections) -> list[float]:
    """Scalar oracle: the biquad cascade one Python float at a time, zero
    initial state (direct form II transposed)."""
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


def scalar_preprocess(series: MeasurementSeries, spec: FilterSpec, dspec: DownsampleSpec) -> list:
    sections = butter_sections(spec, series.sample_rate_hz)
    y = run_cascade(series.samples.tolist(), sections)
    if spec.zero_phase:
        y = run_cascade(y[::-1], sections)[::-1]
    return y[:: dspec.factor_for(series.sample_rate_hz)]


def test_batched_cascade_equals_scalar_oracle():
    """One batch of mixed lengths (1 to 500) and two sample rates gives every
    series bit for bit what the scalar cascade gives it alone, for odd and
    even orders, causal and zero-phase."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(
        lengths=st.lists(st.integers(1, 500), min_size=1, max_size=10),
        rates=st.lists(st.sampled_from([FS, 100.0]), min_size=10, max_size=10),
        order=st.integers(1, 6),
        zero_phase=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(lengths, rates, order, zero_phase, seed):
        rng = np.random.default_rng(seed)
        batch = [make_series(rng.normal(0, 3, n), rate) for n, rate in zip(lengths, rates)]
        spec = FilterSpec(FC, order=order, zero_phase=zero_phase)
        dspec = DownsampleSpec(target_rate_hz=20.0)
        for series, values in zip(batch, preprocess_many(batch, spec, dspec)):
            assert values.tolist() == scalar_preprocess(series, spec, dspec)
            assert values.tolist() == preprocess(series, spec, dspec).tolist()

    check()


def test_extreme_samples_overflow_without_a_warning():
    """Samples near the float limit overflow to inf inside the cascade, as the
    scalar biquad does, without a numpy warning; encode rejects them later."""
    spec = FilterSpec(FC)
    y = lowpass([1.7e308] * 200, spec, FS)
    expected = run_cascade([1.7e308] * 200, butter_sections(spec, FS))
    assert np.array_equal(y, expected, equal_nan=True)
    assert not np.all(np.isfinite(y))
