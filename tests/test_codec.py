"""Wire-format round trips, decoder totality, and prompt assembly."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gendt import codec
from gendt.codec import (
    DEFAULT_PROMPT_TEMPLATE,
    PLACEHOLDER,
    CodecError,
    DecodeFailure,
    EncodingSpec,
    NonFiniteValue,
    Overflow,
    SensorString,
    _format_value,
    build_prompt,
    decode,
    encode,
    encode_many,
    quantize,
)

SPEC = EncodingSpec()


def exact_half_away(value: float, decimals: int = 2) -> float:
    """Independent oracle: round half away from zero on the exact binary value,
    computed in rational arithmetic."""
    f = Fraction(value) * 10**decimals
    if f >= 0:
        cents = math.floor(f + Fraction(1, 2))
    else:
        cents = -math.floor(-f + Fraction(1, 2))
    return cents / 10**decimals


def test_encode_definitional():
    out = encode([1.234, 5.0], SPEC)
    assert out == SensorString("1.23,5.00", 2)


def test_encode_empty():
    assert encode([], SPEC) == SensorString("", 0)


def test_encode_half_away_from_zero():
    # 0.125 and -0.125 are exact binary values, true ties at 2 decimals
    assert encode([0.125], SPEC).text == "0.13"
    assert encode([-0.125], SPEC).text == "-0.13"
    assert encode([0.375], SPEC).text == "0.38"
    # 2.675 in binary is slightly below the tie; correct rounding goes down
    assert encode([2.675], SPEC).text == "2.67"


def test_encode_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        encode([float("nan")], SPEC)
    with pytest.raises(NonFiniteValue):
        encode([float("inf")], SPEC)


def test_encode_overflow():
    with pytest.raises(Overflow):
        encode([1e9], SPEC)
    with pytest.raises(Overflow):
        encode([5.0], EncodingSpec(scale=1e-10))


def _oracle_text(values, spec: EncodingSpec) -> str:
    return spec.separator.join(_format_value(v, spec) for v in values)


@pytest.mark.parametrize("scale", [1.0, 0.37, 4.0])
@pytest.mark.parametrize("decimals", range(11))
def test_vectorised_encode_matches_the_decimal_oracle(monkeypatch, decimals, scale):
    """`encode` gives `_format_value`'s text byte for byte: on random values, on
    values near and at exact binary ties (which alone take the Decimal path),
    on negative zero, and at magnitudes just under the overflow limit or at and
    above 2**52 / 10**d."""
    rng = np.random.default_rng(decimals)
    spec = EncodingSpec(decimals=decimals, separator=";", scale=scale)
    q = 10.0**-decimals
    bound = 2 ** min(40, 29 + decimals)  # the ties stay under 2**29
    scaled = [
        *rng.normal(0, 10, 400), *rng.uniform(-1e9, 1e9, 100),
        *((np.arange(-50, 50) + 0.5) * q),  # the decimal ties (k + 0.5) / 10**d
        *((2 * rng.integers(-bound, bound, 100) + 1) / 2.0 ** (decimals + 1)),  # exact binary ties
        0.125, -0.125, 2.675, 0.0, -0.0, -0.4 * q, -1e-12,  # the last three format as -0
        math.nextafter(1e9, 0), -math.nextafter(1e9, 0), 2.0**52 * q, 2.0**53 * q, -(2.0**52) * q,
    ]
    values = [v * scale for v in scaled if abs(v) < 1e9]
    decimal_path = []
    monkeypatch.setattr(
        codec, "_format_value", lambda v, s: decimal_path.append(v) or _format_value(v, s)
    )
    assert encode(values, spec) == SensorString(_oracle_text(values, spec), len(values))
    if scale != 0.37:  # values / 0.37 are no longer the constructed ties
        assert len(decimal_path) >= 100


@pytest.mark.parametrize(
    "bad, spec",
    [
        (float("nan"), SPEC),
        (float("inf"), SPEC),
        (-float("inf"), SPEC),
        (1e9, SPEC),
        (-1e9, SPEC),
        (5.0, EncodingSpec(scale=1e-10)),
        (1e300, EncodingSpec(scale=1e-10)),  # scaled past the float range
    ],
)
def test_vectorised_encode_raises_as_the_oracle(bad, spec):
    """The first value that cannot be encoded raises the class and message it
    raises alone."""
    with pytest.raises(CodecError) as alone:
        _format_value(bad, spec)
    with pytest.raises(CodecError) as batch:
        encode([1e-12, bad, float("nan"), 1e10], spec)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("spec", [SPEC, EncodingSpec(decimals=3, separator="; ", scale=0.37)])
def test_encode_many_is_encode_of_each_array(monkeypatch, spec):
    """Each array's text is `encode` of it alone and its values are bit for
    bit float(token) * scale, read-only; an array that cannot be encoded gets
    the error `encode` of it alone raises; and one `encode` call formats every
    other array."""
    rng = random.Random(6)
    arrays = [np.array([rng.uniform(-50, 50) for _ in range(n)]) for n in (5, 0, 7, 3, 1)]
    arrays[2][4] = float("nan")
    arrays[3][1:] = [1e300, -float("inf")]
    calls = []
    monkeypatch.setattr(codec, "encode", lambda v, s: calls.append(len(v)) or encode(v, s))
    wires = encode_many(arrays, spec)
    assert calls == [6] and len(wires) == len(arrays)
    for values, wire in zip(arrays, wires):
        try:
            text = encode(values, spec).text
        except CodecError as alone:
            assert type(wire) is type(alone) and str(wire) == str(alone)
            continue
        assert wire.text == text and not wire.decoded.flags.writeable
        parsed = [float(token) * spec.scale for token in text.split(spec.separator) if token]
        assert wire.decoded.tobytes() == np.array(parsed, dtype=np.float64).tobytes()
    assert [type(w).__name__ for w in wires[2:4]] == ["NonFiniteValue", "Overflow"]
    assert encode_many([], spec) == []


def test_encode_character_set():
    rng = random.Random(4)
    values = [rng.uniform(-50, 50) for _ in range(200)]
    allowed = set("0123456789+-.,")
    assert set(encode(values, SPEC).text) <= allowed


def test_round_trip_matches_rational_oracle():
    rng = random.Random(21)
    values = [rng.uniform(0, 10) for _ in range(2000)]
    decoded = decode(encode(values, SPEC).text, SPEC, len(values))
    assert isinstance(decoded, list)
    for v, d in zip(values, decoded):
        assert d == exact_half_away(v)


def test_quantize_equals_round_trip():
    rng = random.Random(8)
    values = [rng.uniform(-5, 5) for _ in range(500)]
    assert quantize(values, SPEC) == decode(encode(values, SPEC).text, SPEC, len(values))


def test_scale_divides_then_multiplies():
    spec = EncodingSpec(decimals=2, scale=2.0)
    out = encode([5.0], spec)
    assert out.text == "2.50"
    assert decode(out.text, spec, 1) == [5.0]


def test_decode_whitespace_tolerance():
    assert decode("1.23, 4.50,6.00", SPEC, 3) == [1.23, 4.5, 6.0]


def test_decode_short():
    assert decode("1.23,4.50", SPEC, 3) == DecodeFailure("short", 2)


def test_decode_malformed_position():
    result = decode("1.23,abc,4", SPEC, 3)
    assert isinstance(result, DecodeFailure)
    assert (result.reason, result.position) == ("malformed", 1)
    assert decode("1,,2", SPEC, 3) == DecodeFailure("malformed", 1, "empty token")


def test_decode_truncates_extra_values():
    assert decode("1,2,3,4,5", SPEC, 3) == [1.0, 2.0, 3.0]


def test_decode_strips_leading_prose():
    assert decode("The continuation is: 1.00,2.00", SPEC, 2) == [1.0, 2.0]
    assert decode("Sure, here: 1,2,3", SPEC, 3) == [1.0, 2.0, 3.0]
    assert decode("abc,1,2,3", SPEC, 3) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "text, position, token",
    [("nan,1,2,3", 0, "nan"), ("-inf,1,2,3", 0, "-inf"), ("Infinity,1,2,3", 0, "Infinity"),
     ("nan 1,2,3", 0, "nan"), ("Sure, NaN ,1,2,3", 1, "NaN")],
)
def test_decode_leading_non_finite_token_is_malformed(text, position, token):
    """A NaN or infinity before the first number is a bad value, not prose
    to strip: stripping it would shift the forecast by one step."""
    assert decode(text, SPEC, 3) == DecodeFailure(
        "malformed", position, f"token {token!r} is not a value of magnitude below 1e+09")


def test_decode_trims_trailing_junk_on_final_token():
    assert decode("1.00,2.00.", SPEC, 2) == [1.0, 2.0]
    assert decode("1.00,2.00,", SPEC, 2) == [1.0, 2.0]


def test_decode_rejects_nan_token():
    result = decode("1.0,nan,2.0", SPEC, 3)
    assert isinstance(result, DecodeFailure)
    assert result.reason == "malformed"


@pytest.mark.parametrize(
    "text, scale, position",
    [("1,1e9", 1.0, 1), ("-1e300,1", 1.0, 0), ("1e308,1", 4.0, 0)],
    ids=["1e9", "-1e300", "1e308-scale-4"],
)
def test_decode_refuses_a_token_past_the_wire_range(text, scale, position):
    """A token of magnitude 1e9 or more, which the encoder never writes, is
    malformed whatever the scale; just below the bound it decodes."""
    result = decode(text, EncodingSpec(scale=scale), 2)
    assert (result.reason, result.position) == ("malformed", position)
    assert decode("999999999.99,1", EncodingSpec(scale=scale), 2) == [999999999.99 * scale, scale]


def test_scale_bound():
    EncodingSpec(scale=codec.SCALE_MAX)
    for scale in (float(np.nextafter(codec.SCALE_MAX, np.inf)), 0.0, float("inf"), float("nan")):
        with pytest.raises(CodecError, match="scale must be in"):
            EncodingSpec(scale=scale)


def test_decode_empty_output():
    assert decode("", SPEC, 2) == DecodeFailure("short", 0, "empty output")
    assert decode("   \n", SPEC, 2) == DecodeFailure("short", 0, "empty output")


def test_decode_total_over_fuzz():
    rng = random.Random(1337)
    for _ in range(2000):
        n = rng.randrange(0, 60)
        text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        result = decode(text, SPEC, 5)
        assert isinstance(result, (list, DecodeFailure))
        if isinstance(result, list):
            assert len(result) == 5
            assert all(math.isfinite(v) for v in result)


def test_separator_validation():
    with pytest.raises(CodecError):
        EncodingSpec(separator="")
    with pytest.raises(CodecError):
        EncodingSpec(separator="-")
    with pytest.raises(CodecError):
        EncodingSpec(separator=".")
    EncodingSpec(separator="; ")  # fine


def test_decimals_validation():
    with pytest.raises(CodecError):
        EncodingSpec(decimals=11)
    with pytest.raises(CodecError):
        EncodingSpec(decimals=-1)
    assert encode([1.5], EncodingSpec(decimals=0)).text == "2"


def test_build_prompt_default_template():
    prompt = build_prompt(encode([1.0, 2.0], SPEC))
    assert prompt.endswith("Sequence: 1.00,2.00.")
    assert PLACEHOLDER not in prompt


def test_build_prompt_missing_placeholder():
    with pytest.raises(CodecError, match="^template does not contain "):
        build_prompt(SensorString("1.00", 1), template="continue this")
    with pytest.raises(CodecError, match="^template must contain .* exactly once$"):
        build_prompt(SensorString("1.00", 1), template=f"{PLACEHOLDER} and {PLACEHOLDER}")


def test_build_prompt_empty_sequence_permitted():
    prompt = build_prompt(encode([], SPEC))
    assert prompt.endswith("Sequence: .")


def test_default_template_has_one_placeholder():
    assert DEFAULT_PROMPT_TEMPLATE.count(PLACEHOLDER) == 1
