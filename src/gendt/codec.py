"""Numeric series <-> comma-separated decimal strings, and prompt assembly.

The encoder produces the wire text embedded in the forecast prompt; the
decoder parses untrusted model output and never raises on bad input, it
returns a structured DecodeFailure instead. No other module splits or
parses wire text: `encode_many` gives each array's text and decoded values.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Sequence, Union

import numpy as np

from .errors import GendtError

log = logging.getLogger(__name__)

PLACEHOLDER = "<ENCODED TOKENIZED STRING>"

DEFAULT_PROMPT_TEMPLATE = (
    "You are a helpful assistant who performs time series predictions. "
    "The user will provide a sequence, and you will predict the remaining sequence. "
    "The sequence is represented by decimal strings separated by commas. "
    "Please continue the following sequence without producing any additional text. "
    "Do not say anything like 'the next terms in the sequence are', "
    "just return the numbers. Sequence: <ENCODED TOKENIZED STRING>."
)

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_RESERVED_SEPARATOR_CHARS = set("0123456789+-.")
_OVERFLOW_LIMIT = 1e9  # the bound on a wire value's magnitude, encoded or decoded
# every wire value times scale is then below 1e109, so no squared error overflows a float64
SCALE_MAX = 1e100


class CodecError(GendtError):
    pass


class NonFiniteValue(CodecError):
    pass


class Overflow(CodecError):
    """Scaled magnitude too large for fixed-point formatting."""


@dataclass(frozen=True)
class EncodingSpec:
    """Fixed-precision wire format: value/scale rendered with `decimals` digits."""

    decimals: int = 2
    separator: str = ","
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.decimals <= 10:
            raise CodecError(f"decimals must be in [0, 10], got {self.decimals}")
        if not self.separator:
            raise CodecError("separator must be non-empty")
        if any(ch in _RESERVED_SEPARATOR_CHARS for ch in self.separator):
            raise CodecError(f"separator {self.separator!r} collides with numeric characters")
        if not 0 < self.scale <= SCALE_MAX:
            raise CodecError(f"scale must be in (0, {SCALE_MAX:g}], got {self.scale}")


@dataclass(frozen=True)
class SensorString:
    text: str
    count: int


@dataclass(frozen=True)
class Wire:
    """An array's wire text, and the values it decodes to: bit for bit
    `float(token) * scale`, read-only."""

    text: str
    decoded: np.ndarray


@dataclass(frozen=True)
class DecodeFailure:
    """Attempt-level parse failure; a value, never an exception.

    reason "short": fewer values than expected, position = parsed count.
    reason "malformed": unparseable token, position = token index.
    reason "backend": transport-level failure carried through the ensemble.
    """

    reason: str
    position: int
    message: str = ""


def _quantum(decimals: int) -> Decimal:
    return Decimal(1).scaleb(-decimals)


def _format_value(value: float, spec: EncodingSpec) -> str:
    if not math.isfinite(value):
        raise NonFiniteValue(f"cannot encode non-finite value {value!r}")
    scaled = value / spec.scale
    if not math.isfinite(scaled) or abs(scaled) >= _OVERFLOW_LIMIT:
        raise Overflow(f"scaled magnitude {scaled!r} exceeds {_OVERFLOW_LIMIT:g}")
    # Decimal(float) is the exact binary value; HALF_UP rounds ties away from zero.
    return format(Decimal(scaled).quantize(_quantum(spec.decimals), rounding=ROUND_HALF_UP), "f")


def _scaled(x: np.ndarray, spec: EncodingSpec) -> tuple[np.ndarray, np.ndarray]:
    """`x / spec.scale`, and the mask of the values `_format_value` rejects:
    non-finite, or of a scaled magnitude of at least the overflow limit."""
    with np.errstate(over="ignore"):  # a scaled value past the float range is an Overflow
        scaled = x / spec.scale
    return scaled, ~(np.abs(scaled) < _OVERFLOW_LIMIT)  # NaN compares false


def encode(values: Sequence[float], spec: EncodingSpec) -> SensorString:
    """Render values at fixed precision, joined by the separator, in one
    vectorised pass; each token is byte for byte `_format_value`'s. Python's
    '%f' rounds the exact binary value correctly, as `Decimal` does, and
    differs only on an exact tie, which it rounds to even where HALF_UP rounds
    away from zero, so only ties take the `Decimal` path. The first value that
    cannot be encoded raises as it would alone."""
    x = np.asarray(values, dtype=np.float64)
    scaled, bad = _scaled(x, spec)
    if bad.any():
        _format_value(x[bad.argmax()].item(), spec)  # raises NonFiniteValue or Overflow
    parts = list(map(f"{{:.{spec.decimals}f}}".format, scaled.tolist()))
    # scaled * 10**d is an exact tie k + 1/2 when scaled * 2**(d+1) is an odd
    # integer; a power of two scales without rounding, so no tie is missed
    for i in np.flatnonzero(np.abs(scaled) * 2.0 ** (spec.decimals + 1) % 2 == 1).tolist():
        parts[i] = _format_value(x[i].item(), spec)
    return SensorString(text=spec.separator.join(parts), count=len(parts))


def encode_many(arrays: Sequence[np.ndarray], spec: EncodingSpec) -> list[Union[Wire, CodecError]]:
    """Each array's `Wire`, or the CodecError that `encode` of that array
    alone raises. One mask over every value finds the arrays that cannot be
    encoded; one `encode` call formats all the others, and its tokens (none
    holds the separator) are parsed once."""
    sizes = [len(a) for a in arrays]
    every = np.concatenate([np.empty(0), *arrays])
    bad = np.flatnonzero(_scaled(every, spec)[1])
    errors: dict[int, CodecError] = {}
    for i, at in zip(np.searchsorted(np.cumsum(sizes), bad, side="right").tolist(), bad.tolist()):
        if i not in errors:  # the array's first bad value raises, as in `encode`
            try:
                _format_value(every[at].item(), spec)
            except CodecError as exc:
                errors[i] = exc.with_traceback(None)  # keeps no frame of this pass alive
    ok = np.array([i not in errors for i in range(len(sizes))], dtype=bool)
    text = encode(every[np.repeat(ok, sizes)], spec).text
    tokens = text.split(spec.separator) if text else []
    decoded = np.fromiter(map(float, tokens), np.float64, len(tokens)) * spec.scale
    decoded.flags.writeable = False
    ends = np.cumsum(np.where(ok, sizes, 0)).tolist()  # each array's end among the tokens
    return [Wire(spec.separator.join(tokens[e - n:e]), decoded[e - n:e]) if i not in errors
            else errors[i] for i, (n, e) in enumerate(zip(sizes, ends))]


def quantize(values: Sequence[float], spec: EncodingSpec) -> list[float]:
    """Round values to what they become after an encode/decode round trip."""
    return [float(_format_value(v, spec)) * spec.scale for v in values]


def _trim_trailing_junk(token: str) -> str:
    m = _NUMBER_RE.match(token)
    if m is None:
        return token
    if m.end() != len(token):
        log.debug("trimmed trailing junk %r from final token", token[m.end():])
    return token[: m.end()]


def _out_of_range(token: str) -> str:
    return f"token {token!r} is not a value of magnitude below {_OVERFLOW_LIMIT:g}"


def decode(
    text: str, spec: EncodingSpec, expected_len: int
) -> Union[list[float], DecodeFailure]:
    """Parse model output into at most `expected_len` values.

    Total over arbitrary strings. Leading prose before the first number is
    stripped (models sometimes preface output despite instructions), unless
    one of its tokens is a float the number pattern does not match (NaN or an
    infinity), which is a bad value, not prose; trailing junk is trimmed from
    the final token only. More values than expected are truncated; fewer
    yield DecodeFailure("short", parsed_count); any bad token in between, one
    of magnitude 1e9 or more among them, yields
    DecodeFailure("malformed", token_index).
    """
    first = _NUMBER_RE.search(text)
    if first is None:
        if not text.strip():
            return DecodeFailure("short", 0, "empty output")
        return DecodeFailure("malformed", 0, "no numeric tokens")
    if first.start() > 0:
        for i, token in enumerate(text[: first.start()].split(spec.separator)):
            try:
                float(token)
            except ValueError:
                continue
            return DecodeFailure("malformed", i, _out_of_range(token.strip()))
        log.debug("stripped %d chars of leading prose before first number", first.start())

    tokens = text[first.start():].split(spec.separator)
    values: list[float] = []
    for i, token in enumerate(tokens):
        token = token.strip()
        if i == len(tokens) - 1:
            token = _trim_trailing_junk(token)
            if not token:
                break  # trailing separator
        if not token:
            return DecodeFailure("malformed", i, "empty token")
        try:
            v = float(token)
        except ValueError:
            return DecodeFailure("malformed", i, f"unparseable token {token!r}")
        if not abs(v) < _OVERFLOW_LIMIT:  # the encoder's bound; NaN compares false
            return DecodeFailure("malformed", i, _out_of_range(token))
        values.append(v * spec.scale)
        if len(values) == expected_len:
            break
    if len(values) < expected_len:
        return DecodeFailure("short", len(values))
    return values


def build_prompt(
    window_string: Union[SensorString, str], template: Optional[str] = None
) -> str:
    """Substitute the encoded sequence into the prompt template (exactly once)."""
    text = window_string.text if isinstance(window_string, SensorString) else window_string
    tpl = DEFAULT_PROMPT_TEMPLATE if template is None else template
    occurrences = tpl.count(PLACEHOLDER)
    if occurrences == 0:
        raise CodecError(f"template does not contain {PLACEHOLDER!r}")
    if occurrences > 1:
        raise CodecError(f"template must contain {PLACEHOLDER!r} exactly once")
    return tpl.replace(PLACEHOLDER, text)
