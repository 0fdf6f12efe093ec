"""Shared exception base classes, the one reader of untrusted JSON, the one
checker of its values, and the one way an error line shows an offending value.

Every JSON document gendt does not write itself in the same run, whether a
graph, config, report, manifest or `fixture.json` file or the body of an HTTP
reply, is parsed by `read_json`, so each failure to read it becomes the
caller's error class and never a traceback. Each value of a graph, manifest,
config, report or `fixture.json` document is then checked by `checked`
against a `Kind`: an integer is a JSON integer (a boolean is not one), a
number is finite (`abs(v) <= sys.float_info.max`), and a failure reads
`<field> must be <what>, got <value>`. Range rules stay with each field, but
a run, a state and a sample rate, read from many documents, have Kinds here.
"""

import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union


class GendtError(Exception):
    """Base class for every engine-level error."""


class EmptyInput(GendtError):
    """An operation that requires samples received an empty list."""


def shown(value) -> str:
    """`repr(value)` for an error line, cut to 80 characters and an ellipsis."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "…"


def read_json(source: Union[str, Path, bytes], error: type[GendtError], name: str = ""):
    """The JSON document held by the file at `source`, or by `source` itself
    when it is bytes, which must be UTF-8. A file that cannot be read, bytes
    that are not UTF-8 JSON, and nesting deeper than the parser's recursion
    limit each raise `error`, with one line naming `name` or the file."""
    try:
        data = source if isinstance(source, bytes) else Path(source).read_bytes()
        return json.loads(data.decode())
    except (OSError, ValueError, RecursionError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise error(f"cannot read {name or source}: {reason}") from exc


class Kind(NamedTuple):
    """What a JSON value must be, for an error line, and the `test` it passes;
    `item` is the kind of each item of a list."""

    what: str
    test: Callable[[object], bool]
    item: Optional["Kind"] = None


def _finite(value) -> bool:  # NaN fails the comparison
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


INTEGER = Kind("a JSON integer", lambda v: type(v) is int)
NUMBER = Kind("a finite number", _finite)
STRING = Kind("a JSON string", lambda v: type(v) is str)
BOOLEAN = Kind("true or false", lambda v: type(v) is bool)
OBJECT = Kind("a JSON object", lambda v: type(v) is dict)
# a run index names files (`run_<k>.csv`, `overlay_run<k>_<state>.svg`)
RUN_INDEX = Kind("an integer in [1, 10**18)", lambda v: INTEGER.test(v) and 1 <= v < 10**18)
STATE_INDEX = Kind("an integer >= 1", lambda v: INTEGER.test(v) and v >= 1)
LABEL = Kind("a non-empty string", lambda v: STRING.test(v) and v != "")
RATE = Kind("a finite number > 0", lambda v: NUMBER.test(v) and v > 0)


def optional(kind: Kind) -> Kind:
    """`kind`, or null."""
    return Kind(f"{kind.what} or null", lambda v: v is None or kind.test(v), kind.item)


def list_of(item: Kind, what: str = "a JSON list") -> Kind:
    """A list whose every item is `item`."""
    return Kind(what, lambda v: type(v) is list and all(map(item.test, v)), item)


def checked(error: type[GendtError], value, kind: Kind, field: Union[str, Callable[[], str]]):
    """`value` if it is `kind`; else `error` naming `field` and the value, or
    the first list item that is not `kind.item`. `field` may be a function, so
    that a loop builds the name only for an error."""
    if kind.test(value):
        return value
    name = field if isinstance(field, str) else field()
    if kind.item is not None and type(value) is list:
        for i, item in enumerate(value):
            checked(error, item, kind.item, f"{name}[{i}]")
    raise error(f"{name} must be {kind.what}, got {shown(value)}")
