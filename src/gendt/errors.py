"""Shared exception base classes, the one reader of untrusted JSON, and the
one way an error line shows an offending value.

Every JSON document gendt does not write itself in the same run, whether a
graph, config, report, manifest or `fixture.json` file or the body of an HTTP
reply, is parsed by `read_json`, so each failure to read it becomes the
caller's error class and never a traceback.
"""

import json
from pathlib import Path
from typing import Union


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
