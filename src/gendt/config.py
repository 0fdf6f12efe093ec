"""Run configuration: one JSON document wiring the whole pipeline together.

The file round-trips losslessly and every replay report embeds the resolved
form as an audit trail. The file alone sets a run (the deprecated `replay
--backend` aside): the command line names files and output switches, and
only the credential is ever read from the environment. `backend.rng_seed` is the one seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Union, get_args, get_type_hints

from .codec import DEFAULT_PROMPT_TEMPLATE, CodecError, EncodingSpec, build_prompt
from .controller import ControlThresholds
from .dsp import DownsampleSpec, FilterSpec
from .errors import BOOLEAN, INTEGER, NUMBER, OBJECT, STRING, GendtError, checked, optional, read_json, shown
from .forecast import BackendConfig

HEALTH_SCOPES = ("session", "run")


class ConfigError(GendtError):
    pass


@dataclass(frozen=True)
class EnsembleParams:
    attempts: int = 10
    temperature: Optional[float] = None  # None: resolved from the model profile
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if not self.attempts >= 1:
            raise ConfigError(f"ensemble attempts must be >= 1, got {self.attempts}")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"ensemble top_p must be in (0, 1], got {self.top_p}")
        if self.temperature is not None and not self.temperature >= 0:
            raise ConfigError(f"ensemble temperature must be >= 0, got {self.temperature}")


def default_temperature(model_name: str) -> float:
    """Sampling temperature by model profile: 1.0 for gpt-4-like models,
    0.7 otherwise (the gpt-3.5-like profile)."""
    return 1.0 if "gpt-4" in model_name.lower() else 0.7


@dataclass(frozen=True)
class RunConfig:
    backend: BackendConfig
    thresholds: ControlThresholds
    filter: FilterSpec = field(default_factory=FilterSpec)
    downsample: DownsampleSpec = field(default_factory=lambda: DownsampleSpec(target_rate_hz=20.0))
    encoding: EncodingSpec = field(default_factory=EncodingSpec)
    ensemble: EnsembleParams = field(default_factory=EnsembleParams)
    history_depth: int = 4
    min_history: int = 4
    prompt_template_path: Optional[str] = None
    halt_on_stop: bool = False
    health_scope: str = "session"

    def __post_init__(self) -> None:
        if self.history_depth < 1:
            raise ConfigError("history_depth must be >= 1")
        if self.min_history < 1:
            raise ConfigError("min_history must be >= 1")
        if self.health_scope not in HEALTH_SCOPES:
            raise ConfigError(f"health_scope must be one of {HEALTH_SCOPES}")

    def resolved_temperature(self) -> float:
        if self.ensemble.temperature is not None:
            return self.ensemble.temperature
        return default_temperature(self.backend.model_name)

    @cached_property
    def prompt_template(self) -> str:
        """The template text, read once and checked to hold the placeholder once."""
        if self.prompt_template_path is None:
            return DEFAULT_PROMPT_TEMPLATE
        try:
            template = Path(self.prompt_template_path).read_text()
            build_prompt("", template)  # raises CodecError unless it occurs once
        except (OSError, UnicodeDecodeError, CodecError) as exc:
            reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
            raise ConfigError(f"prompt template {self.prompt_template_path}: {reason}") from exc
        return template

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            sections = {name: doc[name] for name in _SECTIONS if name in doc}
            # unknown top-level keys are ignored; a section rejects its unknown keys
            scalars = {
                f.name: doc[f.name] for f in fields(cls) if f.name in doc and f.name not in _SECTIONS
            }
            _check_types("config", cls, scalars)
            built = {name: _section(name, _SECTIONS[name], value) for name, value in sections.items()}
            return cls(**built, **scalars)
        except (KeyError, TypeError, ValueError, GendtError) as exc:
            raise ConfigError(f"invalid run configuration: {exc}") from exc


_SECTIONS = {
    "backend": BackendConfig,
    "thresholds": ControlThresholds,
    "filter": FilterSpec,
    "downsample": DownsampleSpec,
    "encoding": EncodingSpec,
    "ensemble": EnsembleParams,
}


_KINDS = {float: NUMBER, int: INTEGER, str: STRING, bool: BOOLEAN}


def _check_types(where: str, cls: type, doc: Mapping) -> None:
    """Each value of `doc` is the JSON kind of its field's type hint in `cls`
    (a float field takes any finite number); other keys pass."""
    hints = get_type_hints(cls)
    for key, value in doc.items():
        if key in hints:
            hint = get_args(hints[key])  # Optional[X] is (X, NoneType)
            kind = optional(_KINDS[hint[0]]) if hint else _KINDS[hints[key]]
            checked(ConfigError, value, kind, f"{where}.{key}")


def _section(name: str, cls: type, doc):
    """The config section `name` as a `cls`, once its keys are fields of `cls`
    and its value types hold."""
    checked(ConfigError, doc, OBJECT, name)
    known = {f.name for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{name} has no field {shown(key)}")
    _check_types(name, cls, doc)
    return cls(**doc)


def load_config(path: Union[str, Path]) -> RunConfig:
    return RunConfig.from_dict(read_json(path, ConfigError))


def save_config(config: RunConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
