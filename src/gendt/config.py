"""Run configuration: one JSON document wiring the whole pipeline together.

The file round-trips losslessly and every replay report embeds the resolved
form as an audit trail. Only the credential is ever read from the
environment; numeric parameters never are.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

from .codec import DEFAULT_PROMPT_TEMPLATE, EncodingSpec, MissingPlaceholder, build_prompt
from .controller import ControlThresholds
from .errors import GendtError
from .forecast import BackendConfig

HEALTH_SCOPES = ("session", "run")


class ConfigError(GendtError):
    pass


@dataclass(frozen=True)
class FilterParams:
    cutoff_hz: float = 8.0
    order: int = 4
    zero_phase: bool = False

    def __post_init__(self) -> None:
        # the cutoff-vs-Nyquist check needs the graph's sample rate; dsp makes it
        if not self.cutoff_hz > 0:
            raise ConfigError(f"filter cutoff_hz must be > 0, got {self.cutoff_hz}")
        if not self.order >= 1:
            raise ConfigError(f"filter order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class DownsampleParams:
    """Exactly one of factor / target_rate_hz; a target rate resolves to
    round(sample_rate / target_rate) with a floor of 1."""

    factor: Optional[int] = None
    target_rate_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.factor is None) == (self.target_rate_hz is None):
            raise ConfigError("downsample needs exactly one of factor or target_rate_hz")
        if self.factor is not None and not self.factor >= 1:
            raise ConfigError(f"downsample factor must be >= 1, got {self.factor}")
        if self.target_rate_hz is not None and not self.target_rate_hz > 0:
            raise ConfigError(f"downsample target_rate_hz must be > 0, got {self.target_rate_hz}")


@dataclass(frozen=True)
class EnsembleParams:
    attempts: int = 10
    temperature: Optional[float] = None  # None: resolved from the model profile
    top_p: float = 1.0


def default_temperature(model_name: str) -> float:
    """Sampling temperature by model profile: 1.0 for gpt-4-like models,
    0.7 otherwise (the gpt-3.5-like profile)."""
    return 1.0 if "gpt-4" in model_name.lower() else 0.7


@dataclass(frozen=True)
class RunConfig:
    backend: BackendConfig
    thresholds: ControlThresholds
    filter: FilterParams = field(default_factory=FilterParams)
    downsample: DownsampleParams = field(default_factory=lambda: DownsampleParams(target_rate_hz=20.0))
    encoding: EncodingSpec = field(default_factory=EncodingSpec)
    ensemble: EnsembleParams = field(default_factory=EnsembleParams)
    history_depth: int = 4
    min_history: int = 4
    prompt_template_path: Optional[str] = None
    rng_seed: int = 42
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
            build_prompt("", template)  # raises MissingPlaceholder unless it occurs once
        except (OSError, UnicodeDecodeError, MissingPlaceholder) as exc:
            raise ConfigError(f"prompt template {self.prompt_template_path}: {exc}") from exc
        return template

    def to_dict(self) -> dict:
        return {
            "backend": asdict(self.backend),
            "thresholds": asdict(self.thresholds),
            "filter": asdict(self.filter),
            "downsample": asdict(self.downsample),
            "encoding": asdict(self.encoding),
            "ensemble": asdict(self.ensemble),
            "history_depth": self.history_depth,
            "min_history": self.min_history,
            "prompt_template_path": self.prompt_template_path,
            "rng_seed": self.rng_seed,
            "halt_on_stop": self.halt_on_stop,
            "health_scope": self.health_scope,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            backend_doc = dict(doc["backend"])
            backend_doc.setdefault("rng_seed", doc.get("rng_seed", 42))
            return cls(
                backend=BackendConfig(**backend_doc),
                thresholds=ControlThresholds(**doc["thresholds"]),
                filter=FilterParams(**doc.get("filter", {})),
                downsample=DownsampleParams(**doc.get("downsample", {"target_rate_hz": 20.0})),
                encoding=EncodingSpec(**doc.get("encoding", {})),
                ensemble=EnsembleParams(**doc.get("ensemble", {})),
                history_depth=int(doc.get("history_depth", 4)),
                min_history=int(doc.get("min_history", 4)),
                prompt_template_path=doc.get("prompt_template_path"),
                rng_seed=int(doc.get("rng_seed", 42)),
                halt_on_stop=bool(doc.get("halt_on_stop", False)),
                health_scope=doc.get("health_scope", "session"),
            )
        except (KeyError, TypeError, ValueError, GendtError) as exc:
            raise ConfigError(f"invalid run configuration: {exc}") from exc


def load_config(path: Union[str, Path]) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_dict(doc)


def save_config(config: RunConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
