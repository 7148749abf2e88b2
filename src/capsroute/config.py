"""The run configuration, every key declared once.

``TrainConfig`` holds the keys one training run reads; ``RunSettings`` adds
the experiment's keys. Each key is a dataclass field: its annotation picks
the config-file parser, its default is the key's default, and ``_key``
metadata adds validation, the CLI flag and snapshot membership. The
config-file reader, the run flags, the validation and the config snapshot
are all derived from these fields.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .training import MODEL_KINDS

__all__ = ["ConfigError", "Key", "KEYS", "RunSettings", "TrainConfig", "config_problems", "parse_bool", "read_config_file", "resolve_run_settings"]


class ConfigError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


def parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def optional_float(raw: str) -> Optional[float]:
    return None if raw.strip().lower() in ("", "none") else float(raw)


def nonempty_path(raw: str) -> Path:
    if not raw:  # Path("") is the working directory, which an empty setting does not mean
        raise ValueError("expected a path, got an empty string")
    return Path(raw)


# field annotation -> parser of a config-file value
_PARSERS = {"int": int, "float": float, "str": str, "bool": parse_bool, "Path": nonempty_path, "Optional[float]": optional_float}


def _key(default, **spec):
    """A field with ``Key`` attributes beyond its name, parser and default."""
    return field(default=default, metadata=spec)


def _at_least(low):
    return (lambda value: value >= low), f">= {low}"


@dataclass
class TrainConfig:
    kind: str = _key("capsnet", name="model", choices=MODEL_KINDS)
    seed: int = _key(0, check=_at_least(0))
    epochs: int = _key(500, check=_at_least(1))
    batch_size: int = _key(32, check=_at_least(1))
    learning_rate: float = _key(1e-3, check=(lambda v: math.isfinite(v) and v > 0, "finite and > 0"))
    # float64 is the verifiable default; float32 trades precision for speed
    precision: str = _key("float64", choices=("float32", "float64"))
    augment: bool = False
    augment_factor: int = _key(3, check=_at_least(1))
    early_stop_train_acc: Optional[float] = _key(None, check=(lambda v: 0.0 < v <= 1.0, "in (0, 1]"))

    def __post_init__(self):
        problems = config_problems(vars(self))
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


# a path holding a NUL byte names no file, and resolving or creating one raises
_NO_NUL = (lambda path: "\0" not in str(path), "a path without a NUL byte")


@dataclass
class RunSettings(TrainConfig):
    dataset: Path = _key(None, required=True, check=_NO_NUL, help="dataset.csv manifest path")
    out_dir: Path = _key(None, required=True, flag="--out", snapshot=False, check=_NO_NUL, help="output directory for all artifacts")
    folds: int = _key(5, check=_at_least(2))
    train_frac: float = _key(0.8, check=(lambda v: 0.0 < v < 1.0, "in (0, 1)"))
    split_mode: str = _key("holdout", choices=("holdout", "partition"))
    subject_grouped: bool = False

    def __post_init__(self):
        super().__post_init__()
        # resolved once, so the snapshot names the file itself, whatever the working directory
        self.dataset = Path(os.path.realpath(self.dataset))

    def snapshot_values(self) -> dict[str, str]:
        """The snapshot's values as text, by key name in sorted order."""
        return {key.name: str(getattr(self, key.attr)) for key in sorted(KEYS.values(), key=lambda key: key.name) if key.snapshot}

    def snapshot(self) -> str:
        """Sorted ``key=value`` lines: a config file that, given ``--out``, reruns this experiment."""
        return "".join(f"{name}={value}\n" for name, value in self.snapshot_values().items())


@dataclass(frozen=True)
class Key:
    """One run key, read from a field of RunSettings."""

    attr: str
    name: str  # config-file and snapshot key, and the argparse dest
    parse: Callable[[str], Any]
    default: Any
    choices: Optional[tuple] = None
    check: Optional[tuple] = None  # (predicate, rule text)
    required: bool = False
    flag: Optional[str] = None  # when not derived from the name
    snapshot: bool = True
    help: Optional[str] = None

    @classmethod
    def of(cls, f) -> "Key":
        spec = dict(f.metadata)
        return cls(attr=f.name, name=spec.pop("name", f.name), parse=_PARSERS[f.type], default=f.default, **spec)

    @property
    def option(self) -> str:
        """The CLI flag."""
        return self.flag or "--" + self.name.replace("_", "-")

    def problem(self, value) -> Optional[str]:
        if value is None:
            return f"missing required setting {self.name!r} (config key or {self.option})" if self.required else None
        if self.choices is not None and value not in self.choices:
            return f"{self.name} must be one of {self.choices}, got {value!r}"
        if self.check is not None and not self.check[0](value):
            return f"{self.name} must be {self.check[1]}, got {value!r}"
        return None


KEYS = {f.name: Key.of(f) for f in fields(RunSettings)}  # by field name
_BY_NAME = {key.name: key for key in KEYS.values()}


def config_problems(values: dict) -> list[str]:
    """Every problem with ``values`` (field name -> value)."""
    problems = [KEYS[attr].problem(value) for attr, value in values.items()]
    return [p for p in problems if p is not None]


def read_config_file(path: Path) -> dict:
    """key=value lines of UTF-8 text; '#' comments and blank lines ignored, and no key given twice."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not text
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    found = {}  # key -> (the line that gave it, its value)
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        if not sep:
            errors.append(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        elif key in found:
            errors.append(f"{path}:{lineno}: key {key!r} given again, first on line {found[key][0]}")
        else:
            found[key] = (lineno, raw.strip())
    if errors:
        raise ConfigError(errors)
    return {key: raw for key, (_, raw) in found.items()}


def resolve_run_settings(file_values: dict, flag_values: dict) -> RunSettings:
    """Defaults, then config-file values (raw strings), then the CLI flags that were given.

    Both inputs are keyed by key name. Raises ConfigError listing every problem.
    """
    problems = []
    resolved = {key.attr: key.default for key in KEYS.values()}
    for name, raw in file_values.items():
        if name not in _BY_NAME:
            problems.append(f"unknown config key {name!r}")
            continue
        try:
            resolved[_BY_NAME[name].attr] = _BY_NAME[name].parse(raw)
        except ValueError as exc:
            problems.append(f"config key {name!r}: {exc}")
    resolved.update((_BY_NAME[name].attr, value) for name, value in flag_values.items() if value is not None)
    problems += config_problems(resolved)
    if problems:
        raise ConfigError(problems)
    return RunSettings(**resolved)
