"""Run configuration: typed keys, flat `key = value` config files.

Unknown and repeated keys are errors so typos cannot silently fall back to
defaults or be overridden.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParError
from .layout import PRESETS, PageLayout, fshape_preset, stacked_preset


# Each model of the paper's ablation study and the components it removes:
# dual-side attention (dsa), all of hierarchical dual-side attention (hdsa),
# the distance scaling of spatial-scaled attention (scale), spatial-scaled
# attention (ssa), the dense network (dn) and the MMoE scorer (mmoe).
VARIANTS: dict[str, frozenset[str]] = {
    "PAR": frozenset(),
    "PAR-DSA": frozenset({"dsa"}),
    "PAR-HDSA": frozenset({"hdsa"}),
    "PAR-scale": frozenset({"scale"}),
    "PAR-SSA": frozenset({"ssa"}),
    "PAR-DN": frozenset({"dn"}),
    "PAR-MMoE": frozenset({"mmoe"}),
}


# The only keys that may be 0; every other number, and each layer width, must be positive.
_MAY_BE_ZERO = frozenset({"l2", "epochs", "seed", "ranker_epochs"})


@dataclass
class TrainConfig:
    # optimization
    learning_rate: float = 2e-4
    l2: float = 2e-4
    batch_size: int = 128
    epochs: int = 5
    seed: int = 0

    # page shape
    layout: str = "stacked"
    n: int = 4
    m: int = 10
    t: int = 20
    v_len: int = 4          # fshape: vertical list length
    h_count: int = 4        # fshape: number of horizontal lists
    h_len: int = 10         # fshape: horizontal list length

    # model dims
    d_x: int = 16
    d_h: int = 16
    d_a: int = 16
    d_o: int = 32
    d_r: int = 16
    heads: int = 2
    sigma: float = 0.1
    experts: int = 4
    expert_hidden: tuple[int, ...] = (200, 80)
    tower_hidden: tuple[int, ...] = (80,)
    dense_hidden: tuple[int, ...] = (32,)

    # the paper's model, or one ablation of it (a key of VARIANTS)
    variant: str = "PAR"

    # synthetic data
    train_pages: int = 2000
    test_pages: int = 500
    themes: int = 8
    items_per_theme: int = 50
    true_dim: int = 16
    pos_per_list: int = 3
    user_themes: int = 5
    ranker_epochs: int = 1
    ablate_seeds: int = 5

    def __post_init__(self):
        for f in dataclasses.fields(self):
            name, kind, raw = f.name, type(f.default), getattr(self, f.name)
            value = tuple(raw) if kind is tuple and type(raw) is list else raw  # a JSON list
            if kind is float and type(value) is int:
                value = float(value)
            numbers = value if type(value) is tuple else (value,)
            element = int if kind is tuple else kind  # a bool is not an int
            if type(value) is not kind or any(type(v) is not element for v in numbers):
                what = "a list of int" if kind is tuple else kind.__name__
                raise ConfigError(f"{name} must be {what}, got {raw!r}")
            setattr(self, name, value)
            if kind is str:
                continue
            if not all(math.isfinite(v) for v in numbers):
                raise ConfigError(f"{name} must be finite, got {raw!r}")
            zero_ok = name in _MAY_BE_ZERO
            if any(v < 0 or (v == 0 and not zero_ok) for v in numbers):
                raise ConfigError(f"{name} must be {'>= 0' if zero_ok else 'positive'}, "
                                  f"got {raw!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}' (choose from {list(VARIANTS)})")
        if self.layout not in PRESETS:
            raise ConfigError(f"unknown layout '{self.layout}' (choose from {sorted(PRESETS)})")
        if not self.expert_hidden or not self.tower_hidden:
            raise ConfigError("expert_hidden and tower_hidden must be non-empty")
        if self.themes < self.n:
            raise ConfigError(f"need at least n={self.n} themes, got {self.themes}")
        shortest = min(self.build_layout().lengths)
        if self.pos_per_list > shortest:
            raise ConfigError(f"pos_per_list {self.pos_per_list} exceeds the shortest list's "
                              f"{shortest} items")

    @property
    def d_l(self) -> int:
        return self.d_x + self.d_h

    @property
    def vocab_size(self) -> int:
        return self.themes * self.items_per_theme + 1  # + padding id 0

    @property
    def n_categories(self) -> int:
        return self.themes + 1  # + padding category 0

    def variant_name(self) -> str:
        return self.variant

    def build_layout(self) -> PageLayout:
        lay = (stacked_preset(self.n, self.m) if self.layout == "stacked"
               else fshape_preset(self.v_len, self.h_count, self.h_len))
        if lay.n != self.n or lay.m != self.m:
            raise ConfigError(
                f"layout '{self.layout}' yields n={lay.n}, m={lay.m} but config says "
                f"n={self.n}, m={self.m}")
        return lay

    def to_dict(self) -> dict:
        return {name: list(val) if isinstance(val, tuple) else val
                for name, val in dataclasses.asdict(self).items()}


def with_variant(config: TrainConfig, variant: str) -> TrainConfig:
    return dataclasses.replace(config, variant=variant)


def _parse_value(key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is tuple:  # ints, comma separated
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value '{raw}' for key '{key}'") from None


def parse_config_text(text: str) -> TrainConfig:
    kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key '{key}' repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _parse_value(key, raw, kinds[key])
    return TrainConfig(**values)


def read_text(path: str | Path, undecodable: type[ParError] = ConfigError) -> str:
    """The file's text; unreadable is a ConfigError, undecodable an `undecodable`."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise undecodable(f"{path}: {exc}") from None


def load_config(path: str | Path) -> TrainConfig:
    return parse_config_text(read_text(path))


def config_from_dict(data: dict) -> TrainConfig:
    unknown = set(data) - {f.name for f in dataclasses.fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**data)
