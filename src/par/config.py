"""Run configuration: typed keys, flat `key = value` config files.

Unknown keys are errors so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
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
        positive = ["learning_rate", "batch_size", "n", "m", "t",
                    "d_x", "d_h", "d_a", "d_o", "d_r", "heads", "sigma", "experts",
                    "train_pages", "test_pages", "themes", "items_per_theme",
                    "true_dim", "pos_per_list", "user_themes", "ablate_seeds"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ["l2", "epochs", "seed"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}' (choose from {list(VARIANTS)})")
        if self.layout not in PRESETS:
            raise ConfigError(f"unknown layout '{self.layout}' (choose from {sorted(PRESETS)})")
        if not self.expert_hidden or not self.tower_hidden:
            raise ConfigError("expert_hidden and tower_hidden must be non-empty")
        if self.pos_per_list > self.m:
            raise ConfigError("pos_per_list cannot exceed the list length m")
        if self.themes < self.n:
            raise ConfigError(f"need at least n={self.n} themes, got {self.themes}")

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
        if self.layout == "stacked":
            lay = stacked_preset(self.n, self.m)
        else:
            lay = fshape_preset(self.v_len, self.h_count, self.h_len)
        if lay.n != self.n or lay.m != self.m:
            raise ConfigError(
                f"layout '{self.layout}' yields n={lay.n}, m={lay.m} but config says "
                f"n={self.n}, m={self.m}")
        return lay

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


def with_variant(config: TrainConfig, variant: str) -> TrainConfig:
    return dataclasses.replace(config, variant=variant)


def _parse_value(key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        # tuple of ints, comma separated
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"cannot parse value '{raw}' for key '{key}'") from None


def parse_config_text(text: str) -> TrainConfig:
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        default = getattr(TrainConfig, key, None)
        kind = type(default) if default is not None else fields[key].type
        values[key] = _parse_value(key, raw, kind)
    return TrainConfig(**values)


def load_config(path: str | Path) -> TrainConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    return parse_config_text(text)


def config_from_dict(data: dict) -> TrainConfig:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    coerced = dict(data)
    for key in ("expert_hidden", "tower_hidden", "dense_hidden"):
        if key in coerced and isinstance(coerced[key], list):
            coerced[key] = tuple(coerced[key])
    return TrainConfig(**coerced)
