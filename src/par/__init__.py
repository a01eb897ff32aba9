"""Page-level attentional reranking at desk scale."""

from .config import TrainConfig, load_config, with_variant
from .data_oracle import (Catalog, ClickOracle, PageTable, build_dataset, load_catalog,
                          load_pages)
from .layout import fshape_preset, manhattan_distance_matrix, stacked_preset
from .model import ParModel
from .trainer import Checkpoint, evaluate, gradcheck, train

__version__ = "0.1.0"

__all__ = [
    "Catalog", "Checkpoint", "ClickOracle", "PageTable", "ParModel", "TrainConfig",
    "build_dataset", "evaluate", "fshape_preset", "gradcheck", "load_catalog",
    "load_config", "load_pages", "manhattan_distance_matrix", "stacked_preset",
    "train", "with_variant", "__version__",
]
