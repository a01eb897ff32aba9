"""Page geometries: grid cells per slot and Manhattan distance matrices.

A page holds n lists padded to m slots each. Every real slot sits on one
integer (row, col) grid cell; padding slots repeat the cell of their list's
last real slot (they are masked out of attention, so the value is inert but
keeps the distance matrix total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class PageLayout:
    """Geometric arrangement of n lists on a page."""

    lengths: tuple[int, ...]
    roles: tuple[str, ...]
    cells: np.ndarray  # (n, m, 2) int (row, col) of slot (i, j)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        return self.cells.shape[1]


def manhattan_distance_matrix(layout: PageLayout) -> np.ndarray:
    """Symmetric nm x nm integer matrix of |dr| + |dc| between flattened slots.

    Flattened index of slot (i, j) is i * m + j.
    """
    rc = layout.cells.reshape(-1, 2)
    return np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2)


def stacked_preset(n: int, m: int) -> PageLayout:
    """n horizontal lists stacked top to bottom; list i item j sits at (i, j)."""
    if n < 1 or m < 1:
        raise ConfigError(f"stacked layout needs n, m >= 1, got n={n}, m={m}")
    return PageLayout(lengths=(m,) * n, roles=tuple(f"h{i + 1}" for i in range(n)),
                      cells=np.moveaxis(np.indices((n, m)), 0, -1))


def fshape_preset(v_len: int, h_count: int, h_len: int) -> PageLayout:
    """One vertical list interleaved with h_count horizontal lists.

    Vertical item j occupies (j, 0). Horizontal list i occupies row 4*i,
    columns 1..h_len, sharing its row with the vertical item beside it; three
    vertical items separate consecutive horizontal lists. This grid yields
    1, 2, 1, 2, 5 for the five reference position pairs used in tests
    (first/second/third items of the first horizontal list, first/second
    vertical items, second item of the second horizontal list).
    """
    if v_len < h_count:
        raise ConfigError(f"fshape needs v_len >= h_count, got v_len={v_len}, h_count={h_count}")
    if h_count < 1 or h_len < 1:
        raise ConfigError(f"fshape needs h_count, h_len >= 1, got {h_count}, {h_len}")
    j = np.arange(max(v_len, h_len))
    cells = np.zeros((1 + h_count, len(j), 2), dtype=np.int64)
    cells[0, :, 0] = np.minimum(j, v_len - 1)
    cells[1:, :, 0] = 4 * np.arange(h_count)[:, None]
    cells[1:, :, 1] = np.minimum(j, h_len - 1) + 1
    return PageLayout(lengths=(v_len,) + (h_len,) * h_count,
                      roles=("v",) + tuple(f"h{i + 1}" for i in range(h_count)),
                      cells=cells)


PRESETS = {"stacked": stacked_preset, "fshape": fshape_preset}
