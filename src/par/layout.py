"""Page geometries: grid coordinates per slot and Manhattan distance matrices.

A page holds n lists padded to m slots each. Every real slot maps to one
integer (row, col) grid cell; padding slots reuse the coordinates of their
list's last real slot (they are masked out of attention, so the value is
inert but keeps the distance matrix total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class PageLayout:
    """Geometric arrangement of n lists on a page."""

    n: int
    m: int
    lengths: tuple[int, ...]
    coords: dict[tuple[int, int], tuple[int, int]]
    roles: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError(f"layout needs n, m >= 1, got n={self.n}, m={self.m}")
        if len(self.lengths) != self.n or len(self.roles) != self.n:
            raise ConfigError("per-list metadata must have one entry per list")
        seen = set()
        for i in range(self.n):
            if not 1 <= self.lengths[i] <= self.m:
                raise ConfigError(f"list {i} length {self.lengths[i]} outside [1, {self.m}]")
            for j in range(self.lengths[i]):
                rc = self.coords.get((i, j))
                if rc is None:
                    raise ConfigError(f"slot ({i}, {j}) has no coordinate")
                if rc[0] < 0 or rc[1] < 0:
                    raise ConfigError(f"slot ({i}, {j}) has negative coordinate {rc}")
                if rc in seen:
                    raise ConfigError(f"coordinate {rc} assigned twice")
                seen.add(rc)

    def slot_coord(self, i: int, j: int) -> tuple[int, int]:
        """Coordinate of slot j in list i; padding slots map to the list's tail."""
        j_eff = min(j, self.lengths[i] - 1)
        return self.coords[(i, j_eff)]


def manhattan_distance_matrix(layout: PageLayout) -> np.ndarray:
    """Symmetric nm x nm integer matrix of |dr| + |dc| between flattened slots.

    Flattened index of slot (i, j) is i * m + j.
    """
    nm = layout.n * layout.m
    rc = np.empty((nm, 2), dtype=np.int64)
    for i in range(layout.n):
        for j in range(layout.m):
            rc[i * layout.m + j] = layout.slot_coord(i, j)
    return np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2)


def stacked_preset(n: int, m: int) -> PageLayout:
    """n horizontal lists stacked top to bottom; list i item j sits at (i, j)."""
    if n < 1 or m < 1:
        raise ConfigError(f"stacked layout needs n, m >= 1, got n={n}, m={m}")
    coords = {(i, j): (i, j) for i in range(n) for j in range(m)}
    return PageLayout(
        n=n,
        m=m,
        lengths=(m,) * n,
        coords=coords,
        roles=tuple(f"h{i + 1}" for i in range(n)),
    )


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
    coords: dict[tuple[int, int], tuple[int, int]] = {}
    for j in range(v_len):
        coords[(0, j)] = (j, 0)
    for i in range(h_count):
        for j in range(h_len):
            coords[(1 + i, j)] = (4 * i, j + 1)
    return PageLayout(
        n=1 + h_count,
        m=max(v_len, h_len),
        lengths=(v_len,) + (h_len,) * h_count,
        coords=coords,
        roles=("v",) + tuple(f"h{i + 1}" for i in range(h_count)),
    )


PRESETS = {"stacked": stacked_preset, "fshape": fshape_preset}
