"""Grid geometry and Manhattan distance matrices."""

import numpy as np
import pytest

from par.errors import ConfigError
from par.layout import PageLayout, fshape_preset, manhattan_distance_matrix, stacked_preset


class TestStacked:
    def test_coords(self):
        lay = stacked_preset(2, 3)
        assert lay.cells.shape == (2, 3, 2)
        assert tuple(lay.cells[0, 0]) == (0, 0)
        assert tuple(lay.cells[1, 2]) == (1, 2)
        assert lay.roles == ("h1", "h2")

    def test_distance_example(self):
        lay = stacked_preset(2, 2)
        d = manhattan_distance_matrix(lay)
        # slot (0,0) is flat index 0, slot (1,1) is flat index 3
        assert d[0, 3] == 2

    def test_zero_diagonal(self):
        d = manhattan_distance_matrix(stacked_preset(3, 4))
        np.testing.assert_array_equal(np.diag(d), 0)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            stacked_preset(0, 3)


class TestFshape:
    def test_fig_reference_distances(self):
        lay = fshape_preset(v_len=6, h_count=2, h_len=4)
        d = manhattan_distance_matrix(lay)
        m = lay.m

        def flat(i, j):
            return i * m + j

        p1 = flat(1, 0)  # first item, first horizontal list
        pairs = [
            flat(1, 1),  # neighbor in the same list
            flat(1, 2),  # two over in the same list
            flat(0, 0),  # vertical item it sits beside
            flat(0, 1),  # next vertical item down
            flat(2, 1),  # into the next horizontal list
        ]
        assert [d[p1, q] for q in pairs] == [1, 2, 1, 2, 5]

    def test_requires_enough_vertical_items(self):
        with pytest.raises(ConfigError):
            fshape_preset(v_len=2, h_count=3, h_len=4)

    def test_shapes(self):
        lay = fshape_preset(v_len=4, h_count=4, h_len=10)
        assert lay.n == 5
        assert lay.m == 10
        assert lay.lengths == (4, 10, 10, 10, 10)
        assert lay.roles == ("v", "h1", "h2", "h3", "h4")


class TestDistanceMatrixProperties:
    @pytest.mark.parametrize("lay", [
        stacked_preset(4, 10),
        fshape_preset(v_len=5, h_count=3, h_len=6),
        stacked_preset(1, 1),
    ])
    def test_metric_axioms(self, lay):
        d = manhattan_distance_matrix(lay)
        assert d.shape == (lay.n * lay.m,) * 2
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 0)
        assert d.min() >= 0
        # triangle inequality
        nm = d.shape[0]
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9)

    @pytest.mark.parametrize("lay", [stacked_preset(3, 4), fshape_preset(4, 2, 6),
                                     fshape_preset(6, 3, 2), fshape_preset(2, 2, 1),
                                     # the desk and bench pages, the golden F-shape page,
                                     # and the smallest pages the tests build
                                     stacked_preset(4, 10), stacked_preset(2, 4),
                                     fshape_preset(3, 2, 5), stacked_preset(1, 1),
                                     fshape_preset(4, 4, 10)])
    def test_matches_slot_by_slot_reference(self, lay):
        """Each slot's cell by its preset's rule, a padding slot at its list's last item."""
        def cell(i, j):
            j = min(j, lay.lengths[i] - 1)
            if lay.roles[0] != "v":
                return i, j
            return (j, 0) if i == 0 else (4 * (i - 1), j + 1)

        slots = [cell(i, j) for i in range(lay.n) for j in range(lay.m)]
        expected = [[abs(r - r2) + abs(c - c2) for r2, c2 in slots] for r, c in slots]
        np.testing.assert_array_equal(manhattan_distance_matrix(lay), expected)

    def test_list_permutation_equivariance(self):
        base = stacked_preset(3, 2)
        perm = [2, 0, 1]
        shuffled = PageLayout(lengths=(2, 2, 2), roles=base.roles, cells=base.cells[perm])
        d_base = manhattan_distance_matrix(base)
        d_shuf = manhattan_distance_matrix(shuffled)
        m = 2
        for i in range(3):
            for j in range(2):
                for i2 in range(3):
                    for j2 in range(2):
                        assert d_shuf[i * m + j, i2 * m + j2] == \
                            d_base[perm[i] * m + j, perm[i2] * m + j2]

    def test_padding_slots_inherit_tail_coordinate(self):
        lay = fshape_preset(v_len=4, h_count=2, h_len=6)
        np.testing.assert_array_equal(lay.cells[0, 4:], [lay.cells[0, 3]] * 2)
        d = manhattan_distance_matrix(lay)
        m = lay.m
        assert d[0 * m + 5, 0 * m + 3] == 0
