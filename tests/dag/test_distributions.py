"""Tests for 1D block distributions and redistribution matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.distributions import (
    BlockDistribution,
    redistribution_matrix,
    redistribution_messages,
    redistribution_volume,
)
from repro.dag.kernels import BYTES_PER_ELEMENT, matrix_bytes


class TestBlockDistribution:
    def test_intervals_tile_the_matrix(self):
        d = BlockDistribution(10, 3)
        intervals = [d.interval(k) for k in range(3)]
        assert intervals[0][0] == 0
        assert intervals[-1][1] == 10
        for (a, b), (c, _d2) in zip(intervals, intervals[1:]):
            assert b == c

    def test_balanced_within_one_column(self):
        d = BlockDistribution(3000, 16)
        cols = [d.columns(k) for k in range(16)]
        assert max(cols) - min(cols) <= 1

    def test_naive_last_rank_gets_remainder(self):
        d = BlockDistribution(3000, 16, naive=True)
        assert d.columns(0) == 187
        assert d.columns(15) == 3000 - 15 * 187  # 195

    def test_naive_imbalance_exceeds_balanced(self):
        naive = BlockDistribution(3000, 16, naive=True).imbalance()
        balanced = BlockDistribution(3000, 16).imbalance()
        assert naive > balanced
        assert naive == pytest.approx(195 / 187.5)

    def test_bytes_owned(self):
        d = BlockDistribution(100, 4)
        assert d.bytes_owned(0) == 25 * 100 * BYTES_PER_ELEMENT

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            BlockDistribution(10, 2).interval(2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BlockDistribution(0, 1)
        with pytest.raises(ValueError):
            BlockDistribution(10, 0)

    @given(
        n=st.integers(min_value=1, max_value=5000),
        p=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiling_property(self, n, p):
        d = BlockDistribution(n, p)
        total = sum(d.columns(k) for k in range(p))
        assert total == n


class TestRedistributionMatrix:
    def test_identity_when_distributions_match(self):
        M = redistribution_matrix(100, 4, 4)
        # Same split on both sides: only the diagonal carries data.
        off_diag = M - np.diag(np.diag(M))
        assert np.all(off_diag == 0)
        assert np.trace(M) == matrix_bytes(100)

    def test_total_volume_is_one_matrix(self):
        for p_src, p_dst in [(1, 4), (4, 1), (3, 5), (8, 2), (7, 7)]:
            assert redistribution_volume(120, p_src, p_dst) == matrix_bytes(120)

    def test_row_sums_match_source_ownership(self):
        n, p_src, p_dst = 100, 3, 5
        M = redistribution_matrix(n, p_src, p_dst)
        src = BlockDistribution(n, p_src)
        for i in range(p_src):
            assert M[i].sum() == pytest.approx(src.bytes_owned(i))

    def test_column_sums_match_destination_ownership(self):
        n, p_src, p_dst = 100, 5, 3
        M = redistribution_matrix(n, p_src, p_dst)
        dst = BlockDistribution(n, p_dst)
        for j in range(p_dst):
            assert M[:, j].sum() == pytest.approx(dst.bytes_owned(j))

    def test_one_to_many_scatter(self):
        n, p_dst = 100, 4
        M = redistribution_matrix(n, 1, p_dst)
        assert M.shape == (1, p_dst)
        assert np.all(M[0] == matrix_bytes(n) / p_dst)

    def test_many_to_one_gather(self):
        n, p_src = 100, 4
        M = redistribution_matrix(n, p_src, 1)
        assert M.shape == (p_src, 1)
        assert M.sum() == matrix_bytes(n)

    def test_locality_no_spurious_messages(self):
        # With nested splits (p_dst a multiple of p_src), every source
        # rank only talks to its own sub-ranks.
        n, p_src, p_dst = 64, 2, 4
        M = redistribution_matrix(n, p_src, p_dst)
        assert M[0, 2] == 0 and M[0, 3] == 0
        assert M[1, 0] == 0 and M[1, 1] == 0

    @given(
        n=st.integers(min_value=1, max_value=2000),
        p_src=st.integers(min_value=1, max_value=32),
        p_dst=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, n, p_src, p_dst):
        M = redistribution_matrix(n, p_src, p_dst)
        assert M.shape == (p_src, p_dst)
        assert M.sum() == pytest.approx(matrix_bytes(n))
        assert np.all(M >= 0)

    @given(
        n=st.integers(min_value=2, max_value=1000),
        p=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_column_marginals_property(self, n, p):
        q = max(1, p // 2)
        M = redistribution_matrix(n, p, q)
        src = BlockDistribution(n, p)
        dst = BlockDistribution(n, q)
        for i in range(p):
            assert M[i].sum() == pytest.approx(src.bytes_owned(i))
        for j in range(q):
            assert M[:, j].sum() == pytest.approx(dst.bytes_owned(j))


def _overlap_matrix(n, p_src, p_dst):
    """The redistribution matrix from ``BlockDistribution.interval``
    overlaps, cell by cell."""
    src = [BlockDistribution(n, p_src).interval(i) for i in range(p_src)]
    dst = [BlockDistribution(n, p_dst).interval(j) for j in range(p_dst)]
    return [
        [
            max(0, min(s_hi, d_hi) - max(s_lo, d_lo)) * n * BYTES_PER_ELEMENT
            for d_lo, d_hi in dst
        ]
        for s_lo, s_hi in src
    ]


class TestRedistributionMessages:
    @pytest.mark.parametrize("n", [7, 100, 2000, 3000])
    def test_rows_are_the_positive_matrix_entries(self, n):
        for p_src in range(1, 33):
            for p_dst in range(1, 33):
                dense = _overlap_matrix(n, p_src, p_dst)
                rows = redistribution_messages(n, p_src, p_dst)
                assert rows == [
                    [(j, float(b)) for j, b in enumerate(row) if b > 0]
                    for row in dense
                ], (n, p_src, p_dst)
                assert redistribution_matrix(n, p_src, p_dst).tolist() == dense

    def test_entries_are_floats(self):
        # The simulator adds them into float link totals and records
        # the backbone total as a float volume.
        for row in redistribution_messages(100, 3, 5):
            assert all(type(b) is float for _j, b in row)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            redistribution_messages(0, 1, 1)
        with pytest.raises(ValueError):
            redistribution_messages(10, 1, 0)
