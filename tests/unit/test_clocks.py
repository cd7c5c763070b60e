"""Unit tests for matrix and vector clocks."""

import numpy as np
import pytest

from repro.core.clocks import MatrixClock, VectorClock
from repro.errors import ConfigurationError


class TestMatrixClock:
    def test_starts_at_zero(self):
        c = MatrixClock(3)
        assert np.all(c.m == 0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            MatrixClock(0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            MatrixClock(3, np.zeros((2, 2), dtype=np.int64))

    def test_increment_counts_per_destination(self):
        c = MatrixClock(4)
        c.increment(writer=1, dests=[0, 2])
        assert c[1, 0] == 1
        assert c[1, 2] == 1
        assert c[1, 1] == 0
        assert c[1, 3] == 0

    def test_increment_accumulates(self):
        c = MatrixClock(3)
        c.increment(0, [1])
        c.increment(0, [1, 2])
        assert c[0, 1] == 2
        assert c[0, 2] == 1

    def test_merge_is_pointwise_max(self):
        a, b = MatrixClock(2), MatrixClock(2)
        a.increment(0, [0, 1])
        b.increment(1, [0])
        b.increment(1, [0])
        a.merge(b)
        assert a[0, 0] == 1 and a[0, 1] == 1
        assert a[1, 0] == 2

    def test_merge_idempotent(self):
        a = MatrixClock(3)
        a.increment(0, [1, 2])
        before = a.m.copy()
        a.merge(a.copy())
        assert np.array_equal(a.m, before)

    def test_copy_is_independent(self):
        a = MatrixClock(2)
        b = a.copy()
        b.increment(0, [1])
        assert a[0, 1] == 0

    def test_frozen_copy_rejects_writes(self):
        a = MatrixClock(2)
        f = a.frozen_copy()
        with pytest.raises(ValueError):
            f.m[0, 0] = 5

    def test_merge_from_frozen_source(self):
        a = MatrixClock(2)
        f = a.copy()
        f.increment(1, [0])
        frozen = f.frozen_copy()
        a.merge(frozen)
        assert a[1, 0] == 1

    def test_equality(self):
        a, b = MatrixClock(2), MatrixClock(2)
        assert a == b
        a.increment(0, [0])
        assert a != b

    def test_dominance(self):
        a, b = MatrixClock(2), MatrixClock(2)
        a.increment(0, [0, 1])
        assert a.dominates(b)
        assert not b.dominates(a)
        assert b <= a

    def test_column(self):
        c = MatrixClock(3)
        c.increment(0, [2])
        c.increment(1, [2])
        c.increment(1, [2])
        assert c.column(2).tolist() == [1, 2, 0]

    def test_column_is_copy(self):
        c = MatrixClock(2)
        col = c.column(0)
        col[0] = 99
        assert c[0, 0] == 0

    def test_size_bytes(self):
        assert MatrixClock(5).size_bytes() == 25 * 8
        assert MatrixClock(5).size_bytes(entry_bytes=4) == 25 * 4


class TestVectorClock:
    def test_starts_at_zero(self):
        assert VectorClock(4).v == (0, 0, 0, 0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            VectorClock(-1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            VectorClock(3, np.zeros(2, dtype=np.int64))

    def test_increment(self):
        c = VectorClock(3)
        c.increment(1)
        c.increment(1)
        assert c[1] == 2 and c[0] == 0

    def test_merge(self):
        a, b = VectorClock(2), VectorClock(2)
        a.increment(0)
        b.increment(1)
        a.merge(b)
        assert a[0] == 1 and a[1] == 1

    def test_copy_independent(self):
        a = VectorClock(2)
        b = a.copy()
        b.increment(0)
        assert a[0] == 0

    def test_frozen_copy(self):
        a = VectorClock(2)
        f = a.frozen_copy()
        with pytest.raises(TypeError):
            f.v[0] = 1
        with pytest.raises(ValueError):
            f.increment(0)
        with pytest.raises(ValueError):
            f.merge(VectorClock(2, [3, 3]))
        a.increment(0)  # the original moves on; the snapshot does not
        assert f.v == (0, 0) and a.v == (1, 0)

    def test_dominance_and_le(self):
        a, b = VectorClock(2), VectorClock(2)
        a.increment(0)
        assert a.dominates(b) and b <= a
        b.increment(1)
        assert not a.dominates(b) and not b <= a  # incomparable

    def test_equality(self):
        a, b = VectorClock(3), VectorClock(3)
        assert a == b
        b.increment(2)
        assert a != b

    def test_size_bytes(self):
        assert VectorClock(7).size_bytes() == 56
