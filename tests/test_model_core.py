import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap.model_core import (
    DataSummary,
    Hyperparams,
    Shrinkage,
    _sq_dev_sum,
    summarize,
)
from scalar_chain import ThetaStats


class TestSummarize:
    def test_hand_values_simple(self):
        d = summarize([1.0, 2.0, 3.0])
        assert d.n == 3 and d.r == 1
        assert d.y_bar == pytest.approx(2.0)
        assert d.delta == pytest.approx(2.0)

    def test_constant_data_has_zero_spread(self):
        d = summarize([4.2] * 10)
        assert d.delta == 0.0 and d.delta_prime == 0.0

    def test_hand_values_replicated(self):
        d = summarize([[0.0, 0.0], [2.0, 2.0]])
        assert d.y_bar == pytest.approx(1.0)
        assert d.group_means == pytest.approx([0.0, 2.0])
        assert d.delta_prime == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=50)
        d1 = summarize(y)
        d2 = summarize(rng.permutation(y))
        assert d1.y_bar == pytest.approx(d2.y_bar)
        assert d1.delta == pytest.approx(d2.delta)

        m = rng.normal(size=(6, 4))
        d3 = summarize(m)
        shuffled = m[rng.permutation(6)][:, rng.permutation(4)]
        d4 = summarize(shuffled)
        assert d3.y_bar == pytest.approx(d4.y_bar)
        assert d3.delta == pytest.approx(d4.delta)
        assert d3.delta_prime == pytest.approx(d4.delta_prime)
        assert sorted(d3.group_means) == pytest.approx(sorted(d4.group_means))

    def test_errors(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0])
        with pytest.raises(ValueError):
            summarize([[1.0, 2.0], [3.0]])
        for y in (np.array(1.0), np.ones((3, 2, 2))):
            with pytest.raises(ValueError, match=r"vector or an n-by-r matrix, got shape \("):
                summarize(y)
        with pytest.raises(ValueError, match="row 3"):
            summarize([1.0, 2.0, math.nan, 4.0])
        with pytest.raises(ValueError, match="row 1"):
            summarize([math.inf, 2.0])
        with pytest.raises(ValueError, match="row 2"):
            summarize([[1.0, 2.0], [3.0, -math.inf], [math.nan, 0.0]])

    def test_the_array_states_the_shape(self):
        m = np.arange(15.0).reshape(5, 3)
        d = summarize(m)
        assert (d.n, d.r) == (5, 3)
        assert d.group_means.tolist() == [1.0, 4.0, 7.0, 10.0, 13.0]
        # An n-by-1 matrix is the vector: r = 1, the same summary.
        col, vec = summarize(m[:, :1]), summarize(m[:, 0])
        assert (col.n, col.r) == (5, 1)
        assert col.group_means.tolist() == vec.group_means.tolist()
        assert (col.y_bar, col.delta, col.delta_prime) == (vec.y_bar, vec.delta, vec.delta_prime)
        # ... down to the value a non-finite row's error names (a file is read as n-by-1).
        m[2, 0] = math.nan
        for y in (m[:, :1], m[:, 0]):
            with pytest.raises(ValueError) as info:
                summarize(y)
            assert str(info.value) == "non-finite value in row 3: nan"

    @pytest.mark.parametrize("y", [
        [1e308, -1e308, 1.5e308, -1.2e308, 0.0],  # finite mean, spread overflows
        [1.5e308, 1.5e308, 1e308],  # the sum behind the mean overflows
        [[1e308, -1e308], [-1e308, 1e308]],  # delta overflows, delta_prime does not
    ])
    def test_overflowing_summary_is_rejected_without_warning(self, y):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows a double"):
            summarize(y)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_last_row_is_named(self, r, bad):
        y = np.random.default_rng(2).normal(size=((1 << 17) + 3, r))
        y[-1, -1] = bad
        with pytest.raises(ValueError) as info:
            summarize(y[:, 0] if r == 1 else y)
        row = bad if r == 1 else y[-1].tolist()
        assert str(info.value) == f"non-finite value in row {len(y)}: {row}"

    def test_overflow_message_names_the_summary(self):
        y = [1e308, -1e308, 1.5e308, -1.2e308, 0.0]
        with pytest.raises(ValueError) as info:
            summarize(y)
        assert str(info.value) == (
            f"the data's summary overflows a double (y_bar={float(np.mean(y))}, delta=inf, "
            "delta_prime=inf); rescale the data"
        )

    @pytest.mark.parametrize("r", [1, 2])
    def test_group_means_are_read_only(self, r):
        d = summarize(np.random.default_rng(1).normal(size=(10, r)))
        assert not d.group_means.flags.writeable

    def test_a_callers_array_is_copied_once(self):
        y = np.random.default_rng(1).normal(size=1 << 20)
        d = summarize(y)
        before = (d.y_bar, d.delta, d.group_means.tolist())
        y[:] = 0.0
        assert (d.y_bar, d.delta, d.group_means.tolist()) == before
        assert y.flags.writeable
        # A read-only array cannot change under the summary: it is not copied.
        y.flags.writeable = False
        assert summarize(y).group_means.base is y
        # A writeable array is copied, a list or a cast makes a new array:
        # either way the summary holds one copy and makes no other.
        for data in (np.array(y), y.tolist(), y.astype(np.float32)):
            tracemalloc.start()
            try:
                summarize(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * y.nbytes


class TestBlockedSpread:
    """summarize's delta is `np.sum((x - c) ** 2)` taken in blocks that
    follow numpy's pairwise split.  If numpy changes that split, these
    fail rather than the summaries moving by a rounding."""

    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 3, 10**6 + 7])
    def test_equals_the_full_size_sum_bit_for_bit(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, n)
        c = float(x.mean())
        assert _sq_dev_sum(x, c) == float(np.sum((x - c) ** 2))

    @pytest.mark.parametrize("r", [2, 3])
    def test_replicated_delta_equals_the_full_size_sum(self, r):
        y = np.random.default_rng(r).normal(3.0, 2.0, (300_007, r))
        d = summarize(y)
        assert d.delta == float(np.sum((y - d.y_bar) ** 2))
        assert d.delta_prime == float(np.sum((y.mean(axis=1) - d.y_bar) ** 2))


# Data on a dyadic grid: integers up to 2^20 times 2^k.  Sums of such values
# are exact in a double, so a shift by a grid value moves every observation
# exactly and the checks below measure summarize, not the input's rounding.
_grid_data = st.tuples(
    st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=300),
    st.integers(-20, 20),
)


class TestSummarizeProperties:
    @settings(deadline=None)
    @given(_grid_data, st.randoms(use_true_random=False))
    def test_permutation_leaves_the_summary_unchanged(self, data, random):
        values, k = data
        y = np.array(values, dtype=float) * 2.0**k
        shuffled = y.copy()
        random.shuffle(shuffled)
        d, e = summarize(y), summarize(shuffled)
        assert e.n == d.n
        assert e.y_bar == pytest.approx(d.y_bar, rel=1e-12, abs=1e-12 * np.abs(y).max())
        assert e.delta == pytest.approx(d.delta, rel=1e-12)

    @settings(deadline=None)
    @given(_grid_data, st.integers(-2**20, 2**20))
    def test_shift_moves_only_the_mean(self, data, c):
        values, k = data
        y = np.array(values, dtype=float) * 2.0**k
        shift = c * 2.0**k
        d, e = summarize(y), summarize(y + shift)
        scale = np.abs(y).max() + abs(shift)
        assert e.y_bar == pytest.approx(d.y_bar + shift, rel=1e-12, abs=1e-12 * scale)
        assert e.delta == pytest.approx(d.delta, rel=1e-9)


class TestTypes:
    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(a=0.0, b=1.0, V=1.0)
        with pytest.raises(ValueError):
            Hyperparams(a=1.0, b=1.0, V=-1.0)
        with pytest.raises(ValueError):
            Shrinkage(w=0.0, z=0.0)
        assert Hyperparams(1.0, 1.0, 4.0).U == pytest.approx(0.25)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            ThetaStats(0.0, -1.0)
        with pytest.raises(ValueError):
            DataSummary(r=1, y_bar=0.0, group_means=np.zeros(1), delta=0.0, delta_prime=0.0)
        assert DataSummary(r=1, y_bar=0.0, group_means=np.zeros(3), delta=0.0, delta_prime=0.0).n == 3
