import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap.data_io import SimConfig, simulate
from gibbsgap.model_core import Hyperparams
from gibbsgap.simple_gibbs import SimpleModelTraceChain
from gibbsgap.spectral_estimator import (
    CHUNK_SIZE,
    DOMINANCE_THRESHOLD,
    Ar1TraceChain,
    Status,
    Workspace,
    _chunk_sums,
    _merge,
    ar1_matched_proposal_sd,
    ar1_oracle_exact,
    estimate,
    estimate_scan,
    u_from_s,
)


class _ConstantWeights:
    """Degenerate spec: every weight equals `value`."""

    def __init__(self, value):
        self.value = value

    def draw_log_weights(self, L, size, rng, *, workspace=None):
        return np.full((L, size), math.log(self.value))


class _LogWeights:
    """Fake spec whose first log weight is `first` and the rest `rest`."""

    def __init__(self, first, rest):
        self.first, self.rest = first, rest

    def draw_log_weights(self, L, size, rng, *, workspace=None):
        out = np.full((L, size), self.rest)
        out[:, 0] = self.first
        return out


class _NanInChunk:
    """Fake spec: every log weight is 0 except one NaN in chunk `chunk`.
    Serial runs draw the chunks in order, so the call count names the chunk."""

    def __init__(self, chunk):
        self.chunk, self.calls = chunk, 0

    def draw_log_weights(self, L, size, rng, *, workspace=None):
        out = np.zeros((L, size))
        if self.calls == self.chunk:
            out[:, size // 2] = math.nan
        self.calls += 1
        return out


class TestOracleExact:
    def test_hand_values(self):
        s, u = ar1_oracle_exact(0.5, 2)
        assert s == pytest.approx(4.0 / 3.0)
        assert u == pytest.approx(math.sqrt(1.0 / 3.0))
        s, u = ar1_oracle_exact(0.9, 1)
        assert s == pytest.approx(10.0)
        assert u == pytest.approx(9.0)
        _, u = ar1_oracle_exact(0.25, 2)
        assert u == pytest.approx(0.25 / math.sqrt(1 - 0.0625))

    def test_bound_approaches_second_eigenvalue(self):
        _, u = ar1_oracle_exact(0.5, 50)
        assert abs(u - 0.5) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            ar1_oracle_exact(1.0, 2)
        with pytest.raises(ValueError):
            ar1_oracle_exact(0.0, 2)
        with pytest.raises(ValueError):
            ar1_oracle_exact(0.5, 0)


class TestUFromS:
    def test_hand_values(self):
        u, _ = u_from_s(4.0 / 3.0, 0.0, 2)
        assert u == pytest.approx(0.5773502691896258)
        u, _ = u_from_s(2.0, 0.0, 1)
        assert u == pytest.approx(1.0)

    def test_delta_method_se(self):
        u, use = u_from_s(4.0 / 3.0, 0.01, 2)
        assert use == pytest.approx(u * 0.01 / (2 * (1.0 / 3.0)))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            u_from_s(1.0, 0.1, 2)
        with pytest.raises(ValueError):
            u_from_s(0.5, 0.1, 2)


class TestEstimate:
    def test_ar1_recovers_exact_sum(self):
        spec = Ar1TraceChain(0.5, ar1_matched_proposal_sd(0.5, 2))
        est = estimate(spec, 2, 100_000, np.random.default_rng(0))
        s_exact, _ = ar1_oracle_exact(0.5, 2)
        assert est.status is Status.OK
        assert abs(est.s_hat - s_exact) < 3 * est.s_se

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_ar1_grid_rho_half(self, l):
        spec = Ar1TraceChain(0.5, ar1_matched_proposal_sd(0.5, l))
        est = estimate(spec, l, 100_000, np.random.default_rng(l))
        s_exact, _ = ar1_oracle_exact(0.5, l)
        assert abs(est.s_hat - s_exact) < 3 * est.s_se

    def test_u_bound_value(self):
        spec = Ar1TraceChain(0.25, ar1_matched_proposal_sd(0.25, 2))
        est = estimate(spec, 2, 100_000, np.random.default_rng(3))
        _, u_exact = ar1_oracle_exact(0.25, 2)
        assert abs(est.u_hat - u_exact) < 3 * est.u_se

    def test_constant_weights_degenerate(self):
        est = estimate(_ConstantWeights(3.0), 2, 1000, np.random.default_rng(0))
        assert est.s_hat == pytest.approx(3.0, rel=1e-12)
        assert est.s_se == 0.0
        assert est.status is Status.OK
        est = estimate(_ConstantWeights(0.5), 2, 1000, np.random.default_rng(0))
        assert est.status is Status.S_NOT_ABOVE_ONE
        assert est.u_hat is None and est.u_se is None

    def test_fixed_seed_reproducible(self):
        spec = Ar1TraceChain(0.5, 1.5)
        a = estimate(spec, 2, 50_000, np.random.default_rng(5))
        b = estimate(spec, 2, 50_000, np.random.default_rng(5))
        assert a == b

    def test_worker_count_never_changes_numbers(self):
        spec = Ar1TraceChain(0.5, 1.5)
        serial = estimate(spec, 2, 50_000, np.random.default_rng(6), workers=1)
        for workers in (2, 4, 8):
            parallel = estimate(spec, 2, 50_000, np.random.default_rng(6), workers=workers)
            assert parallel.s_hat == serial.s_hat
            assert parallel.s_se == serial.s_se
            assert parallel.u_hat == serial.u_hat
            assert parallel.max_weight_share == serial.max_weight_share

    def test_dominant_weight_trips_variance_diagnostic(self):
        # One weight carries essentially the whole sum.
        est = estimate(_LogWeights(60.0, 0.0), 1, 1000, np.random.default_rng(8))
        assert est.status is Status.HIGH_VARIANCE
        assert est.max_weight_share > 0.99
        assert est.ess < 1.01

    def test_constant_weights_have_full_ess(self):
        for N in (1000, 40_000):
            est = estimate(_ConstantWeights(3.0), 2, N, np.random.default_rng(0))
            assert est.ess == N

    def test_nan_weight_is_nonfinite_not_below_one(self):
        est = estimate(_LogWeights(math.nan, 1.0), 2, 1000, np.random.default_rng(0))
        assert math.isnan(est.s_hat)
        assert est.status is Status.NONFINITE_WEIGHTS
        assert est.u_hat is None and est.u_se is None

    @pytest.mark.parametrize("chunk", [0, 2], ids=["first", "last"])
    def test_nan_weight_in_one_of_three_chunks_is_nonfinite(self, chunk):
        est = estimate(_NanInChunk(chunk), 2, 2 * CHUNK_SIZE + 100, np.random.default_rng(0))
        assert math.isnan(est.s_hat)
        assert est.status is Status.NONFINITE_WEIGHTS

    def test_overflowing_mean_saturates_to_inf(self):
        # exp(720)/1000 and exp(800) both exceed the largest double.
        spike = estimate(_LogWeights(720.0, 0.0), 2, 1000, np.random.default_rng(0))
        flat = estimate(_LogWeights(800.0, 800.0), 2, 1000, np.random.default_rng(0))
        for est in (spike, flat):
            assert est.s_hat == math.inf
            assert est.status is Status.NONFINITE_WEIGHTS
            assert est.u_hat is None and est.u_se is None
        assert flat.s_se == 0.0

    def test_underflowing_mean_is_its_own_status(self):
        # exp(-790)/1000 underflows to 0, though s_l >= 1 always; one weight
        # also dominates the rest, and the underflow outranks that.
        est = estimate(_LogWeights(-790.0, -800.0), 2, 1000, np.random.default_rng(0))
        assert est.s_hat == 0.0 and est.s_se == 0.0
        assert est.max_weight_share > DOMINANCE_THRESHOLD
        assert est.status is Status.S_UNDERFLOW
        assert est.u_hat is None and est.u_se is None

    def test_overflowing_variance_is_infinite_se(self):
        # exp(400)/1000 is finite, its variance ~exp(800)/1000 is not.
        est = estimate(_LogWeights(400.0, 0.0), 2, 1000, np.random.default_rng(0))
        assert math.isfinite(est.s_hat) and est.s_se == math.inf
        assert est.status is Status.INFINITE_SE
        assert est.u_hat == pytest.approx((est.s_hat - 1.0) ** 0.5)

    def test_overdispersed_proposal_fires_diagnostic_more_often(self):
        # A proposal vastly wider than the kernel diagonal starves the
        # importance sum: near-origin draws carry everything.
        matched = ar1_matched_proposal_sd(0.5, 1)
        fires = {1.0: 0, 2000.0: 0}
        for mult in fires:
            for seed in range(10):
                est = estimate(
                    Ar1TraceChain(0.5, matched * mult), 1, 500, np.random.default_rng(seed)
                )
                fires[mult] += est.status is Status.HIGH_VARIANCE
        assert fires[2000.0] > fires[1.0]
        assert fires[2000.0] >= 8

    def test_preconditions(self):
        spec = Ar1TraceChain(0.5, 1.0)
        with pytest.raises(ValueError):
            estimate(spec, 0, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate(spec, 1, 1, np.random.default_rng(0))


class TestBoundChainProperties:
    def test_u_sequence_decreases_within_noise(self):
        rho = 0.5
        results = []
        for i, l in enumerate([1, 2, 3, 4, 5]):
            spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
            results.append(estimate(spec, l, 50_000, np.random.default_rng(40 + i)))
        for prev, nxt in zip(results, results[1:]):
            assert nxt.u_hat <= prev.u_hat + 3 * (prev.u_se + nxt.u_se)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_u_stays_above_true_second_eigenvalue(self, rho, l):
        spec = Ar1TraceChain(rho, ar1_matched_proposal_sd(rho, l))
        est = estimate(spec, l, 50_000, np.random.default_rng(int(rho * 100) + l))
        assert est.u_hat + 3 * est.u_se >= rho


class _FreshWorkspace:
    """`chain` with each chunk drawn in a new workspace: no reuse at all."""

    def __init__(self, chain):
        self.chain = chain

    def draw_log_weights(self, L, size, rng, *, workspace=None):
        return self.chain.draw_log_weights(L, size, rng)


def _simple_chain(n=20):
    d = simulate(SimConfig(n=n, r=1, A_true=1.0, V_true=1.0, seed=11))
    return SimpleModelTraceChain(d, Hyperparams(a=2.0, b=1.0, V=1.0))


class TestWorkspace:
    def test_arrays_share_their_buffer_until_it_must_grow(self):
        ws = Workspace()
        big = ws.array("x", (3, 4))
        small = ws.array("x", (2, 5))
        assert small.shape == (2, 5) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        assert not np.shares_memory(big, ws.array("x", (3, 5)))
        assert not np.shares_memory(ws.array("x", (2,)), ws.array("y", (2,)))

    def test_threads_never_share_a_workspace(self):
        # Eight chunks on four threads (more than this host's cores) with the
        # interpreter switching threads as often as it can: a workspace
        # shared between threads would mix their chunks' rows.
        chain = _simple_chain()
        serial = estimate_scan(chain, (1, 2, 3), 8 * CHUNK_SIZE, np.random.default_rng(9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                threaded = estimate_scan(chain, (1, 2, 3), 8 * CHUNK_SIZE, np.random.default_rng(9), workers=4)
                assert threaded == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("make_chain", [lambda: Ar1TraceChain(0.5, 1.5), _simple_chain,
                                            lambda: _simple_chain(10_000)],
                             ids=["ar1", "simple-prior", "simple-mixture"])
    def test_reuse_leaks_nothing_between_chunks_or_calls(self, make_chain):
        # A full chunk then a 5-replicate one; three full chunks on two
        # threads; one 7-replicate chunk; each with fewer rows than the last.
        chain = make_chain()
        for N, L, workers in ((CHUNK_SIZE + 5, 10, 1), (3 * CHUNK_SIZE, 3, 2), (7, 2, 1)):
            ls = tuple(range(1, L + 1))
            fresh = estimate_scan(_FreshWorkspace(make_chain()), ls, N, np.random.default_rng(N))
            assert estimate_scan(chain, ls, N, np.random.default_rng(N), workers=workers) == fresh


class TestScan:
    @pytest.mark.parametrize("make_chain", [lambda: Ar1TraceChain(0.5, 1.5), _simple_chain],
                             ids=["ar1", "simple"])
    def test_each_scan_row_equals_its_single_l_estimate(self, make_chain):
        # 150 000 replicates span ten chunks: numpy sums eight or more terms
        # in an unrolled order, which the scan's rows must share with one l.
        chain = make_chain()
        scan = estimate_scan(chain, (2, 5, 7), 150_000, np.random.default_rng(21))
        assert [est.l for est in scan] == [2, 5, 7]
        for est in scan:
            assert est == estimate(chain, est.l, 150_000, np.random.default_rng(21))

    def test_rows_come_back_in_the_requested_order(self):
        chain = Ar1TraceChain(0.5, 1.5)
        fwd = estimate_scan(chain, (1, 3), 5000, np.random.default_rng(4))
        rev = estimate_scan(chain, (3, 1), 5000, np.random.default_rng(4))
        assert rev == fwd[::-1]

    def test_worker_count_never_changes_numbers(self):
        chain = _simple_chain()
        serial = estimate_scan(chain, (1, 2, 3), 40_000, np.random.default_rng(6))
        assert estimate_scan(chain, (1, 2, 3), 40_000, np.random.default_rng(6), workers=4) == serial

    def test_preconditions(self):
        chain = Ar1TraceChain(0.5, 1.0)
        for ls in ((), (0, 2), (2, -1)):
            with pytest.raises(ValueError):
                estimate_scan(chain, ls, 100, np.random.default_rng(0))


_log_weights = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40).map(np.array)


class TestChunkReduction:
    @settings(deadline=None)
    @given(st.lists(_log_weights, min_size=1, max_size=6))
    def test_any_chunking_reduces_to_the_one_chunk_sums(self, parts):
        def block(x):  # two rows, as in a scan
            return np.stack([x, -x])

        whole = _chunk_sums(block(np.concatenate(parts)))
        merged = _merge([_chunk_sums(block(x)) for x in parts])
        assert np.array_equal(merged[0], whole[0])
        assert merged[1:] == pytest.approx(whole[1:], rel=1e-12)

    @settings(deadline=None)
    @given(_log_weights, st.floats(-100.0, 100.0))
    def test_shift_moves_only_the_max(self, logw, c):
        base = _chunk_sums(logw[None].copy())  # the reduction overwrites its input
        moved = _chunk_sums((logw + c)[None])
        assert moved[0, 0] == base[0, 0] + c
        assert moved[1:] == pytest.approx(base[1:], rel=1e-12)
