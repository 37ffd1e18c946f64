"""Tests for simulator components: links, executors, KV pools, metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ComputeNode, Profiler, T4
from repro.cluster.network import Link
from repro.sim import KVCachePool, LinkChannel, NodeExecutor, Request, StageWork
from repro.sim.metrics import LatencyStats, RequestRecord, aggregate_metrics


class TestLinkChannel:
    def test_idle_link_immediate_start(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.1))
        arrival = channel.transmit(now=0.0, num_bytes=500)
        assert arrival == pytest.approx(0.5 + 0.1)

    def test_fifo_queueing(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.0))
        first = channel.transmit(0.0, 1000)   # occupies [0, 1]
        second = channel.transmit(0.0, 1000)  # waits until 1, arrives at 2
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        assert channel.total_queueing_delay == pytest.approx(1.0)
        assert channel.max_queueing_delay == pytest.approx(1.0)

    def test_no_queueing_when_spaced(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1000.0, latency=0.0))
        channel.transmit(0.0, 100)
        channel.transmit(5.0, 100)
        assert channel.mean_queueing_delay == 0.0

    def test_stats_accumulate(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1e6))
        channel.transmit(0.0, 100)
        channel.transmit(0.0, 200)
        assert channel.bytes_sent == 300
        assert channel.messages_sent == 2

    def test_negative_size_rejected(self):
        channel = LinkChannel(Link("a", "b", bandwidth=1e6))
        with pytest.raises(ValueError):
            channel.transmit(0.0, -1)

    @given(
        sizes=st.lists(st.floats(min_value=1, max_value=1e6), min_size=1, max_size=20)
    )
    def test_link_never_exceeds_bandwidth(self, sizes):
        bandwidth = 1e5
        channel = LinkChannel(Link("a", "b", bandwidth=bandwidth, latency=0.0))
        last_arrival = 0.0
        for size in sizes:
            last_arrival = channel.transmit(0.0, size)
        # Total bytes / total busy time == bandwidth exactly (no latency).
        assert last_arrival == pytest.approx(sum(sizes) / bandwidth)


class TestNodeExecutor:
    def _executor(self, tiny_model, cap=None):
        node = ComputeNode("t4", T4)
        return NodeExecutor(node, tiny_model, Profiler(), 4, max_batch_tokens=cap)

    def test_take_batch_drains_queue(self, tiny_model):
        ex = self._executor(tiny_model)
        for i in range(3):
            ex.enqueue(StageWork(f"r{i}", 0, 10, 4, True))
        batch, _, _ = ex.take_batch()
        assert len(batch) == 3
        assert not ex.has_work()

    def test_batch_cap_respected(self, tiny_model):
        ex = self._executor(tiny_model, cap=25)
        for i in range(3):
            ex.enqueue(StageWork(f"r{i}", 0, 10, 4, True))
        batch, _, _ = ex.take_batch()
        assert len(batch) == 2  # 10 + 10 fits, third would exceed 25
        assert len(ex.queue) == 1

    def test_single_oversize_item_still_runs(self, tiny_model):
        ex = self._executor(tiny_model, cap=5)
        ex.enqueue(StageWork("big", 0, 100, 4, True))
        assert len(ex.take_batch()[0]) == 1

    def test_batch_time_increases_with_work(self, tiny_model):
        ex = self._executor(tiny_model)
        small = [StageWork("a", 0, 1, 4, False)]
        large = [StageWork("a", 0, 512, 4, True)]
        assert ex.batch_time(large) > ex.batch_time(small)

    def test_batch_amortizes_weight_read(self, tiny_model):
        # Two tokens in one batch beat two single-token batches.
        ex = self._executor(tiny_model)
        one = ex.batch_time([StageWork("a", 0, 1, 4, False)])
        two = ex.batch_time(
            [StageWork("a", 0, 1, 4, False), StageWork("b", 0, 1, 4, False)]
        )
        assert two < 2 * one

    def test_stats_recorded(self, tiny_model):
        ex = self._executor(tiny_model)
        batch = [StageWork("a", 0, 10, 4, True)]
        ex.record_batch(batch, 0.5)
        assert ex.stats.batches == 1
        assert ex.stats.tokens == 10
        assert ex.utilization(1.0) == pytest.approx(0.5)

    def test_rejects_zero_layers(self, tiny_model):
        with pytest.raises(ValueError, match="resident"):
            NodeExecutor(ComputeNode("t4", T4), tiny_model, Profiler(), 0)


class TestKVCachePool:
    def test_allocate_and_free(self):
        pool = KVCachePool("n", capacity_tokens=100)
        assert pool.allocate(60)
        assert pool.used_tokens == 60
        pool.free(30)
        assert pool.used_tokens == 30

    def test_overflow_counted_not_fatal(self):
        pool = KVCachePool("n", capacity_tokens=100)
        assert pool.allocate(90)
        assert not pool.allocate(20)
        assert pool.overflow_events == 1
        assert pool.used_tokens == 110
        assert pool.utilization > 1.0

    def test_peak_tracking(self):
        pool = KVCachePool("n", capacity_tokens=100)
        pool.allocate(80)
        pool.free(50)
        pool.allocate(10)
        assert pool.peak_tokens == 80

    def test_free_clamps(self):
        pool = KVCachePool("n", capacity_tokens=100)
        pool.free(10)
        assert pool.used_tokens == 0

    def test_negative_amounts_rejected(self):
        pool = KVCachePool("n", capacity_tokens=10)
        with pytest.raises(ValueError):
            pool.allocate(-1)
        with pytest.raises(ValueError):
            pool.free(-1)


class TestMetrics:
    def test_latency_stats_percentiles(self):
        stats = LatencyStats.from_samples(list(map(float, range(1, 101))))
        assert stats.count == 100
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p5 == pytest.approx(5.95)
        assert stats.p95 == pytest.approx(95.05)
        assert stats.mean == pytest.approx(50.5)

    def test_latency_stats_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_latency_stats_ignores_nan(self):
        stats = LatencyStats.from_samples([1.0, float("nan"), 3.0])
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)

    def test_latency_stats_counts_dropped_nan_samples(self):
        # NaN samples (lost / unfinished requests) are excluded from the
        # distribution but not silently forgotten.
        stats = LatencyStats.from_samples([1.0, float("nan"), 3.0])
        assert stats.nan_count == 1
        all_nan = LatencyStats.from_samples([float("nan")] * 3)
        assert all_nan.count == 0
        assert all_nan.nan_count == 3
        assert math.isnan(all_nan.mean)
        assert LatencyStats.from_samples([1.0, 2.0]).nan_count == 0

    def test_request_record_latencies(self):
        record = RequestRecord("r", 10, 3, arrival_time=1.0)
        record.first_token_time = 2.0
        record.token_times = [2.0, 2.5, 3.5]
        record.finish_time = 3.5
        assert record.prompt_latency == pytest.approx(1.0)
        assert record.decode_latency == pytest.approx(0.75)
        assert record.finished

    def test_decode_latency_needs_two_tokens(self):
        record = RequestRecord("r", 10, 1, arrival_time=0.0)
        record.token_times = [1.0]
        assert math.isnan(record.decode_latency)

    def test_aggregate_counts_decode_tokens_in_window(self):
        record = RequestRecord("r", 10, 4, arrival_time=0.0)
        record.first_token_time = 1.0
        record.token_times = [1.0, 2.0, 3.0, 11.0]
        record.finish_time = 11.0
        metrics = aggregate_metrics(
            [record], warmup=0.0, end_time=10.0,
            kv_overflow_events=0, pipeline_depths=[2],
        )
        # Tokens at 2.0 and 3.0 are decode tokens inside [0, 10]; the first
        # token (1.0) is the prompt token and 11.0 is outside the window.
        assert metrics.decode_tokens == 2
        assert metrics.decode_throughput == pytest.approx(0.2)

    def test_aggregate_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window"):
            aggregate_metrics([], warmup=5.0, end_time=5.0,
                              kv_overflow_events=0, pipeline_depths=[])

    def test_summary_renders(self):
        record = RequestRecord("r", 10, 2, arrival_time=0.0)
        record.first_token_time = 1.0
        record.token_times = [1.0, 2.0]
        record.finish_time = 2.0
        metrics = aggregate_metrics(
            [record], warmup=0.0, end_time=4.0,
            kv_overflow_events=0, pipeline_depths=[1],
        )
        assert "decode" in metrics.summary()

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request("r", 0, 5)
        with pytest.raises(ValueError):
            Request("r", 5, 0)
        with pytest.raises(ValueError):
            Request("r", 5, 5, arrival_time=-1.0)
        assert Request("r", 5, 5).total_tokens == 10

    @pytest.mark.parametrize("arrival", [math.inf, math.nan])
    def test_non_finite_arrival_is_rejected(self, arrival):
        # An infinite arrival used to be dropped silently (never reaching
        # the coordinator) and a NaN one was served at NaN times.
        with pytest.raises(ValueError, match="finite"):
            Request("b", 16, 8, arrival)
