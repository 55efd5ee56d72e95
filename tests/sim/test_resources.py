"""BandwidthResource and TokenBucket behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthResource, Simulator, TokenBucket


@pytest.fixture
def sim():
    return Simulator()


class TestBandwidthResource:
    def test_rate_validation(self, sim):
        with pytest.raises(ValueError):
            BandwidthResource(sim, rate=0.0)

    def test_single_transfer_time(self, sim):
        nic = BandwidthResource(sim, rate=1e9)
        assert nic.completion_time(1e6) == pytest.approx(1e-3)
        assert nic.available_at == pytest.approx(1e-3)

    def test_serialization(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        t1 = nic.completion_time(100)   # 1 s
        t2 = nic.completion_time(100)   # queued behind
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)

    def test_negative_bytes_rejected(self, sim):
        nic = BandwidthResource(sim, rate=1.0)
        with pytest.raises(ValueError):
            nic.completion_time(-1)

    def test_start_parameter_defers_entry(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        t = nic.completion_time(100, start=5.0)
        assert t == pytest.approx(6.0)

    def test_counters(self, sim):
        nic = BandwidthResource(sim, rate=10.0)
        nic.completion_time(5)
        nic.completion_time(15)
        assert nic.bytes_served == 20 and nic.transfers == 2
        nic.reset()
        assert nic.bytes_served == 0 and nic.transfers == 0

    def test_zero_bytes_take_no_server_time(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        nic.completion_time(100)                 # busy until 1 s
        assert nic.completion_time(0) == pytest.approx(1.0)
        assert nic.available_at == pytest.approx(1.0)
        assert nic.transfers == 2 and nic.bytes_served == 100

    def test_booking_starts_at_the_clock(self, sim):
        nic = BandwidthResource(sim, rate=100.0)

        def proc(sim):
            yield sim.timeout(2.0)
            return nic.completion_time(100)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == pytest.approx(3.0)

    def test_early_start_queues_behind_busy_server(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        nic.completion_time(100)                 # [0, 1)
        # ready at 0.5, but the server is busy until 1
        assert nic.completion_time(100, start=0.5) == pytest.approx(2.0)

    def test_available_at_never_lags_the_clock(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        nic.completion_time(100)                 # idle again at 1 s
        sim.timeout(5.0)
        sim.run()
        assert nic.available_at == 5.0

    def test_reset_forgets_the_queue(self, sim):
        nic = BandwidthResource(sim, rate=100.0)
        nic.completion_time(500)
        nic.reset()
        assert nic.available_at == 0.0
        assert nic.completion_time(100) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=0, max_value=10**7),
                          min_size=1, max_size=20),
           rate=st.floats(min_value=1.0, max_value=1e12))
    def test_throughput_conservation(self, sizes, rate):
        """Busy-interval throughput equals the configured rate exactly."""
        sim = Simulator()
        nic = BandwidthResource(sim, rate=rate)
        finish = 0.0
        for s in sizes:
            finish = nic.completion_time(s)
        assert finish == pytest.approx(sum(sizes) / rate, rel=1e-9)


class TestTokenBucket:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=1, burst=0)

    def test_burst_is_instant(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=100.0)
        assert tb.take_at(100.0, when=0.0) == 0.0

    def test_refill_paces_requests(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=10.0)
        assert tb.take_at(10.0, when=0.0) == 0.0   # instant, drains bucket
        # waits 2 s at 10 tok/s
        assert tb.take_at(20.0, when=0.0) == pytest.approx(2.0)

    def test_negative_take_rejected(self, sim):
        tb = TokenBucket(sim, rate=1.0, burst=1.0)
        with pytest.raises(ValueError):
            tb.take_at(-1e-9, when=0.0)
        # the refused booking left the bucket full
        assert tb.take_at(1.0, when=0.0) == 0.0

    def test_tokens_property_refills_lazily(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=20.0)
        tb.take_at(20.0, when=0.0)                 # drain at t=0
        # 1 s later exactly 10 tokens have accrued: 10 are instant,
        # one more token waits 0.1 s
        assert tb.take_at(10.0, when=1.0) == 1.0
        assert tb.take_at(1.0, when=1.0) == pytest.approx(1.1)

    def test_refill_is_capped_at_burst(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=20.0)
        tb.take_at(20.0, when=0.0)
        # a long idle spell refills to the burst, not beyond it
        assert tb.take_at(20.0, when=100.0) == 100.0
        assert tb.take_at(10.0, when=100.0) == pytest.approx(101.0)

    def test_zero_take_is_instant(self, sim):
        tb = TokenBucket(sim, rate=1.0, burst=1.0)
        tb.take_at(1.0, when=0.0)                  # empty bucket
        assert tb.take_at(0.0, when=0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(amounts=st.lists(st.floats(min_value=0.0, max_value=1e6),
                            min_size=1, max_size=20),
           rate=st.floats(min_value=1.0, max_value=1e9),
           burst=st.floats(min_value=1.0, max_value=1e6))
    def test_take_at_drains_at_rate_after_burst(self, amounts, rate, burst):
        """Back-to-back bookings at t=0 are ready once the burst plus
        ``rate * t`` tokens cover them."""
        tb = TokenBucket(Simulator(), rate=rate, burst=burst)
        ready = 0.0
        for a in amounts:
            ready = tb.take_at(a, when=0.0)
        expected = max(0.0, (sum(amounts) - burst) / rate)
        # token sums round at the scale of the amounts, not of the deficit
        slack = 1e-9 * (sum(amounts) + burst) / rate
        assert ready == pytest.approx(expected, rel=1e-9, abs=slack)

    def test_take_at_books_without_events(self, sim):
        # Model-side booking used by the fault-plan pacing path.
        tb = TokenBucket(sim, rate=10.0, burst=10.0)
        assert tb.take_at(10.0, when=0.0) == 0.0      # burst is instant
        assert tb.take_at(5.0, when=0.0) == pytest.approx(0.5)
        # 1 s after the last booking, 10 tokens have accrued again
        assert tb.take_at(10.0, when=1.5) == pytest.approx(1.5)

    def test_take_at_clamps_out_of_order_bookings(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=10.0)
        ready = tb.take_at(20.0, when=0.0)
        assert ready == pytest.approx(1.0)
        # An earlier "when" cannot rewind the bucket's clock.
        assert tb.take_at(10.0, when=0.0) == pytest.approx(2.0)

    def test_take_at_rejects_negative(self, sim):
        tb = TokenBucket(sim, rate=1.0, burst=1.0)
        with pytest.raises(ValueError):
            tb.take_at(-1.0, when=0.0)

    def test_reset_restores_full_burst(self, sim):
        tb = TokenBucket(sim, rate=10.0, burst=10.0)
        tb.take_at(10.0, when=0.0)
        assert tb.take_at(10.0, when=0.0) > 0.0
        tb.reset()
        assert tb.take_at(10.0, when=0.0) == 0.0


class TestBandwidthDegradation:
    """Fault-plan rate-droop windows on the NIC byte server."""

    def test_no_windows_is_fast_path(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        assert bw.completion_time(50.0) == pytest.approx(0.5)

    def test_window_validation(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        with pytest.raises(ValueError, match="factor"):
            bw.set_degradation([(0.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="empty"):
            bw.set_degradation([(1.0, 1.0, 0.5)])
        with pytest.raises(ValueError, match="overlap"):
            bw.set_degradation([(0.0, 2.0, 0.5), (1.0, 3.0, 0.5)])

    def test_transfer_inside_window_is_slower(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 10.0, 0.5)])
        # 50 bytes at 50 B/s -> 1 s instead of 0.5 s
        assert bw.completion_time(50.0) == pytest.approx(1.0)

    def test_transfer_spanning_window_boundary(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 1.0, 0.5)])
        # First second drains 50 bytes (degraded), the remaining 50
        # drain at full rate: total 1.5 s.
        assert bw.completion_time(100.0) == pytest.approx(1.5)

    def test_transfer_after_window_at_full_rate(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 1.0, 0.5)])
        bw.completion_time(50.0)  # occupies [0, 1)
        # Next transfer starts at t=1, past the window.
        assert bw.completion_time(100.0) == pytest.approx(2.0)

    def test_gap_between_windows_full_rate(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 1.0, 0.5), (2.0, 3.0, 0.5)])
        # 50 B degraded (1 s) + 100 B full-rate gap (1 s) + 50 B degraded
        # (1 s) = 200 B in 3 s.
        assert bw.completion_time(200.0) == pytest.approx(3.0)

    def test_clearing_windows_restores_fast_path(self, sim):
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 1.0, 0.5)])
        bw.set_degradation(None)
        assert bw.completion_time(50.0) == pytest.approx(0.5)

    def test_reset_preserves_windows(self, sim):
        # reset() drops queue state between reps; the installed fault
        # windows belong to the plan and must survive.
        bw = BandwidthResource(sim, rate=100.0)
        bw.set_degradation([(0.0, 10.0, 0.5)])
        bw.completion_time(50.0)
        bw.reset()
        assert bw.completion_time(50.0) == pytest.approx(1.0)
