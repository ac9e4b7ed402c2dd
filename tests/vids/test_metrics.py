"""Unit tests for resource accounting."""

from repro.vids import VidsMetrics, estimate_state_bytes, estimate_value_bytes


class TestValueBytes:
    def test_primitives(self):
        assert estimate_value_bytes(None) == 1
        assert estimate_value_bytes(True) == 1
        assert estimate_value_bytes(7) == 4
        assert estimate_value_bytes(1 << 40) == 8
        assert estimate_value_bytes(-(1 << 40)) == 8
        assert estimate_value_bytes(3.14) == 8
        assert estimate_value_bytes("abc") == 3
        assert estimate_value_bytes(b"abcd") == 4

    def test_unicode_measured_in_utf8(self):
        assert estimate_value_bytes("é") == 2

    def test_containers_recurse(self):
        assert estimate_value_bytes(("ab", 1)) == 6
        assert estimate_value_bytes(["ab", "cd"]) == 4
        assert estimate_value_bytes({"k": 1}) == 5
        assert estimate_value_bytes({"k": {"n": "xy"}}) == 4
        assert estimate_value_bytes(set()) == 0

    def test_exotic_object_gets_default(self):
        class Thing:
            pass
        assert estimate_value_bytes(Thing()) == 16


def test_estimate_state_bytes_sums_values_only():
    variables = {"call_id": "x" * 40, "count": 3, "tags": ("a", "b")}
    assert estimate_state_bytes(variables) == 40 + 4 + 2


def test_metrics_summary_and_means():
    metrics = VidsMetrics()
    metrics.call_memory_samples.extend([(400, 40), (500, 60)])
    assert metrics.mean_sip_state_bytes == 450
    assert metrics.mean_rtp_state_bytes == 50
    metrics.note_concurrency(3, 1200)
    metrics.note_concurrency(2, 900)
    assert metrics.peak_concurrent_calls == 3
    assert metrics.peak_state_bytes == 1200
    summary = metrics.summary()
    assert summary["peak_concurrent_calls"] == 3
    assert summary["mean_sip_state_bytes"] == 450


def test_metrics_empty_means():
    metrics = VidsMetrics()
    assert metrics.mean_sip_state_bytes == 0.0
    assert metrics.mean_rtp_state_bytes == 0.0


def test_summary_keys_are_the_declared_counters_and_gauges():
    """``summary()`` is derived from the registry tables; pin the names so
    a JSON consumer notices when a field is added or dropped."""
    assert set(VidsMetrics().summary()) == {
        "packets_processed", "sip_messages", "rtp_packets", "rtcp_packets",
        "other_packets", "keepalive_packets", "malformed_packets",
        "cpu_time", "calls_created", "calls_deleted", "malformed_sip",
        "malformed_rtp", "malformed_rtcp", "sdp_parse_failures",
        "internal_errors", "calls_quarantined", "quarantined_drops",
        "quarantine_paroles", "time_regressions", "packets_shed",
        "shed_events", "peak_concurrent_calls", "peak_state_bytes",
        "mean_sip_state_bytes", "mean_rtp_state_bytes", "shed_time",
    }
