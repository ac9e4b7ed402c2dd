"""Tests for the sync vocabulary and configuration object."""

import pytest

from repro.vids import DEFAULT_CONFIG, VidsConfig
from repro.vids.sync import (
    DELTA_BYE,
    DELTA_CANCELLED,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    RTP_MACHINE,
    SIP_MACHINE,
    SIP_TO_RTP,
)


class TestSyncVocabulary:
    def test_channel_naming_follows_queue_convention(self):
        assert SIP_TO_RTP == "sip->rtp"
        assert SIP_MACHINE == "sip"
        assert RTP_MACHINE == "rtp"

    def test_delta_names_distinct(self):
        deltas = {DELTA_SESSION_OFFER, DELTA_SESSION_ANSWER, DELTA_BYE,
                  DELTA_CANCELLED}
        assert len(deltas) == 4


class TestVidsConfig:
    def test_paper_facing_defaults(self):
        config = DEFAULT_CONFIG
        assert config.invite_flood_threshold == 5       # N
        assert config.invite_flood_window == 1.0        # T1
        assert config.bye_inflight_timer == 0.25        # T ≈ RTT
        assert config.media_spam_seq_gap == 50          # Δn
        assert config.media_spam_ts_gap == 160_000      # Δt
        assert config.cross_protocol is True
        assert config.sip_processing_cost == 0.050
        assert config.rtp_processing_cost == 0.0012

    def test_with_overrides_is_a_copy(self):
        tweaked = DEFAULT_CONFIG.with_overrides(bye_inflight_timer=9.0)
        assert tweaked.bye_inflight_timer == 9.0
        assert DEFAULT_CONFIG.bye_inflight_timer == 0.25
        assert tweaked.invite_flood_threshold == 5

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.bye_inflight_timer = 1.0  # type: ignore[misc]

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            DEFAULT_CONFIG.with_overrides(nonsense=1)

    def test_timers_are_positive_and_ordered(self):
        config = VidsConfig()
        assert 0 < config.rtp_processing_cost < config.sip_processing_cost
        assert 0 < config.bye_inflight_timer < config.closed_record_linger
        assert config.invite_flood_threshold < config.invite_source_threshold
