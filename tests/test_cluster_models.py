"""Tests for the filesystem and network models."""

import pytest

from repro.cluster.filesystem import SharedFilesystem
from repro.cluster.network import NetworkModel
from repro.eventsim import RandomStreams
from repro.exceptions import ConfigurationError


class TestSharedFilesystem:
    def test_transfer_time_is_latency_plus_bandwidth(self):
        fs = SharedFilesystem(bandwidth=1e6, latency=0.5)
        assert fs.transfer_time(1e6) == pytest.approx(1.5)

    def test_zero_bytes_costs_latency_only(self):
        fs = SharedFilesystem(bandwidth=1e9, latency=0.25)
        assert fs.transfer_time(0) == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SharedFilesystem(bandwidth=0)
        with pytest.raises(ConfigurationError):
            SharedFilesystem(bandwidth=1.0, latency=-0.1)
        with pytest.raises(ConfigurationError):
            SharedFilesystem(bandwidth=1.0).transfer_time(-1)


class TestNetworkModel:
    def test_zero_rtt_is_free(self):
        net = NetworkModel(rtt=0.0)
        assert net.message_delay() == 0.0
        assert net.round_trip() == 0.0
        assert net.bulk_delay(100) == 0.0

    def test_message_delay_near_half_rtt(self):
        net = NetworkModel(rtt=0.1, jitter=0.0)
        assert net.message_delay() == pytest.approx(0.05)

    def test_jitter_produces_variation(self):
        net = NetworkModel(rtt=0.1, jitter=0.3, streams=RandomStreams(1))
        delays = {net.message_delay() for _ in range(10)}
        assert len(delays) > 1
        assert all(d > 0 for d in delays)

    def test_bulk_delay_cheaper_than_individual_messages(self):
        net = NetworkModel(rtt=0.1, jitter=0.0)
        bulk = net.bulk_delay(100)
        individual = sum(net.message_delay() for _ in range(100))
        assert bulk < individual

    def test_bulk_delay_grows_with_messages(self):
        net = NetworkModel(rtt=0.1, jitter=0.0)
        assert net.bulk_delay(100) > net.bulk_delay(1)

    def test_bulk_delay_zero_messages(self):
        assert NetworkModel(rtt=0.1).bulk_delay(0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(rtt=-1.0)
        with pytest.raises(ConfigurationError):
            NetworkModel(rtt=0.1, jitter=1.0)
