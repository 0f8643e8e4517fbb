"""Shared-filesystem transfer model.

Data staging in the pilot runtime charges time against this model: a
transfer of ``nbytes`` costs ``latency + nbytes / bandwidth`` seconds.
Concurrent transfers do not share the bandwidth: each is charged as if
it had the filesystem to itself.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["SharedFilesystem"]


class SharedFilesystem:
    """First-order Lustre/GPFS-like transfer cost model."""

    def __init__(self, bandwidth: float, latency: float = 1e-3) -> None:
        if bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move *nbytes*."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth
