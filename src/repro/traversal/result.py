"""Properties every traversal result derives from its simulated time."""

from __future__ import annotations

__all__ = ["Throughput", "Timed"]


class Timed:
    """Adds ``runtime_ms`` to a result dataclass with ``sim_seconds``."""

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds (Table II units)."""
        return self.sim_seconds * 1e3


class Throughput(Timed):
    """Adds ``gteps`` over the edge-count field named by ``EDGES``."""

    EDGES = "edges_traversed"

    @property
    def gteps(self) -> float:
        """Billions of counted edges per simulated second (Fig. 1)."""
        if self.sim_seconds <= 0:
            return 0.0
        return getattr(self, self.EDGES) / self.sim_seconds / 1e9
