"""Structured serving metrics: per-stage latency histograms + counters.

The router times every request through four stages — ``parse`` (line →
request dict), ``route`` (admission + shard selection), ``shard_compute``
(time inside worker round-trips), ``merge`` (reassembling the final
response) — and exposes the histograms through the ``metrics`` op.
Buckets are fixed log-spaced milliseconds so histograms from different
processes (or different runs) merge by plain element-wise addition.
"""

from __future__ import annotations

import threading

# Upper bucket edges in milliseconds; the implicit last bucket is +inf.
# 0.05 ms .. 51.2 s in powers of two — wide enough for a JIT warmup
# outlier, fine enough to see a cache hit vs a cold scan.
DEFAULT_BUCKETS_MS: tuple[float, ...] = tuple(
    0.05 * 2**i for i in range(21)
)


class LatencyHistogram:
    """A fixed-bucket latency histogram (thread-safe, mergeable)."""

    def __init__(self, buckets_ms: tuple[float, ...] = DEFAULT_BUCKETS_MS):
        self.buckets_ms = tuple(float(edge) for edge in buckets_ms)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets_ms) + 1)  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum_seconds = 0.0  # guarded-by: _lock
        self._max_seconds = 0.0  # guarded-by: _lock

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        slot = len(self.buckets_ms)
        for i, edge in enumerate(self.buckets_ms):
            if ms <= edge:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._count += 1
            self._sum_seconds += seconds
            if seconds > self._max_seconds:
                self._max_seconds = seconds

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum_seconds": self._sum_seconds,
                "max_seconds": self._max_seconds,
                "buckets": [
                    {"le_ms": edge, "count": count}
                    for edge, count in zip(
                        list(self.buckets_ms) + [None],
                        self._counts,
                        strict=True,
                    )
                ],
            }

    def merge_dict(self, other: dict) -> None:
        """Fold a serialized histogram (same bucket grid) into this one."""
        counts = [entry["count"] for entry in other.get("buckets", [])]
        with self._lock:
            if len(counts) != len(self._counts):
                raise ValueError(
                    "histogram bucket grids differ; cannot merge"
                )
            for i, count in enumerate(counts):
                self._counts[i] += int(count)
            self._count += int(other.get("count", 0))
            self._sum_seconds += float(other.get("sum_seconds", 0.0))
            self._max_seconds = max(
                self._max_seconds, float(other.get("max_seconds", 0.0))
            )


STAGES = ("parse", "route", "shard_compute", "merge")


class ClusterMetrics:
    """All router-side observability state behind the ``metrics`` op."""

    def __init__(self) -> None:
        self.stages = {stage: LatencyHistogram() for stage in STAGES}
        self._lock = threading.Lock()
        self._ops: dict[str, int] = {}  # guarded-by: _lock
        self._errors: dict[str, int] = {}  # guarded-by: _lock
        self._busy_rejected = 0  # guarded-by: _lock
        self._shard_errors = 0  # guarded-by: _lock
        self._worker_restarts = 0  # guarded-by: _lock
        self._failovers = 0  # guarded-by: _lock
        self._retries = 0  # guarded-by: _lock
        self._replica_timeouts = 0  # guarded-by: _lock
        self._deadline_exceeded = 0  # guarded-by: _lock
        self._degraded_responses = 0  # guarded-by: _lock
        self._crash_loops = 0  # guarded-by: _lock
        self._any_length_queries = 0  # guarded-by: _lock
        self._any_length_shard_rpcs = 0  # guarded-by: _lock
        self._breaker_transitions: dict[str, int] = {}  # guarded-by: _lock

    def record_op(self, op: str) -> None:
        with self._lock:
            self._ops[op] = self._ops.get(op, 0) + 1

    def record_error(self, code: str) -> None:
        with self._lock:
            self._errors[code] = self._errors.get(code, 0) + 1

    def record_busy(self) -> None:
        with self._lock:
            self._busy_rejected += 1
            self._errors["busy"] = self._errors.get("busy", 0) + 1

    def record_shard_error(self) -> None:
        with self._lock:
            self._shard_errors += 1

    def record_worker_restart(self) -> None:
        with self._lock:
            self._worker_restarts += 1

    def record_failover(self) -> None:
        with self._lock:
            self._failovers += 1

    def record_retry(self) -> None:
        with self._lock:
            self._retries += 1

    def record_replica_timeout(self) -> None:
        with self._lock:
            self._replica_timeouts += 1

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self._deadline_exceeded += 1
            self._errors["deadline_exceeded"] = (
                self._errors.get("deadline_exceeded", 0) + 1
            )

    def record_degraded(self) -> None:
        with self._lock:
            self._degraded_responses += 1

    def record_crash_loop(self) -> None:
        with self._lock:
            self._crash_loops += 1

    def record_any_length(self, queries: int = 0, shard_rpcs: int = 0) -> None:
        """Count ``Match = Any`` queries and the shard RPCs their walks issue."""
        with self._lock:
            self._any_length_queries += queries
            self._any_length_shard_rpcs += shard_rpcs

    def record_breaker_transition(self, state: str) -> None:
        with self._lock:
            self._breaker_transitions[state] = (
                self._breaker_transitions.get(state, 0) + 1
            )

    @property
    def busy_rejected(self) -> int:
        with self._lock:
            return self._busy_rejected

    @property
    def worker_restarts(self) -> int:
        with self._lock:
            return self._worker_restarts

    @property
    def failovers(self) -> int:
        with self._lock:
            return self._failovers

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    def to_dict(self) -> dict:
        with self._lock:
            snapshot = {
                "ops": dict(self._ops),
                "errors": dict(self._errors),
                "busy_rejected": self._busy_rejected,
                "shard_errors": self._shard_errors,
                "worker_restarts": self._worker_restarts,
                "failovers": self._failovers,
                "retries": self._retries,
                "replica_timeouts": self._replica_timeouts,
                "deadline_exceeded": self._deadline_exceeded,
                "degraded_responses": self._degraded_responses,
                "crash_loops": self._crash_loops,
                "any_length_queries": self._any_length_queries,
                "any_length_shard_rpcs": self._any_length_shard_rpcs,
                "breaker_transitions": dict(self._breaker_transitions),
            }
        snapshot["stages"] = {
            stage: histogram.to_dict()
            for stage, histogram in self.stages.items()
        }
        return snapshot
