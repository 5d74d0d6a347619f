"""Asyncio scatter-gather router over replicated shard worker processes.

The router owns the public serving endpoint (stdio pipe or TCP), spawns
``R`` :mod:`~repro.serve.cluster.worker` processes per shard of the
:mod:`~repro.serve.cluster.shardmap` partition, and answers every
client op by fanning out to the owning shard(s) and merging:

* ``query`` with an explicit ``length`` (and exact-length batches)
  forwards whole to the owning shard — the worker runs the very same
  ``OnexService.query`` a single process would.
* ``query`` with ``Match = Any`` walks the §5.3 length sweep across
  shards (:meth:`ClusterRouter._walk`): the sweep order is cut into runs
  of lengths owned by one shard, and each run is one ``sweep`` RPC that
  carries the best-so-far bound and runs the single-process sweep code
  over its lengths. The shard where the sweep stops refines in place,
  so the common case is one RPC to one shard.
* ``within`` without a length fans out with each shard's owned lengths
  and merges by stable sort on normalized distance; because shards own
  contiguous ascending length ranges, shard-order concatenation *is*
  the single-process generation order, so the stable sort reproduces
  the single-process ordering exactly (ties included).
* ``recommend`` routes to shard 0: the SP-Space thresholds are global
  manifest state every worker restores identically.

Fault tolerance (DESIGN.md §15) is router-side and replica-based.
Every shard is served by a :class:`ShardReplicas` set of ``R`` workers
restoring the identical length range over the same mmap'd directory,
so any replica answers bit-identically and failover is invisible to
clients. A shard RPC that dies (worker death) or times out fails over
to another replica with exponential backoff + deterministic-seeded
jitter, bounded by the request's **deadline budget**: every compute op
accepts ``timeout_ms``, the router propagates the remaining budget to
each subrequest (``budget_ms``), and a spent budget answers a
structured ``deadline_exceeded`` error. Consecutive per-worker
failures open a :class:`CircuitBreaker` (half-open probes on a timer)
that steers traffic away from a flapping replica. When *every* replica
of a shard a request needs is down, ``within`` and any-length
``query`` honour ``allow_partial=true`` by answering over the surviving
lengths plus a ``degraded`` flag naming the missing shards; without it
the request fails ``shard_unavailable``.

Admission control is a bounded in-flight counter: past
``max_inflight``, compute ops are rejected immediately with a
structured ``busy`` error (429 semantics) instead of queueing — the
router's memory stays bounded no matter the offered load. ``health`` /
``metrics`` / ``ping`` / job ops bypass admission so operators can
always see in. Workers are supervised: a dead worker fails its
in-flight requests (triggering failover) and is respawned with
exponential backoff — a crash-looping worker backs off up to
``respawn_backoff_cap`` seconds and is surfaced as ``crash_looping``
in ``health`` instead of respawning in a tight loop. ``drain()`` stops
admission, lets in-flight requests finish, then shuts workers down
cleanly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import sys
import time

from repro.core.persistence import read_manifest
from repro.core.rspace import search_length_order
from repro.serve.cluster.faults import FaultInjector
from repro.serve.cluster.jobs import JobQueue
from repro.serve.cluster.metrics import ClusterMetrics, LatencyHistogram
from repro.serve.cluster.shardmap import (
    ShardMap,
    assign_replicas,
    shard_map_from_manifest,
)

_NO_REP_ERROR = "no representative reachable; widen the DTW window"

# Longest line read from a worker pipe or a TCP client. asyncio's 64 KiB
# default is smaller than a data-driven ``seasonal`` reply at a short
# length, and than a ``queries`` batch of a few dozen sequences.
_LINE_LIMIT = 64 * 1024 * 1024

# Ops answered (or enqueued) without touching shard compute capacity:
# observability and job bookkeeping must work even under overload.
_ADMISSION_EXEMPT = frozenset(
    {"ping", "health", "metrics", "submit", "job_status", "jobs"}
)


class ShardUnavailable(Exception):
    """Every replica of a shard failed (or was down) for our request."""

    def __init__(self, shard_index: int):
        super().__init__(f"shard {shard_index} unavailable")
        self.shard_index = shard_index


class DeadlineExceeded(Exception):
    """A request's ``timeout_ms`` budget ran out before it completed."""

    def __init__(self, timeout_ms: float):
        super().__init__(f"deadline of {timeout_ms:g} ms exceeded")
        self.timeout_ms = timeout_ms


def parse_timeout_ms(request: dict) -> float | None:
    """Validate and return ``timeout_ms`` from a request (``None`` if absent).

    The error text is shared verbatim with the single-process server so
    the rejection stays bit-identical across tiers.
    """
    raw = request.get("timeout_ms")
    if raw is None:
        return None
    timeout_ms = float(raw)
    if not timeout_ms > 0:
        raise ValueError(f"timeout_ms must be > 0, got {raw}")
    return timeout_ms


class Budget:
    """A request's remaining deadline, propagated to shard subrequests.

    A child subrequest can never receive more budget than its parent
    has left: ``remaining_seconds`` is measured against one fixed
    deadline instant, so every propagation is monotonically
    non-increasing.
    """

    def __init__(self, timeout_ms: float, clock=time.monotonic) -> None:
        self.timeout_ms = float(timeout_ms)
        self._clock = clock
        self._deadline_time = clock() + self.timeout_ms / 1000.0

    def remaining_seconds(self) -> float:
        return self._deadline_time - self._clock()

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.remaining_seconds() <= 0:
            raise DeadlineExceeded(self.timeout_ms)


class CircuitBreaker:
    """Per-worker breaker: ``closed`` → ``open`` → ``half_open`` → ...

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_after`` seconds it half-opens and admits exactly one probe
    request — success closes it, failure re-opens it (restarting the
    timer). The router's replica picker skips workers whose breaker
    refuses, steering traffic away from a flapping replica without any
    shared state beyond this object (single event loop, no lock).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 5.0,
        clock=time.monotonic,
        on_transition=None,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_after = float(reset_after)
        self._clock = clock
        self._on_transition = on_transition
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_time: float | None = None
        self._probe_inflight = False
        self.transitions: dict[str, int] = {}

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions[state] = self.transitions.get(state, 0) + 1
        if self._on_transition is not None:
            self._on_transition(state)

    def allows(self) -> bool:
        """Whether a request may be routed to this worker right now."""
        if self.state == "closed":
            return True
        if self.state == "open":
            elapsed = self._clock() - self._opened_time
            if elapsed >= self.reset_after:
                self._transition("half_open")
                self._probe_inflight = True
                return True
            return False
        # half_open: exactly one probe at a time.
        if not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        self._probe_inflight = False
        self.consecutive_failures = 0
        if self.state != "closed":
            self._transition("closed")

    def record_failure(self) -> None:
        self._probe_inflight = False
        self.consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._opened_time = self._clock()
            self._transition("open")
        elif self.state == "open":
            self._opened_time = self._clock()

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transitions": dict(self.transitions),
        }


def respawn_delay(
    consecutive_crashes: int, base: float, cap: float
) -> float:
    """Exponential backoff between respawns of a crashing worker."""
    return min(float(cap), float(base) * 2 ** max(0, consecutive_crashes - 1))


def sweep_runs(
    shard_map: ShardMap, query_length: int
) -> list[tuple[int, list[int]]]:
    """The §5.3 length order cut into maximal runs owned by one shard.

    Shards own contiguous length ranges and the order descends from the
    query's length, then ascends, so there are at most ``n_shards + 1``
    runs: ``[(shard_index, [length, ...]), ...]`` in visiting order.
    """
    runs: list[tuple[int, list[int]]] = []
    for length in search_length_order(shard_map.lengths, query_length):
        owner = shard_map.owner(length)
        if runs and runs[-1][0] == owner:
            runs[-1][1].append(length)
        else:
            runs.append((owner, [length]))
    return runs


class _Walk:
    """One any-length query's place in its sweep across shards."""

    __slots__ = ("values", "runs", "best")

    def __init__(self, values: list, runs: list[tuple[int, list[int]]]):
        self.values = values
        self.runs = runs  # still to visit, in order
        self.best: tuple[int, list] | None = None  # (length, scans) so far

    def step(self, shard_map: ShardMap) -> tuple[int, str] | None:
        """The ``(shard, op)`` of the next RPC, ``None`` when out of both."""
        if self.runs:
            return self.runs[0][0], "sweep"
        if self.best is not None:
            return shard_map.owner(self.best[0]), "refine"
        return None

    def job(self, op: str) -> dict:
        if op == "refine":
            length, scans = self.best
            return {"values": self.values, "length": length, "scans": scans}
        return {
            "values": self.values,
            "run": self.runs[0][1],
            # The best top distance so far; a float survives JSON exactly.
            "bound": None if self.best is None else self.best[1][0][2],
            "last": len(self.runs) == 1,
        }


def merge_within(shard_results: list[list[dict]]) -> list[dict]:
    """Merge per-shard ``within`` matches into single-process order.

    ``shard_results`` must be in shard order (contiguous ascending
    length ranges). Stable-sorting the concatenation on normalized
    distance reproduces the single-process ordering exactly: each shard
    list is itself a stable sort of a contiguous block of the global
    generation order, and stable sort of stably-sorted contiguous
    blocks equals the stable sort of the whole. Omitting a whole
    (degraded) shard removes one contiguous block and leaves the
    relative order of the survivors intact.
    """
    merged = [match for matches in shard_results for match in matches]
    merged.sort(key=lambda match: match["dtw_normalized"])
    return merged


async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at EOF), ``None`` for an oversized one.

    A line over the stream's limit is read to its end and dropped, so
    the connection keeps its framing and the client can be answered:
    closing with its bytes still unread would reset the socket and
    could take the error reply with it.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


class WorkerHandle:
    """One supervised shard-replica worker process plus its plumbing."""

    def __init__(
        self,
        shard_index: int,
        replica_index: int,
        lengths: tuple[int, ...],
        index_path: str,
        metrics: ClusterMetrics,
        cache_size: int = 1024,
        threads: int | None = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
        respawn_backoff: float = 0.2,
        respawn_backoff_cap: float = 10.0,
        crash_loop_threshold: int = 3,
        healthy_uptime: float = 5.0,
        ping_timeout: float = 60.0,
    ) -> None:
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.lengths = lengths
        self.index_path = index_path
        self.metrics = metrics
        self.cache_size = cache_size
        self.threads = threads
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.crash_loop_threshold = max(1, int(crash_loop_threshold))
        self.healthy_uptime = healthy_uptime
        self.ping_timeout = ping_timeout
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failure_threshold,
            reset_after=breaker_reset_seconds,
            on_transition=metrics.record_breaker_transition,
        )
        self.process: asyncio.subprocess.Process | None = None
        self.restarts = 0
        self.consecutive_crashes = 0
        self.last_ping_ms: float | None = None
        self.latency = LatencyHistogram()  # per-replica round-trip times
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 1
        self._stopping = False
        self._started_time: float | None = None
        self._reader_task: asyncio.Task | None = None
        self._monitor_task: asyncio.Task | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def crash_looping(self) -> bool:
        """Whether this worker is dying faster than it can serve."""
        return self.consecutive_crashes >= self.crash_loop_threshold

    def _spawn_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # The worker must import repro from the same tree as the router.
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    async def start(self) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro.serve.cluster.worker",
            self.index_path,
            "--shard",
            str(self.shard_index),
            "--replica",
            str(self.replica_index),
            "--lengths",
            ",".join(str(length) for length in self.lengths),
            "--cache-size",
            str(self.cache_size),
        ]
        if self.threads is not None:
            cmd += ["--threads", str(self.threads)]
        self.process = await asyncio.create_subprocess_exec(
            *cmd,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # worker banner/tracebacks share our stderr
            env=self._spawn_env(),
            limit=_LINE_LIMIT,
        )
        self._started_time = time.monotonic()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def _read_loop(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        stdout = self.process.stdout
        while True:
            try:
                line = await stdout.readline()
            except ValueError:
                # A line over _LINE_LIMIT: the stream has lost its
                # framing, so treat it as a dead pipe — fail what is in
                # flight now and let the monitor respawn the worker.
                self._fail_pending()
                with contextlib.suppress(ProcessLookupError):
                    self.process.kill()
                break
            if not line:
                break
            try:
                response = json.loads(line)
            except ValueError:
                # A corrupt frame can only strand its future; the
                # sender's deadline budget (or the worker's death)
                # resolves the stranded request (DESIGN.md §15).
                continue
            future = self._pending.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result(response)

    async def _monitor(self) -> None:
        """Fail in-flight requests on worker death; respawn with backoff.

        A worker that dies within ``healthy_uptime`` seconds of its
        spawn counts as a consecutive crash: each one doubles the
        respawn delay (capped) so a crash-looping binary cannot pin a
        CPU respawning, and past ``crash_loop_threshold`` the worker is
        surfaced as ``crash_looping`` in ``health``.
        """
        assert self.process is not None
        await self.process.wait()
        self._fail_pending()
        if self._stopping:
            return
        uptime = time.monotonic() - (self._started_time or 0.0)
        if uptime < self.healthy_uptime:
            self.consecutive_crashes += 1
        else:
            self.consecutive_crashes = 1
        if self.crash_looping:
            self.metrics.record_crash_loop()
        self.restarts += 1
        self.metrics.record_worker_restart()
        await asyncio.sleep(
            respawn_delay(
                self.consecutive_crashes,
                self.respawn_backoff,
                self.respawn_backoff_cap,
            )
        )
        if not self._stopping:
            await self.start()

    def _fail_pending(self) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ShardUnavailable(self.shard_index))

    async def request(self, payload: dict) -> dict:
        """One round-trip; raises :class:`ShardUnavailable` on worker death.

        Callers in this package must bound the await with
        ``asyncio.wait_for`` (ONEX504): an unbounded shard RPC waits
        forever on a dropped frame or a hung worker.
        """
        if not self.alive or self.process.stdin is None:
            raise ShardUnavailable(self.shard_index)
        request_id = self._next_id
        self._next_id += 1
        payload = {**payload, "id": request_id}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        started = time.perf_counter()
        try:
            self.process.stdin.write((json.dumps(payload) + "\n").encode())
            await self.process.stdin.drain()
        except (ConnectionError, BrokenPipeError, RuntimeError) as exc:
            self._pending.pop(request_id, None)
            raise ShardUnavailable(self.shard_index) from exc
        try:
            response = await future
        finally:
            self._pending.pop(request_id, None)
        self.latency.observe(time.perf_counter() - started)
        response.pop("id", None)
        return response

    async def ping(self) -> float:
        """Round-trip a ping, recording and returning the RTT in ms."""
        started = time.perf_counter()
        try:
            await asyncio.wait_for(
                self.request({"op": "ping"}), timeout=self.ping_timeout
            )
        except asyncio.TimeoutError:
            raise ShardUnavailable(self.shard_index) from None
        rtt_ms = (time.perf_counter() - started) * 1000.0
        self.last_ping_ms = rtt_ms
        return rtt_ms

    async def stop(self) -> None:
        self._stopping = True
        if self.alive and self.process.stdin is not None:
            with contextlib.suppress(Exception):
                self.process.stdin.write(
                    (json.dumps({"op": "shutdown"}) + "\n").encode()
                )
                await self.process.stdin.drain()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.process.wait(), timeout=5)
        if self.alive:
            self.process.kill()
            await self.process.wait()
        for task in (self._reader_task, self._monitor_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task

    def health(self) -> dict:
        return {
            "shard": self.shard_index,
            "replica": self.replica_index,
            "lengths": list(self.lengths),
            "alive": self.alive,
            "pid": self.pid,
            "restarts": self.restarts,
            "consecutive_crashes": self.consecutive_crashes,
            "crash_looping": self.crash_looping,
            "breaker": self.breaker.to_dict(),
            "last_ping_ms": self.last_ping_ms,
        }


class ShardReplicas:
    """The replica set serving one shard, with failover + retry.

    ``call`` is the only compute path into a shard: it picks the first
    live replica whose breaker admits traffic (replica 0 preferred —
    keeping one replica hot maximises its scan/refine cache hits), and
    on worker death or per-replica timeout retries on the next pick
    with exponential backoff + jitter, bounded by the request's
    deadline budget. Results are bit-identical whichever replica
    answers, because every replica restores the identical shard.
    """

    def __init__(
        self,
        shard_index: int,
        replicas: list[WorkerHandle],
        metrics: ClusterMetrics,
        rng: random.Random,
        replica_timeout: float | None = None,
        retry_base: float = 0.02,
        retry_cap: float = 0.5,
    ) -> None:
        self.shard_index = shard_index
        self.replicas = replicas
        self.metrics = metrics
        self._rng = rng
        self.replica_timeout = replica_timeout
        self.retry_base = retry_base
        self.retry_cap = retry_cap

    @property
    def lengths(self) -> tuple[int, ...]:
        return self.replicas[0].lengths

    def pick(self) -> WorkerHandle | None:
        """First live replica whose breaker admits traffic, else None."""
        for worker in self.replicas:
            if worker.alive and worker.breaker.allows():
                return worker
        return None

    def _attempt_timeout(self, budget: Budget | None) -> float | None:
        candidates = [
            timeout
            for timeout in (
                self.replica_timeout,
                budget.remaining_seconds() if budget is not None else None,
            )
            if timeout is not None
        ]
        return min(candidates) if candidates else None

    async def call(self, payload: dict, budget: Budget | None = None) -> dict:
        """One shard RPC with replica failover, retry, and deadlines."""
        max_attempts = 2 * len(self.replicas)
        previous: WorkerHandle | None = None
        attempts = 0
        while True:
            if budget is not None:
                budget.check()
            worker = self.pick()
            if worker is None:
                raise ShardUnavailable(self.shard_index)
            if (worker is not previous and previous is not None) or (
                previous is None and worker is not self.replicas[0]
            ):
                # Served away from the primary replica — whether the
                # switch happened mid-request (retry) or the primary
                # was already down when the request arrived.
                self.metrics.record_failover()
            attempt_payload = payload
            if budget is not None:
                # Child budget <= parent budget, by construction.
                attempt_payload = {
                    **payload,
                    "budget_ms": max(
                        0.0, budget.remaining_seconds() * 1000.0
                    ),
                }
            try:
                response = await asyncio.wait_for(
                    worker.request(attempt_payload),
                    timeout=self._attempt_timeout(budget),
                )
            except (ShardUnavailable, asyncio.TimeoutError) as exc:
                worker.breaker.record_failure()
                self.metrics.record_shard_error()
                if isinstance(exc, asyncio.TimeoutError):
                    self.metrics.record_replica_timeout()
                attempts += 1
                previous = worker
                if budget is not None and budget.remaining_seconds() <= 0:
                    raise DeadlineExceeded(budget.timeout_ms) from exc
                if attempts >= max_attempts:
                    raise ShardUnavailable(self.shard_index) from exc
                self.metrics.record_retry()
                backoff = min(
                    self.retry_cap, self.retry_base * 2 ** (attempts - 1)
                )
                # Jitter in [0.5x, 1.5x) from a seeded RNG: spreads
                # synchronized retries without nondeterministic state.
                backoff *= 0.5 + self._rng.random()
                if budget is not None:
                    backoff = min(
                        backoff, max(0.0, budget.remaining_seconds())
                    )
                if backoff > 0:
                    await asyncio.sleep(backoff)
                continue
            worker.breaker.record_success()
            return response


class ClusterRouter:
    """The scatter-gather front for one sharded, replicated index."""

    def __init__(
        self,
        index_path: str,
        n_shards: int,
        n_replicas: int = 1,
        max_inflight: int = 64,
        cache_size: int = 1024,
        worker_threads: int | None = None,
        ping_interval: float = 5.0,
        replica_timeout_ms: float | None = None,
        retry_base_ms: float = 20.0,
        retry_cap_ms: float = 500.0,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
        respawn_backoff: float = 0.2,
        respawn_backoff_cap: float = 10.0,
        crash_loop_threshold: int = 3,
    ) -> None:
        self.index_path = os.fspath(index_path)
        self.manifest = read_manifest(self.index_path)
        self.shard_map: ShardMap = shard_map_from_manifest(
            self.manifest, n_shards
        )
        self.n_replicas = max(1, int(n_replicas))
        self.replica_slots = assign_replicas(self.shard_map, self.n_replicas)
        self.st = float(self.manifest["st"])
        self.max_inflight = max(1, int(max_inflight))
        self.ping_interval = float(ping_interval)
        self.metrics = ClusterMetrics()
        self.jobs = JobQueue()
        self.faults = FaultInjector.from_env()
        # Retry jitter only spreads backoff sleeps — seeding keeps the
        # router free of process-global RNG state (ONEX602 discipline).
        self._rng = random.Random(0x0ECF)
        replica_timeout = (
            None if replica_timeout_ms is None else replica_timeout_ms / 1000.0
        )
        self.shards = [
            ShardReplicas(
                shard_index,
                [
                    WorkerHandle(
                        shard_index,
                        replica_index,
                        owned,
                        self.index_path,
                        self.metrics,
                        cache_size=cache_size,
                        threads=worker_threads,
                        breaker_failure_threshold=breaker_failure_threshold,
                        breaker_reset_seconds=breaker_reset_seconds,
                        respawn_backoff=respawn_backoff,
                        respawn_backoff_cap=respawn_backoff_cap,
                        crash_loop_threshold=crash_loop_threshold,
                    )
                    for replica_index in range(self.n_replicas)
                ],
                self.metrics,
                self._rng,
                replica_timeout=replica_timeout,
                retry_base=retry_base_ms / 1000.0,
                retry_cap=retry_cap_ms / 1000.0,
            )
            for shard_index, owned in enumerate(self.shard_map.shards)
        ]
        self._inflight = 0
        self.draining = False
        self._ping_task: asyncio.Task | None = None

    @property
    def workers(self) -> list[WorkerHandle]:
        """Every worker, shard-major (replicas of shard 0 first)."""
        return [
            worker
            for replica_set in self.shards
            for worker in replica_set.replicas
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn all workers and wait until each answers a ping."""
        await asyncio.gather(*(worker.start() for worker in self.workers))
        await asyncio.gather(*(worker.ping() for worker in self.workers))
        self._ping_task = asyncio.ensure_future(self._ping_loop())

    async def _ping_loop(self) -> None:
        while True:
            await asyncio.sleep(self.ping_interval)
            for worker in self.workers:
                if worker.alive:
                    with contextlib.suppress(ShardUnavailable):
                        await worker.ping()

    async def drain(self) -> None:
        """Stop admitting work, wait out in-flight requests, stop workers."""
        self.draining = True
        while self._inflight > 0:
            await asyncio.sleep(0.02)
        if self._ping_task is not None:
            self._ping_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ping_task
        await asyncio.gather(*(worker.stop() for worker in self.workers))
        # jobs.close() joins the worker thread (up to 30s): run it off
        # the loop so a long-running build can't freeze the drain.
        await asyncio.get_running_loop().run_in_executor(
            None, self.jobs.close
        )

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    async def process_line(self, line: str) -> str | None:
        """One JSON line in, one JSON line out (None for blank input)."""
        line = line.strip()
        if not line:
            return None
        started = time.perf_counter()
        try:
            request = json.loads(line)
        except ValueError as exc:
            self.metrics.stages["parse"].observe(time.perf_counter() - started)
            return json.dumps({"ok": False, "error": str(exc) or repr(exc)})
        self.metrics.stages["parse"].observe(time.perf_counter() - started)
        return json.dumps(await self.process_request(request))

    async def process_request(self, request: dict) -> dict:
        """Admission control + dispatch + id echo for one request."""
        request_id = None
        route_started = time.perf_counter()
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            self.metrics.record_op(str(op))
            if op in _ADMISSION_EXEMPT:
                self.metrics.stages["route"].observe(
                    time.perf_counter() - route_started
                )
                response = await self._dispatch_exempt(op, request)
            elif self.draining:
                self.metrics.record_error("draining")
                response = {
                    "ok": False,
                    "error": "server is draining",
                    "code": "draining",
                }
            elif self._inflight >= self.max_inflight:
                self.metrics.record_busy()
                response = {
                    "ok": False,
                    "error": (
                        f"too many in-flight requests "
                        f"(max_inflight={self.max_inflight})"
                    ),
                    "code": "busy",
                }
            else:
                timeout_ms = parse_timeout_ms(request)
                budget = None if timeout_ms is None else Budget(timeout_ms)
                self._inflight += 1
                self.metrics.stages["route"].observe(
                    time.perf_counter() - route_started
                )
                try:
                    response = await self._dispatch(op, request, budget)
                finally:
                    self._inflight -= 1
        except DeadlineExceeded as exc:
            self.metrics.record_deadline_exceeded()
            response = {
                "ok": False,
                "error": str(exc),
                "code": "deadline_exceeded",
            }
        except ShardUnavailable as exc:
            self.metrics.record_error("shard_unavailable")
            response = {
                "ok": False,
                "error": str(exc),
                "code": "shard_unavailable",
            }
        except Exception as exc:  # noqa: BLE001 — same contract as the
            # single-process loop: a bad request answers, never crashes.
            response = {"ok": False, "error": str(exc) or repr(exc)}
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_exempt(self, op: str, request: dict) -> dict:
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "health":
            return {"ok": True, "health": self._health()}
        if op == "metrics":
            return {"ok": True, "metrics": await self._metrics()}
        if op == "submit":
            return {
                "ok": True,
                **self.jobs.submit(
                    str(request.get("kind")), request.get("params", {})
                ),
            }
        if op == "job_status":
            return {"ok": True, **self.jobs.status(request["job"])}
        if op == "jobs":
            return {
                "ok": True,
                "jobs": self.jobs.list_jobs(),
                "closed_clean": self.jobs.closed_clean,
            }
        raise ValueError(f"unhandled exempt op {op!r}")

    async def _dispatch(
        self, op: str, request: dict, budget: Budget | None
    ) -> dict:
        if op == "query":
            return await self._op_query(request, budget)
        if op == "within":
            return await self._op_within(request, budget)
        if op == "seasonal":
            return await self._forward_length_op(
                request, request.get("length"), budget
            )
        if op == "recommend":
            return await self._forward(0, request, budget)
        if op == "info":
            return {"ok": True, "info": await self._info()}
        if op == "shard_sleep":
            # Test/debug aid: hold one replica busy (fault injection).
            # Routed directly (no retry) — replaying a sleep on another
            # replica would defeat its purpose as a fault primitive.
            return await self._direct_replica_op(request, "sleep", budget)
        if op == "inject_fault":
            if not self.faults.enabled:
                raise ValueError(
                    "fault injection is disabled (set ONEX_FAULTS=1 "
                    "on the router and workers to enable)"
                )
            return await self._direct_replica_op(request, "inject_fault", budget)
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _direct_replica_op(
        self, request: dict, op: str, budget: Budget | None
    ) -> dict:
        """Forward to one addressed replica with no retry or failover."""
        shard = int(request.get("shard", 0))
        replica = int(request.get("replica", 0))
        worker = self.shards[shard].replicas[replica]
        payload = {
            key: value
            for key, value in request.items()
            if key not in ("id", "shard", "replica", "timeout_ms")
        }
        payload["op"] = op
        if budget is not None:
            payload["budget_ms"] = max(
                0.0, budget.remaining_seconds() * 1000.0
            )
        started = time.perf_counter()
        try:
            try:
                return await asyncio.wait_for(
                    worker.request(payload),
                    timeout=(
                        None if budget is None else budget.remaining_seconds()
                    ),
                )
            except asyncio.TimeoutError:
                self.metrics.record_replica_timeout()
                raise DeadlineExceeded(budget.timeout_ms) from None
        finally:
            self.metrics.stages["shard_compute"].observe(
                time.perf_counter() - started
            )

    async def _forward(
        self, shard_index: int, request: dict, budget: Budget | None
    ) -> dict:
        payload = {
            key: value
            for key, value in request.items()
            if key not in ("id", "timeout_ms", "allow_partial")
        }
        return await self._shard_call(self.shards[shard_index], payload, budget)

    async def _shard_call(
        self,
        replica_set: ShardReplicas,
        payload: dict,
        budget: Budget | None,
    ) -> dict:
        started = time.perf_counter()
        try:
            return await replica_set.call(payload, budget)
        finally:
            self.metrics.stages["shard_compute"].observe(
                time.perf_counter() - started
            )

    def _owner_or_zero(self, length: int) -> int:
        """Owning shard, or shard 0 for unindexed lengths.

        Shard 0 then raises the very error a single process would for
        that length — identical error text, no router-side duplicate of
        the core's validation.
        """
        try:
            return self.shard_map.owner(int(length))
        except (KeyError, TypeError, ValueError):
            return 0

    async def _forward_length_op(
        self, request: dict, length, budget: Budget | None
    ) -> dict:
        if length is None:
            raise KeyError("length")
        return await self._forward(self._owner_or_zero(length), request, budget)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    async def _op_query(self, request: dict, budget: Budget | None) -> dict:
        if "values" not in request and "queries" not in request:
            raise ValueError("query op requires 'values' or 'queries'")
        length = request.get("length")
        if length is not None:
            # Exact-length: whole request belongs to one shard.
            return await self._forward(
                self._owner_or_zero(length), request, budget
            )
        k = int(request.get("k", 1))
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        normalized = bool(request.get("normalized", True))
        allow_partial = bool(request.get("allow_partial", False))
        batch = "queries" in request
        queries = list(request["queries"]) if batch else [request["values"]]
        results, degraded = await self._walk(
            queries, k, normalized, budget, allow_partial
        )
        response = (
            {"ok": True, "results": results}
            if batch
            else {"ok": True, "matches": results[0]}
        )
        return self._mark_degraded(response, degraded)

    async def _call_shards(
        self,
        calls: list[tuple[int, dict]],
        budget: Budget | None,
        allow_partial: bool,
    ) -> list[dict | None]:
        """Issue the ``(shard, payload)`` RPCs concurrently, replies in order.

        A shard with no live replica raises :class:`ShardUnavailable`
        unless ``allow_partial``, which yields ``None`` in its place; a
        reply that is not ``ok`` raises its error text.
        """
        started = time.perf_counter()
        try:
            outcomes = await asyncio.gather(
                *(
                    self.shards[shard].call(payload, budget)
                    for shard, payload in calls
                ),
                return_exceptions=True,
            )
        finally:
            self.metrics.stages["shard_compute"].observe(
                time.perf_counter() - started
            )
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, ShardUnavailable) and allow_partial:
                outcomes[index] = None
            elif isinstance(outcome, BaseException):
                raise outcome
        for (_, payload), outcome in zip(calls, outcomes, strict=True):
            if outcome is not None and not outcome.get("ok"):
                raise ValueError(
                    outcome.get("error", f"{payload['op']} failed")
                )
        return outcomes

    async def _walk(
        self,
        queries: list,
        k: int,
        normalized: bool,
        budget: Budget | None,
        allow_partial: bool,
    ) -> tuple[list[list[dict]], set[int]]:
        """Answer ``Match = Any`` queries by walking the sweep across shards.

        Every query visits its :func:`sweep_runs` in order. Per round
        the unfinished queries are grouped by the shard of their next
        step, one RPC per shard: a ``sweep`` of the next run, seeded
        with the bound carried from the runs before, or — once a query
        is out of runs without having been answered — a ``refine`` on
        the owner of its best. A shard answers a query in place when its
        sweep stops there, so most walks are one round.

        With ``allow_partial`` a shard that cannot be reached is dropped
        from every remaining walk of this request (returned as the
        degraded set), and a query whose best it held starts over
        without it.
        """
        self.metrics.record_any_length(queries=len(queries))

        def start(values) -> _Walk:
            # Malformed values go to some shard, whose validation words
            # the error exactly as a single process would.
            length = len(values) if isinstance(values, list) else 0
            return _Walk(values, sweep_runs(self.shard_map, length))

        walks = [start(values) for values in queries]
        results: list = [None] * len(queries)
        degraded: set[int] = set()
        pending = list(range(len(queries)))
        while pending:
            steps: dict[tuple[int, str], list[int]] = {}
            for index in pending:
                walk = walks[index]
                walk.runs = [run for run in walk.runs if run[0] not in degraded]
                step = walk.step(self.shard_map)
                if step is None:
                    raise ValueError(_NO_REP_ERROR)
                steps.setdefault(step, []).append(index)
            calls = [
                (
                    shard,
                    {
                        "op": op,
                        "k": k,
                        "normalized": normalized,
                        "jobs": [walks[index].job(op) for index in members],
                    },
                )
                for (shard, op), members in steps.items()
            ]
            self.metrics.record_any_length(shard_rpcs=len(calls))
            replies = await self._call_shards(calls, budget, allow_partial)
            merge_started = time.perf_counter()
            pending = []
            for ((shard, op), members), reply in zip(
                steps.items(), replies, strict=True
            ):
                if reply is None:
                    degraded.add(shard)
                    if op == "refine":
                        for index in members:
                            walks[index] = start(queries[index])
                    pending.extend(members)
                    continue
                for index, result in zip(
                    members, reply["results"], strict=True
                ):
                    if op == "refine":
                        results[index] = result
                    elif "matches" in result:
                        results[index] = result["matches"]
                    else:
                        walk = walks[index]
                        del walk.runs[0]
                        if result:
                            walk.best = (result["length"], result["scans"])
                        pending.append(index)
            self.metrics.stages["merge"].observe(
                time.perf_counter() - merge_started
            )
        return results, degraded

    def _mark_degraded(self, response: dict, degraded: set[int]) -> dict:
        if degraded:
            self.metrics.record_degraded()
            response["degraded"] = True
            response["missing_shards"] = sorted(degraded)
            response["missing_lengths"] = sorted(
                length
                for shard in degraded
                for length in self.shards[shard].lengths
            )
        return response

    # ------------------------------------------------------------------
    # within
    # ------------------------------------------------------------------
    async def _op_within(self, request: dict, budget: Budget | None) -> dict:
        if request.get("length") is not None:
            # Explicit single length: whole request belongs to one shard.
            return await self._forward(
                self._owner_or_zero(request["length"]), request, budget
            )
        allow_partial = bool(request.get("allow_partial", False))
        base = {
            key: value
            for key, value in request.items()
            if key not in ("id", "lengths", "timeout_ms", "allow_partial")
        }
        requested = request.get("lengths")
        wanted = (
            None if requested is None else {int(length) for length in requested}
        )
        if wanted is not None and not wanted <= set(self.shard_map.lengths):
            # An unindexed length must raise the single-process error;
            # let shard 0's core validation produce it verbatim.
            return await self._forward(0, request, budget)
        calls = [
            (replica_set.shard_index, {**base, "lengths": owned})
            for replica_set in self.shards
            for owned in [
                list(replica_set.lengths)
                if wanted is None
                else sorted(set(replica_set.lengths) & wanted)
            ]
            if owned
        ]
        replies = await self._call_shards(calls, budget, allow_partial)
        degraded = {
            shard
            for (shard, _), reply in zip(calls, replies, strict=True)
            if reply is None
        }
        merge_started = time.perf_counter()
        merged = merge_within(
            [reply["matches"] for reply in replies if reply is not None]
        )
        self.metrics.stages["merge"].observe(
            time.perf_counter() - merge_started
        )
        return self._mark_degraded({"ok": True, "matches": merged}, degraded)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        workers = [worker.health() for worker in self.workers]
        shard_live = [
            any(worker.alive for worker in replica_set.replicas)
            for replica_set in self.shards
        ]
        crash_looping = [
            {"shard": worker.shard_index, "replica": worker.replica_index}
            for worker in self.workers
            if worker.crash_looping
        ]
        if self.draining:
            status = "draining"
        elif not all(shard_live):
            status = "unavailable"
        elif crash_looping or not all(entry["alive"] for entry in workers):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "draining": self.draining,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "n_replicas": self.n_replicas,
            "shard_map": self.shard_map.to_dict(),
            "replica_slots": [list(slots) for slots in self.replica_slots],
            "shards": workers,
            "crash_looping": crash_looping,
            "shard_latency": [
                worker.latency.to_dict() for worker in self.workers
            ],
        }

    async def _shard_infos(self) -> list[dict]:
        outcomes = await asyncio.gather(
            *(
                replica_set.call({"op": "shard_info"})
                for replica_set in self.shards
            ),
            return_exceptions=True,
        )
        infos = []
        for replica_set, outcome in zip(self.shards, outcomes, strict=True):
            if isinstance(outcome, ShardUnavailable):
                # Observability must degrade, not fail, when a whole
                # shard is down — operators need the remaining picture.
                infos.append(
                    {"shard": replica_set.shard_index, "unavailable": True}
                )
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            if not outcome.get("ok"):
                raise ValueError(outcome.get("error", "shard_info failed"))
            infos.append(outcome["info"])
        return infos

    async def _metrics(self) -> dict:
        infos = await self._shard_infos()
        cache = {"hits": 0, "misses": 0, "entries": 0, "evictions": 0}
        cascade: dict[str, float] = {}
        for info in infos:
            for key in cache:
                cache[key] += int(info.get("cache", {}).get(key, 0))
            for key, value in info.get("query_stats", {}).items():
                if isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)):
                    cascade[key] = cascade.get(key, 0) + value
        return {
            **self.metrics.to_dict(),
            "shard_latency": [
                worker.latency.to_dict() for worker in self.workers
            ],
            "breakers": [worker.breaker.to_dict() for worker in self.workers],
            "cache": cache,
            "query_stats": cascade,
            "per_shard": infos,
        }

    async def _info(self) -> dict:
        infos = await self._shard_infos()
        return {
            "dataset": self.manifest.get("dataset_name"),
            "st": self.st,
            "lengths": self.shard_map.lengths,
            "n_shards": self.shard_map.n_shards,
            "n_replicas": self.n_replicas,
            "shard_map": self.shard_map.to_dict(),
            "shards": infos,
        }

    # ------------------------------------------------------------------
    # Serving loops
    # ------------------------------------------------------------------
    async def serve_stdio(self) -> int:
        """Serve JSON lines from stdin until EOF, then drain."""
        loop = asyncio.get_event_loop()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def answer(line: str) -> None:
            response = await self.process_line(line)
            if response is not None:
                async with write_lock:
                    sys.stdout.write(response + "\n")
                    sys.stdout.flush()

        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            task = asyncio.ensure_future(answer(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.drain()
        return 0

    async def serve_tcp(self, host: str, port: int) -> int:
        """Serve JSON lines per TCP connection until cancelled."""

        async def handle(reader: asyncio.StreamReader, writer) -> None:
            try:
                while True:
                    line = await _read_frame(reader)
                    if line is None:
                        response = json.dumps(
                            {
                                "ok": False,
                                "error": f"request line over {_LINE_LIMIT} bytes",
                                "code": "frame_too_large",
                            }
                        )
                    elif not line:
                        break
                    else:
                        response = await self.process_line(line.decode())
                    if response is not None:
                        writer.write((response + "\n").encode())
                        await writer.drain()
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

        server = await asyncio.start_server(
            handle, host, port, limit=_LINE_LIMIT
        )
        address = ", ".join(
            str(sock.getsockname()) for sock in server.sockets
        )
        print(f"onex-cluster listening on {address}", file=sys.stderr)
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        await self.drain()
        return 0
