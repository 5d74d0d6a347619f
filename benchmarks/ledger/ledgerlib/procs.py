"""Process hygiene: every child the harness starts, it also stops.

* children run in their own session, so one ``killpg`` stops a whole
  ``onex serve`` tree (router *and* workers) even when the router died
  first and left orphans;
* the harness is the *subreaper* of its tree (``adopt_orphans``): an
  orphan — the resource tracker of an ``onex build --jobs 2`` that has
  exited, a worker whose router was killed — becomes its child instead
  of init's, and ``reap_descendants`` kills and waits for every child
  until none is left, so not even a zombie outlives the run;
* every read has a deadline — a hung server fails the op, never the run;
* scratch directories live under ``benchmarks/ledger/results/`` (the
  harness writes nowhere else) and are removed on the way out;
* ``atexit`` repeats the teardown for paths a ``finally`` never reached.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import os
import resource
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
RESULTS = os.path.join(HERE, "results")

OP_TIMEOUT_S = 30.0  # client-side limit on any single request
SPAWN_TIMEOUT_S = 60.0
BUILD_TIMEOUT_S = 150.0

_started_groups: set[int] = set()  # every group ever started
_live_dirs: set[str] = set()
_owns_tree = False  # set by adopt_orphans(): every child of this process is ours


class HarnessTimeout(Exception):
    """A child did not answer within its deadline."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


def onex_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


# ----------------------------------------------------------------------
# Scratch directories
# ----------------------------------------------------------------------
def make_workdir(tag: str) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stamp = f"tmp-{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path = os.path.join(RESULTS, stamp)
    os.makedirs(path)
    _live_dirs.add(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    _live_dirs.discard(path)


def sweep_stale_workdirs() -> None:
    """Drop scratch left by runs whose process is gone (second-run hygiene)."""
    if not os.path.isdir(RESULTS):
        return
    for name in os.listdir(RESULTS):
        parts = name.split("-")
        if not name.startswith("tmp-") or len(parts) < 4:
            continue
        try:
            os.kill(int(parts[-2]), 0)
        except (ValueError, ProcessLookupError):
            shutil.rmtree(os.path.join(RESULTS, name), ignore_errors=True)
        except PermissionError:
            pass  # alive, owned by someone else


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _processes():
    """(pid, state, ppid, pgid) of every process there is right now."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone while we looked
        yield int(name), fields[0], int(fields[1]), int(fields[2])


def _group_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid`` that still run (zombies have ended)."""
    return [
        pid for pid, state, _, group in _processes() if state != "Z" and group == pgid
    ]


def _children() -> list[int]:
    """Direct children of this process, zombies included."""
    me = os.getpid()
    return [pid for pid, _, parent, _ in _processes() if parent == me]


def _kill_group(pgid: int) -> None:
    """SIGKILL the whole group and wait until nothing of it runs."""
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def stop_process(process: subprocess.Popen, graceful: int | None = None) -> None:
    """Stop ``process`` and everything in its session; wait until gone.

    ``graceful`` is a signal sent to the leader first (the cluster
    router drains its workers on SIGINT); the group is SIGKILLed after
    the grace period regardless, which also sweeps orphaned workers.
    """
    if process.poll() is None and graceful is not None:
        with contextlib.suppress(ProcessLookupError):
            process.send_signal(graceful)
        with contextlib.suppress(subprocess.TimeoutExpired):
            process.wait(timeout=8)
    _kill_group(process.pid)
    with contextlib.suppress(subprocess.TimeoutExpired):
        process.wait(timeout=10)
    for stream in (process.stdin, process.stdout):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.close()


def spawn(cmd: list[str], log_path: str, **popen_kwargs) -> subprocess.Popen:
    """Start a child in its own session, stderr appended to ``log_path``."""
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            cmd,
            stderr=log,
            env=child_env(),
            start_new_session=True,
            **popen_kwargs,
        )
    _started_groups.add(process.pid)
    return process


def run_onex(args: list[str], log_path: str, timeout: float) -> tuple[float, str]:
    """Run one ``onex`` command to completion: (wall seconds, stdout).

    Raises ``RuntimeError`` on a non-zero exit and ``HarnessTimeout``
    past the deadline (its whole process group is killed first).
    """
    started = time.perf_counter()
    process = spawn(onex_cmd(*args), log_path, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_process(process)
        raise HarnessTimeout(f"onex {' '.join(args)} exceeded {timeout}s") from None
    wall = time.perf_counter() - started
    # The leader is gone; pool workers of `build --jobs N` share its group.
    _kill_group(process.pid)
    if process.returncode != 0:
        raise RuntimeError(
            f"onex {' '.join(args)} exited {process.returncode}; see {log_path}"
        )
    return wall, stdout


_SPIN = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < {}: pass"


def wake_cpus(seconds: float) -> None:
    """Keep every core busy for a moment before anything is timed.

    After a lull of a few seconds the reference box (a 2-vCPU microVM)
    runs its first ~2 s of work 20 % slow and gains nothing from a
    second process (a fresh `onex build` 1.45 s instead of 1.19 s,
    `--jobs 2` 1.25 s instead of 0.83 s); one second of load on every
    core clears that, and measured runs then start from the same state
    whether they follow another run or a pause.
    """
    if seconds <= 0:
        return
    spinners = [
        spawn([sys.executable, "-c", _SPIN.format(seconds)], os.devnull)
        for _ in range(os.cpu_count() or 1)
    ]
    for spinner in spinners:
        spinner.wait()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def live_children() -> list[int]:
    """Pids of any group the harness ever started that still run."""
    return [pid for pgid in sorted(_started_groups) for pid in _group_members(pgid)]


def adopt_orphans() -> None:
    """Make this process the reaper of everything that descends from it.

    Without this an orphan is handed to pid 1, which reaps it whenever
    it gets to it: a traced run left up to seven zombies behind for seconds,
    and the resource tracker of an in-process ``n_jobs=2`` build ends
    only *after* the process that started it. Call it before the first
    child is started, and only in a process the harness owns: from then
    on ``reap_descendants`` treats every child of this process as its own.
    """
    global _owns_tree
    pr_set_child_subreaper = 36  # <linux/prctl.h>
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    _owns_tree = True
    # Leave through `atexit` when told to stop, too (SIGINT already does).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def _stop_resource_tracker() -> None:
    """End multiprocessing's tracker now; left alone it outlives this process."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)  # private; without it: killed below
    if stop is not None:
        with contextlib.suppress(OSError):
            stop()  # closes its pipe, so it cleans up and exits; waits for it


def reap_descendants(grace: float = 10.0) -> list[int]:
    """Kill and wait for every process below this one; returns what is left.

    Started groups go first. Under ``adopt_orphans`` the rest is a loop
    over our children: each one killed may hand us its own children, so
    it runs until ``/proc`` shows none — stopped, waited for, no zombie.
    """
    for pgid in list(_started_groups):
        _kill_group(pgid)
    if not _owns_tree:
        return live_children()
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    while True:
        children = _children()
        if not children:
            return []
        for pid in children:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
        try:
            reaped, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            reaped = 0
        if reaped == 0:
            if time.monotonic() > deadline:
                return children
            time.sleep(0.005)


@atexit.register
def _teardown() -> None:
    reap_descendants()
    for path in list(_live_dirs):
        remove_workdir(path)


# ----------------------------------------------------------------------
# JSON-lines clients
# ----------------------------------------------------------------------
class LineChannel:
    """Deadline-bounded line I/O over a pipe pair or a socket."""

    def __init__(self, read_fd: int, write, recv) -> None:
        self._read_fd = read_fd
        self._write = write
        self._recv = recv
        self._buffer = bytearray()

    def roundtrip(self, line: str, timeout: float = OP_TIMEOUT_S) -> str:
        self._write(line.encode() + b"\n")
        return self.read_line(timeout)

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line.decode()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessTimeout(f"no reply within {timeout}s")
            ready, _, _ = select.select([self._read_fd], [], [], remaining)
            if not ready:
                continue
            chunk = self._recv(1 << 16)
            if not chunk:
                raise HarnessTimeout("peer closed the connection")
            self._buffer += chunk


class StdioServer:
    """``onex serve INDEX`` over its stdin/stdout pipes."""

    def __init__(self, index_path: str, log_path: str) -> None:
        self.process = spawn(
            onex_cmd("serve", index_path),
            log_path,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        stdin, stdout = self.process.stdin, self.process.stdout

        def write_all(data: bytes) -> None:
            view = memoryview(data)
            while view:  # unbuffered pipe writes may be partial
                view = view[stdin.write(view) :]

        self.channel = LineChannel(
            stdout.fileno(), write_all, lambda size: os.read(stdout.fileno(), size)
        )

    def wait_healthy(self) -> None:
        self.channel.roundtrip('{"op": "ping"}', SPAWN_TIMEOUT_S)

    def close(self) -> None:
        if self.process.stdin is not None:
            with contextlib.suppress(OSError):
                self.process.stdin.close()  # EOF ends serve_forever
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.process.wait(timeout=8)
        stop_process(self.process)


class TcpCluster:
    """``onex serve INDEX --shards N --replicas R --port P``, one connection."""

    def __init__(
        self, index_path: str, log_path: str, shards: int = 2, replicas: int = 2
    ) -> None:
        self.port = free_port()
        self.process = spawn(
            onex_cmd(
                "serve",
                index_path,
                "--shards",
                str(shards),
                "--replicas",
                str(replicas),
                "--port",
                str(self.port),
            ),
            log_path,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        self.sock: socket.socket | None = None
        self.channel: LineChannel | None = None

    def wait_healthy(self) -> None:
        """Connect (the router binds only after every worker pinged)."""
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("cluster router exited during start-up")
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=1)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise HarnessTimeout("cluster did not start listening") from None
                time.sleep(0.02)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(True)
        self.sock = sock
        self.channel = LineChannel(sock.fileno(), sock.sendall, sock.recv)
        self.channel.roundtrip('{"op": "ping"}', SPAWN_TIMEOUT_S)

    def close(self, graceful: bool = True) -> None:
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self.sock.close()
        # SIGINT cancels serve_tcp, which drains: workers get `shutdown`
        # and are reaped by the router, so their RSS reaches our rusage.
        stop_process(self.process, graceful=signal.SIGINT if graceful else None)
