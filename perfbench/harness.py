"""Server processes and the closed-loop HTTP client of the benchmark.

Each server is a fresh ``python -m repro serve --store DIR --port 0`` (or the
traced launcher) started from the checkout's ``src``.  Its stdout (the
``listening on`` banner) and stderr (one JSON access-log line per request)
go to files, never to a pipe: a full pipe buffer would block the server.

The client runs ``connections`` threads, each with one keep-alive
``http.client`` connection.  A thread takes the next operation index from a
shared counter, sends it, reads the whole response and records the latency
from request write to full response read: a closed loop, so a slow server
receives less load.  A timed run ends with the block of operations that was
open at the deadline, so it always holds the workload's class proportions.
Responses are kept as bytes and checked after the timed phase, so the client
does no parsing while it is being timed.
"""

from __future__ import annotations

import http.client
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_BANNER = re.compile(rb"listening on http://[^:]+:(\d+)")

#: A timed run holds at least this many ops, so that ``p90_ms`` has at
#: least ten samples beyond it.
MIN_TIMED_OPS = 100


@dataclass(frozen=True)
class Op:
    """One request: method, path and JSON body bytes."""

    method: str
    path: str
    body: bytes


@dataclass
class Sample:
    """What the client saw for one operation."""

    index: int
    latency: float
    status: Optional[int]
    data: bytes
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """An answer with a 2xx status arrived."""
        return self.status is not None and 200 <= self.status < 300


def server_env() -> Dict[str, str]:
    """The environment a server process runs with: ``src`` importable, unbuffered."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro serve`` child process on a store directory."""

    def __init__(self, store: Path, log_dir: Path, spans: Optional[Path] = None) -> None:
        serve_args = ["serve", "--store", str(store), "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(HERE / "traced_server.py"),
                "--spans", str(spans), *serve_args,
            ]
        log_dir.mkdir(parents=True, exist_ok=True)
        self.spans = spans
        self.out_path = log_dir / "server.out"
        self.err_path = log_dir / "server.err"
        self.started = time.perf_counter()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, env=server_env(), cwd=str(ROOT)
            )
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = 120.0) -> int:
        """Block until the banner names the bound port; return it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.out_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.err_path.read_text(errors='replace')[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kilobytes / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the server closes cleanly and the traced one writes spans)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def drive(
    port: int,
    op_at: Callable[[int], Op],
    connections: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    block: int = 1,
    trace_prefix: str = "pb",
) -> Tuple[List[Sample], float]:
    """Closed-loop run of ``op_at(0), op_at(1), ...`` over ``connections``.

    Runs ``count`` operations, or runs for ``seconds`` and then on to the
    end of the current block of ``block`` operations (and of the block
    holding op :data:`MIN_TIMED_OPS`), so a timed run always holds whole
    blocks: the same class proportions whatever the run length.  Each
    request carries the trace id ``<trace_prefix>-<index>``.  Returns the
    samples in op order and the wall time from the start to the end of the
    last operation.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds and count")
    lock = threading.Lock()
    state = {"next": 0, "stop": count}
    samples: List[Sample] = []
    deadline = float("inf")
    ready = threading.Barrier(connections + 1)
    go = threading.Event()

    def take() -> Optional[int]:
        """The next op index, or None once the run is over."""
        with lock:
            if state["stop"] is None and time.perf_counter() >= deadline:
                issued = max(state["next"], MIN_TIMED_OPS)
                state["stop"] = -(-issued // block) * block
            if state["stop"] is not None and state["next"] >= state["stop"]:
                return None
            index = state["next"]
            state["next"] += 1
            return index

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        conn.connect()
        ready.wait()
        go.wait()
        try:
            while True:
                index = take()
                if index is None:
                    return
                op = op_at(index)
                headers = {
                    "Content-Type": "application/json",
                    "X-Repro-Trace-Id": f"{trace_prefix}-{index}",
                }
                began = time.perf_counter()
                try:
                    conn.request(op.method, op.path, body=op.body or None, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    samples.append(
                        Sample(index, time.perf_counter() - began, response.status, data)
                    )
                except (OSError, http.client.HTTPException) as error:
                    samples.append(
                        Sample(index, time.perf_counter() - began, None, b"", repr(error))
                    )
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    ready.wait()
    start = time.perf_counter()
    if seconds is not None:
        deadline = start + seconds
    go.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return sorted(samples, key=lambda sample: sample.index), elapsed


def percentiles(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 by ``statistics.quantiles`` (inclusive method)."""
    if len(latencies_ms) < 2:
        value = latencies_ms[0] if latencies_ms else float("nan")
        return {"p50": value, "p90": value, "p99": value}
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    return {"p50": cuts[49], "p90": cuts[89], "p99": cuts[98]}


def speed_probe(iterations: int = 200_000, repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop (a host-speed marker)."""
    timings = []
    for _ in range(repeats):
        began = time.perf_counter()
        total = 0
        for value in range(iterations):
            total += value * value % 7
        timings.append((time.perf_counter() - began) * 1e3)
    return statistics.median(timings)


def host_record() -> Dict[str, object]:
    """nproc, Python version and platform of the host running the benchmark."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
