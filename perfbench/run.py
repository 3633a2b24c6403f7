"""Service benchmark: three closed-loop workloads against ``python -m repro serve``.

Usage::

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 24 --trace 0

One run builds the workload's inputs from ``--seed``, seeds the store the
server starts from, and sets up a fresh server several times (``setup_s`` is
the median).  The middle server serves the timed phase: about ``--seconds``
of closed-loop traffic with tracing off.  Every timed answer is then checked
against the in-process reference, and the last line of standard output is
one JSON object with the end-to-end metrics.

``--trace 1`` runs the timed phase twice, untraced and then on a server
started through ``traced_server.py``, and reports the per-layer metrics of
the traced phase plus the tracing overhead.  ``NOTES.md`` explains the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Work directory inside the checkout; removed at the end of every run.
WORK_DIR = ROOT / ".perfbench"

#: ``/v1/stats`` samples printed before/after the timed phase.
STATS_FAMILIES = (
    "repro_batcher_requests_total",
    "repro_batcher_batches_total",
    "repro_eval_cache_hit_rate",
    "repro_store_results",
    "repro_store_segments",
    "repro_store_segment_bytes",
)


def scrape_stats(port: int) -> Dict[str, float]:
    """Selected ``/v1/stats`` samples as ``family{label=value}`` -> value."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/v1/stats", headers={"X-Repro-Trace-Id": "pbstats"})
        payload = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    flat = {}
    for family in STATS_FAMILIES:
        for sample in payload["metrics"].get(family, {}).get("samples", ()):
            labels = ",".join(f"{k}={v}" for k, v in sample["labels"].items())
            flat[f"{family}{{{labels}}}" if labels else family] = sample.get("value")
    return flat


class Phase:
    """One timed phase: set-ups, closed-loop traffic, verification.

    The timed traffic runs on the middle set-up, so the set-ups are spread
    over the whole phase and ``setup_s`` does not hang on a few seconds of
    host speed.  The warm-up runs over one connection: the set-up then does
    the same sequential work whatever the workload's concurrency.
    """

    def __init__(self, workload, template: Path, directory: Path, setups: int,
                 seconds: float, ops: Optional[int], traced: bool) -> None:
        from harness import ServerProcess, drive

        self.setup_times: List[float] = []
        spans_path = directory / "spans.json"
        for number in range(setups):
            store = directory / f"store-{number}"
            shutil.copytree(template, store)
            timed = number == setups // 2
            began = time.perf_counter()
            server = ServerProcess(
                store, directory / f"logs-{number}", spans_path if traced and timed else None
            )
            try:
                port = server.wait_listening()
                warmup = workload.warmup_ops()
                answers, _ = drive(port, warmup.__getitem__, 1,
                                   count=len(warmup), trace_prefix=f"pbw{number}")
                bad = [sample for sample in answers if not sample.ok]
                if bad:
                    raise RuntimeError(f"warm-up request failed: {bad[0].status} "
                                       f"{bad[0].error or bad[0].data[:300]!r}")
                self.setup_times.append(time.perf_counter() - began)
                if not timed:
                    continue
                self.store = store
                self.stats_before = scrape_stats(port)
                count = ops or workload.timed_count(seconds)
                self.samples, self.elapsed = drive(
                    port, workload.op_at, workload.connections,
                    seconds=None if count else seconds, count=count,
                    block=len(workload.BLOCK), trace_prefix="pb",
                )
                self.stats_after = scrape_stats(port)
                self.peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
            if not timed:
                shutil.rmtree(store)
        self.transport_failed = {sample.index for sample in self.samples if not sample.ok}
        self.mismatches, self.verified = workload.verify(self.store, self.samples)
        self.properties = workload.properties(self.samples, self.store, self.stats_after)
        self.spans = json.loads(spans_path.read_text()) if traced else None

    @property
    def failed(self) -> int:
        return len(self.transport_failed | set(self.mismatches))

    def end_to_end(self) -> Dict[str, float]:
        from harness import percentiles

        latencies = [sample.latency * 1e3 for sample in self.samples]
        cuts = percentiles(latencies)
        return {
            "ops_per_s": len(self.samples) / self.elapsed,
            "p50_ms": cuts["p50"],
            "p90_ms": cuts["p90"],
            "p99_ms": cuts["p99"],
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _describe(phase: Phase, workload, label: str) -> None:
    """Human-readable lines for one phase (stdout, before the JSON line)."""
    e2e = phase.end_to_end()
    ops = len(phase.samples)
    print(f"[{label}] ops attempted={ops} succeeded={ops - phase.failed} "
          f"failed={phase.failed} (transport/status {len(phase.transport_failed)}, "
          f"verification {len(phase.mismatches)}) verified={phase.verified} "
          f"answers against the in-process reference")
    print(f"[{label}] ops_per_s={e2e['ops_per_s']:.2f} p50_ms={e2e['p50_ms']:.3f} "
          f"p90_ms={e2e['p90_ms']:.3f} p99_ms={e2e['p99_ms']:.3f} "
          f"(p99 from {ops} samples, {ops // 100} beyond it) "
          f"setup_s={e2e['setup_s']:.3f} (runs {[round(t, 3) for t in phase.setup_times]}) "
          f"peak_rss_mb={e2e['peak_rss_mb']:.1f}")
    kinds: Dict[str, List[float]] = {}
    for sample in phase.samples:
        kinds.setdefault(workload.kind_at(sample.index), []).append(sample.latency * 1e3)
    for kind, values in sorted(kinds.items()):
        print(f"[{label}]   class {kind}: n={len(values)} "
              f"median_ms={statistics.median(values):.3f}")
    print(f"[{label}] workload properties: {json.dumps(phase.properties)}")
    print(f"[{label}] /v1/stats before: {json.dumps(phase.stats_before)}")
    print(f"[{label}] /v1/stats after:  {json.dumps(phase.stats_after)}")
    for sample in [s for s in phase.samples if s.index in phase.transport_failed][:3]:
        print(f"[{label}] op {sample.index} failed: status={sample.status} "
              f"{sample.error or sample.data[:300]!r}")
    for index, reason in sorted(phase.mismatches.items())[:5]:
        print(f"[{label}] verification failed for op {index}: {reason}")


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from harness import host_record, speed_probe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    host = host_record()
    probe_before = speed_probe()
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        template = work / "template"
        template.mkdir(parents=True)
        began = time.perf_counter()
        workload.seed_store(template)
        seed_s = time.perf_counter() - began

        def phase(name: str, setups: int, traced: bool) -> Phase:
            result = Phase(workload, template, work / name, setups, args.seconds,
                           args.ops, traced)
            _describe(result, workload, name)
            return result

        print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
              f"connections={workload.connections} trace={args.trace} "
              f"store_seed_s={seed_s:.3f}")
        if not args.trace:
            untraced = phase("untraced", workload.SETUPS, traced=False)
            phases = [untraced]
            e2e = untraced.end_to_end()
            metrics = {
                "ops_per_s": (e2e["ops_per_s"], "ops/s"),
                "p50_ms": (e2e["p50_ms"], "ms"),
                "p90_ms": (e2e["p90_ms"], "ms"),
                "setup_s": (e2e["setup_s"], "s"),
                "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            }
        else:
            from tracing import layer_metrics

            untraced = phase("untraced", 1, traced=False)
            traced = phase("traced", 1, traced=True)
            phases = [untraced, traced]
            plain, spanned = untraced.end_to_end(), traced.end_to_end()
            for key in ("ops_per_s", "p50_ms", "p90_ms"):
                print(f"[overhead] {key}: untraced={plain[key]:.3f} traced={spanned[key]:.3f} "
                      f"difference={spanned[key] - plain[key]:+.3f} "
                      f"({(spanned[key] / plain[key] - 1) * 100:+.1f}%)")
            layers = layer_metrics(
                traced.spans,
                {f"pb-{sample.index}": sample.latency for sample in traced.samples},
                [len(sample.data) for sample in traced.samples],
            )
            index_path = traced.store / "index.json"
            layers["service.store.index_kb"] = (
                index_path.stat().st_size / 1024.0 if index_path.exists() else 0.0, "KB"
            )
            layers["trace.ops_overhead_pct"] = (
                (1 - spanned["ops_per_s"] / plain["ops_per_s"]) * 100, "%"
            )
            layers["trace.p50_overhead_pct"] = (
                (spanned["p50_ms"] / plain["p50_ms"] - 1) * 100, "%"
            )
            metrics = layers
            for name, (value, unit) in metrics.items():
                print(f"[layers] {name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = speed_probe()
    print(f"host: {json.dumps(host)} speed_probe_ms before={probe_before:.2f} "
          f"after={probe_after:.2f}")
    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    if attempted < 100 * len(phases) and not args.ops:
        print(f"warning: only {attempted} operations ran; percentiles need at least 100",
              file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("evaluate", "query", "search"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many timed operations instead of --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
