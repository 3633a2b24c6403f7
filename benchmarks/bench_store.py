"""Result-store benchmark — columnar query latency vs store size.

Measures the promise of the columnar store: **p50 query latency stays
flat as the store grows**.  A query touches one content-addressed result
(O(1) index lookup) and memory-maps its columns (O(points in that
result)), so 1 stored result or 1000 must cost the same.

Three measurements (1x / 100x / 1000x results; engine caches cleared per
query so every sample pays the true cold-read cost):

* **Ingest throughput** — ``put_payload`` results/second (bulk mode,
  one index flush at the end).
* **Store-level p50 latency** — ``ResultStore.query_page`` over rotating
  keys (sorted, top-k, one page), at each scale.
* **HTTP p50 latency** — the same query through a live ``/v1/query``
  (1x vs max scale) — the acceptance-criterion number.

Full-mode runs append a ``service_store`` record to ``BENCH_service.json``
(override with ``REPRO_BENCH_RECORD_SERVICE``) and assert the committed
bounds in ``benchmarks/baselines.json``: p50 ratio at 1000x within 2.0
(store-level and HTTP).  Set ``REPRO_BENCH_FAST=1`` for a smoke-sized
run (no gates).
"""

import asyncio
import copy
import json
import os
import platform
import statistics
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from conftest import emit, record_trend

from repro.core.design_space import SweepSpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.persistence import result_to_dict
from repro.reporting import format_table
from repro.service import QuerySpec, ResultServer, ResultStore, ServiceClient

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"
DEFAULT_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Store sizes (number of distinct stored results) per measurement round.
SCALES = (1, 10, 20) if FAST else (1, 100, 1000)
#: Cold queries timed per scale.
QUERIES = 30 if FAST else 150
#: Distinct result keys rotated through while timing (defeats engine LRU).
ROTATION = 48

if FAST:
    BOUNDS = None
else:
    BOUNDS = json.loads(BASELINES_PATH.read_text())["service_store"]["metrics"]


def build_payloads(count: int) -> list:
    """``count`` distinct result payloads from ONE evaluated campaign.

    The campaign is evaluated once (a ~60-point grid); clones with a
    distinct spec name hash to distinct fingerprints and content keys,
    so store scaling is measured without re-running the search.
    """
    spec = ExperimentSpec(
        networks=("vgg16-d",),
        devices=("xc7vx485t",),
        sweeps=(
            SweepSpec(
                m_values=(2, 3, 4, 5),
                multiplier_budgets=(128, 256, 384, 512, 640),
                frequencies_mhz=(150.0, 200.0, 250.0),
            ),
        ),
        name="bench-store",
    )
    base = result_to_dict(run_experiment(spec, cache=False))
    payloads = []
    for index in range(count):
        payload = copy.deepcopy(base)
        payload["spec"]["name"] = f"bench-store-{index:06d}"
        payloads.append(payload)
    return payloads


def query_spec(key: str) -> QuerySpec:
    return QuerySpec(key=key, metric="throughput_gops", top_k=8, limit=8)


def measure_store_p50(store: ResultStore, keys: list) -> float:
    """p50 cold-read ``query_page`` latency in microseconds."""
    rotation = keys[:ROTATION] or keys
    samples = []
    for index in range(QUERIES):
        spec = query_spec(rotation[index % len(rotation)])
        store._engines.clear()  # every sample pays the cold-read cost
        started = time.perf_counter()
        page = store.query_page(spec)
        samples.append(time.perf_counter() - started)
        assert len(page.rows) == 8
    return statistics.median(samples) * 1e6


def measure_http_p50(client: ServiceClient, keys: list) -> float:
    """p50 ``POST /v1/query`` latency in microseconds over rotating keys."""
    rotation = keys[:ROTATION] or keys
    samples = []
    for index in range(QUERIES):
        body = query_spec(rotation[index % len(rotation)]).to_dict()
        started = time.perf_counter()
        page = client.query_page(**body)
        samples.append(time.perf_counter() - started)
        assert page["count"] == 8
    return statistics.median(samples) * 1e6


def fill(store: ResultStore, payloads: list) -> tuple:
    """Bulk-ingest payloads; returns (keys, results/second)."""
    started = time.perf_counter()
    keys = [store.put_payload(payload, flush_index=False) for payload in payloads]
    store.flush_index()
    return keys, len(payloads) / (time.perf_counter() - started)


def test_store_query_scaling(benchmark):
    payloads = build_payloads(SCALES[-1])
    points = len(payloads[0]["points"])

    p50 = {}       # scale -> µs
    http_p50 = {}  # scale -> µs

    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        store = ResultStore(Path(tmp) / "columnar")
        keys = []
        filled = 0
        for scale in SCALES:
            new_keys, _ = fill(store, payloads[filled:scale])
            keys.extend(new_keys)
            filled = scale
            p50[scale] = measure_store_p50(store, keys)
        del store

        # Honest ingest number: a fresh store, one uninterrupted bulk load.
        _, ingest = fill(ResultStore(Path(tmp) / "ingest"), payloads)

        # HTTP p50: the acceptance criterion — /v1/query latency at 1x vs
        # max scale against a live server.
        http_store = ResultStore(Path(tmp) / "http")
        loop = asyncio.new_event_loop()
        server = ResultServer(http_store, port=0, quiet=True)
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        try:
            client = ServiceClient(port=server.port)
            keys, _ = fill(http_store, payloads[:1])
            http_p50[1] = measure_http_p50(client, keys)
            more, _ = fill(http_store, payloads[1:])
            http_p50[SCALES[-1]] = measure_http_p50(client, keys + more)
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)

        # pytest-benchmark hook: one representative cold columnar query.
        bench_store = ResultStore(Path(tmp) / "columnar")
        bench_keys = bench_store.keys()

        def one_cold_query():
            bench_store._engines.clear()
            return bench_store.query_page(query_spec(bench_keys[0]))

        benchmark(one_cold_query)

    max_scale = SCALES[-1]
    ratio_store = p50[max_scale] / p50[SCALES[0]]
    ratio_http = http_p50[max_scale] / http_p50[1]

    emit(
        f"Result-store query scaling — {points}-point results, "
        f"{QUERIES} cold queries per scale",
        format_table(
            [{"results stored": scale, "columnar p50 (µs)": p50[scale]} for scale in SCALES],
            precision=1,
        )
        + f"\ningest: {ingest:.0f} results/s\n"
        f"p50 growth 1x -> {max_scale}x: store {ratio_store:.2f}x, "
        f"HTTP /v1/query {ratio_http:.2f}x "
        f"(HTTP p50 {http_p50[max_scale] / 1e3:.2f} ms at {max_scale}x)",
    )

    if not FAST or os.environ.get("REPRO_BENCH_RECORD_SERVICE"):
        path = record_trend(
            {
                "benchmark": "service_store",
                "mode": "fast" if FAST else "full",
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "scales": list(SCALES),
                "points_per_result": points,
                "queries_per_cell": QUERIES,
                "columnar_p50_us": {str(s): round(p50[s], 1) for s in SCALES},
                "http_p50_us_1x": round(http_p50[1], 1),
                "http_p50_us_max": round(http_p50[max_scale], 1),
                "ingest_columnar_rps": round(ingest, 1),
                "query_p50_ratio_max_scale": round(ratio_store, 3),
                "http_p50_ratio_max_scale": round(ratio_http, 3),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            default_path=DEFAULT_RECORD_PATH,
            env_var="REPRO_BENCH_RECORD_SERVICE",
        )
        print(f"trend record appended to {path}")

    if BOUNDS is not None:
        assert ratio_store <= BOUNDS["query_p50_ratio_max_scale"]["max"], (
            f"store-level p50 grew {ratio_store:.2f}x from 1 to {max_scale} "
            f"results (bound {BOUNDS['query_p50_ratio_max_scale']['max']}x)"
        )
        assert ratio_http <= BOUNDS["http_p50_ratio_max_scale"]["max"], (
            f"/v1/query p50 grew {ratio_http:.2f}x from 1 to {max_scale} "
            f"results (bound {BOUNDS['http_p50_ratio_max_scale']['max']}x)"
        )
