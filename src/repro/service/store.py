"""Append-only, content-addressed store of evaluated campaign results.

The store turns "run a campaign" into "compute once, serve forever": every
:class:`~repro.dse.CampaignResult` is serialized through the versioned
:mod:`repro.experiments.persistence` schema and appended to a *segment*
file, keyed by the content hash of its canonical JSON form and indexed by
the embedded spec's :meth:`~repro.experiments.ExperimentSpec.fingerprint`
plus its network and device names.  Consumers (the HTTP server, the CLI,
notebooks) answer "what-if" queries against stored results without owning
the evaluation engine.

Layout on disk::

    <root>/
      segments/segment-000001.col     # binary columnar blocks
      segments/.trash/                # compacted-away segments pending unlink

Each stored result is one binary block of NumPy-structured design-point
columns (:mod:`.columnar`), memory-mapped on read so ``query``/``pareto``/
``best`` run as zero-copy vectorized column scans and only the returned
page of rows is ever materialized.

Stores written before the columnar format hold one-envelope-per-line
``segment-*.jsonl`` text segments.  Opening such a store imports them once
through :meth:`ResultStore.compact`: payloads stay byte-identical, index
metadata (key, sequence, created) is kept, torn lines are dropped, and no
``.jsonl`` segment remains afterwards.  A payload whose points fit no
column layout imports as an *opaque* block (its JSON bytes): it reads
back by key, and queries on it are a ``ValueError`` naming the key.
:meth:`ResultStore.compact` re-encodes an opaque block into columns once
its payload fits a column layout (as the pre-accuracy one now does).

Properties:

* **Content-addressed** — ``put`` of a content-identical result (same
  spec, points and evaluation count; run provenance such as timings and
  cache statistics excluded from the key) is a no-op returning the
  existing key, so re-submitting a campaign never duplicates storage.
* **Append-only** — segments are only ever appended to (and atomically
  rewritten by :meth:`ResultStore.compact`); a crash mid-append loses at
  most the trailing partial block, which the loader skips.
* **The segments are the index** — every block header carries its index
  metadata, and opening the store rebuilds the in-memory index from one
  CRC-verified walk of the blocks.  A put appends its block and writes
  nothing else, so it costs the same whatever the store's size.  A
  segment is readable up to its first bad block, and appends never land
  behind one.
* **Durability** — a put is acknowledged once its block is appended and
  ``flush()``-ed to the operating system.  The store never calls
  ``fsync()``: a process crash loses nothing acknowledged, power loss
  can.
* **Reader-safe compaction** — compaction never truncates a segment in
  place: rewritten segments are promoted with atomic renames and old ones
  are moved aside into ``segments/.trash`` before unlinking, so a reader
  holding a memory-mapped block keeps a consistent view for as long as it
  holds the map.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..dse.campaign import CampaignResult
from ..experiments.persistence import (
    RESULT_FIELDS,
    RESULT_SCHEMA,
    result_from_dict,
    result_to_dict,
)
from ..experiments.spec import ExperimentSpec, canonical_json_hash
from . import columnar as _columnar
from .query import ColumnarEngine, best_row, pareto_rows, query_rows
from .queryspec import (
    BestResult,
    ParetoPage,
    QueryPage,
    QuerySpec,
    decode_cursor,
    encode_cursor,
)

__all__ = ["StoreRecord", "ResultStore", "result_key"]

#: Versioned schema tag of legacy JSONL envelopes.
ENVELOPE_SCHEMA = "repro.result-store/1"

#: Index files older versions kept beside the segments; opening ignores
#: them and :meth:`ResultStore.compact` deletes them.
LEGACY_INDEX_FILES = ("index.json", "index.json.tmp")

#: How many per-result query engines (memory-mapped columnar blocks, or
#: in-memory re-encodings of legacy opaque blocks) the store keeps warm.
ENGINE_CACHE_SIZE = 16


#: Provenance-only payload fields excluded from the content key: they vary
#: between two runs of the same spec (wall clock, cache temperature) while
#: the *content* — spec, points, evaluation count — is deterministic, and
#: re-running a campaign must dedup to the stored result.
VOLATILE_FIELDS = ("elapsed_seconds", "cache_stats")


def result_key(payload: Dict[str, Any]) -> str:
    """Content hash of a serialized campaign result (the storage key).

    Hashes the canonical JSON form (same policy as
    :func:`repro.experiments.spec.canonical_json_hash` spec fingerprints)
    with run-provenance fields (:data:`VOLATILE_FIELDS`) stripped and the
    embedded spec's execution-tuning fields removed (including the legacy
    ``executor`` key older versions wrote) — two evaluations of the same
    search share a key no matter how long they took, how warm the cache
    was or which version's execution settings the spec carried.
    """
    content = {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}
    spec = content.get("spec")
    if isinstance(spec, dict):
        content["spec"] = {
            k: v
            for k, v in spec.items()
            if k not in ExperimentSpec.EXECUTION_ONLY_FIELDS
        }
    return canonical_json_hash(content)


@dataclass(frozen=True)
class StoreRecord:
    """Index metadata of one stored result (no point payload).

    ``segment``/``offset`` locate the block on disk, so a read is
    one seek instead of a segment scan; ``offset`` is ``-1`` for records
    whose position is unknown (falls back to scanning).
    """

    key: str
    fingerprint: str
    name: str
    networks: tuple
    devices: tuple
    points: int
    evaluations: int
    sequence: int
    created: float
    segment: str
    offset: int = -1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready index row; inverse of :meth:`from_dict`."""
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "name": self.name,
            "networks": list(self.networks),
            "devices": list(self.devices),
            "points": self.points,
            "evaluations": self.evaluations,
            "sequence": self.sequence,
            "created": self.created,
            "segment": self.segment,
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StoreRecord":
        """Rebuild a record from :meth:`to_dict` output (offset optional)."""
        return cls(
            key=data["key"],
            fingerprint=data["fingerprint"],
            name=data["name"],
            networks=tuple(data["networks"]),
            devices=tuple(data["devices"]),
            points=data["points"],
            evaluations=data["evaluations"],
            sequence=data["sequence"],
            created=data["created"],
            segment=data["segment"],
            offset=data.get("offset", -1),
        )


class ResultStore:
    """Persistent campaign-result store rooted at a directory.

    Thread-safe: every public method takes the store lock, so the HTTP
    server's event loop and its evaluation worker threads can share one
    instance.  Results themselves stay on disk — only index metadata is
    held in memory, rebuilt from the block headers on every open — so
    the store's footprint is independent of how many points the stored
    campaigns contain.

    Opening a store that still holds legacy ``segment-*.jsonl`` segments
    imports them into columnar blocks (one :meth:`compact`).
    """

    def __init__(self, root: Union[str, Path], segment_max_records: int = 64) -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self.root = Path(root)
        self.segment_max_records = segment_max_records
        self._lock = threading.RLock()
        self._records: Dict[str, StoreRecord] = {}
        self._next_sequence = 1
        self._segments_dir = self.root / "segments"
        self._trash_dir = self._segments_dir / ".trash"
        self._segments_dir.mkdir(parents=True, exist_ok=True)
        # Per-result query engines, LRU by content key.  An engine owns a
        # memory-mapped columnar block (or the in-memory re-encoding of a
        # legacy opaque block); entries are validated against the index
        # row and dropped wholesale on compact/rebuild.
        self._engines: "OrderedDict[str, Tuple[str, int, Any]]" = OrderedDict()
        # Append cursor: the active segment, its record count and whether
        # its tail is clean — set by the walk that builds the index (and by
        # compact), then maintained in memory so a put() never has to
        # re-read the segment it is appending to.
        self._active_segment: Optional[Path] = None
        self._active_count = 0
        self._active_tail_clean = True
        self._drain_trash()
        if any(self._segments_dir.glob("segment-*.jsonl")):
            self.compact()  # one-way import of legacy JSONL segments
        else:
            self.rebuild_index()

    # ------------------------------------------------------------------ #
    # Loading / index maintenance
    # ------------------------------------------------------------------ #
    def _segment_paths(self) -> List[Path]:
        paths = list(self._segments_dir.glob("segment-*.jsonl"))
        paths.extend(self._segments_dir.glob("segment-*.col"))
        return sorted(paths, key=lambda p: (int(p.stem.split("-")[1]), p.name))

    def _drain_trash(self) -> None:
        """Best-effort unlink of segments compaction moved aside.

        Compaction defers the unlink of replaced segments (readers may
        hold them memory-mapped); whatever could not be removed then is
        retried here on every open and after every compact.
        """
        if not self._trash_dir.is_dir():
            return
        for path in list(self._trash_dir.iterdir()):
            try:
                path.unlink()
            except OSError:  # still mapped by a reader (e.g. Windows)
                pass

    @staticmethod
    def _scan_segment(path: Path):
        """Yield ``(offset, envelope, end)`` for every parseable line of a JSONL segment.

        The reader of the legacy-segment import.  Torn trailing lines
        (crash mid-append) and foreign content are skipped.
        """
        data = path.read_bytes()
        offset = 0
        for raw in data.splitlines(keepends=True):
            line = raw.strip()
            if line:
                try:
                    envelope = json.loads(line)
                except json.JSONDecodeError:
                    envelope = None  # torn write at the tail of a segment
                if isinstance(envelope, dict) and envelope.get("schema") == ENVELOPE_SCHEMA:
                    yield offset, envelope, offset + len(raw)
            offset += len(raw)

    def _scan_metas(self, path: Path):
        """Yield ``(offset, meta, end)`` for every complete record of a segment.

        ``end`` is the byte offset just past the record; columnar blocks
        come from the CRC-verified :func:`~.columnar.walk_blocks`.
        """
        if path.suffix == ".col":
            for offset, header, end in _columnar.walk_blocks(path):
                meta = header.get("meta")
                if isinstance(meta, dict):
                    yield offset, meta, end
        else:
            for offset, envelope, end in self._scan_segment(path):
                yield offset, envelope["meta"], end

    def rebuild_index(self) -> int:
        """Rebuild the in-memory index from one verified walk of every segment.

        Returns the number of live records.  Later blocks win on key
        collisions (compaction preserves this by keeping the newest).
        Each segment is read up to its first torn or corrupt block.  The
        same walk sets the append cursor: when the last segment's verified
        end is short of its size, the next put rolls over to a fresh
        segment, so no append ever lands behind a bad block.  Writes
        nothing.
        """
        with self._lock:
            self._records = {}
            self._engines.clear()
            max_sequence = 0
            last = None
            count = end = 0
            for last in self._segment_paths():
                count = end = 0
                for offset, meta, end in self._scan_metas(last):
                    count += 1
                    record = StoreRecord.from_dict(
                        {**meta, "segment": last.name, "offset": offset}
                    )
                    self._records[record.key] = record
                    max_sequence = max(max_sequence, record.sequence)
            self._next_sequence = max_sequence + 1
            self._active_segment = last
            self._active_count = count
            self._active_tail_clean = last is None or end == last.stat().st_size
            return len(self._records)

    def flush_index(self) -> None:
        """No-op: a put is complete once its block is appended.

        There is no index file to write.  The method is kept because the
        service benchmark's traced run (``perfbench/tracing.py``) wraps it
        by name.
        """

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def _append_segment(self) -> Path:
        """The segment new records append to.

        Rolls over to a fresh segment when the active one is full or has a
        torn tail (a crash mid-append left trailing garbage): appending
        there would hide the new block behind the torn bytes from the next
        rescan, so the torn segment is left as-is for compact() to clean up.
        """
        if (
            self._active_segment is not None
            and self._active_count < self.segment_max_records
            and self._active_tail_clean
        ):
            return self._active_segment
        if self._active_segment is not None:
            number = int(self._active_segment.stem.split("-")[1]) + 1
        else:
            number = 1
        self._active_segment = self._segments_dir / f"segment-{number:06d}.col"
        self._active_count = 0
        self._active_tail_clean = True
        return self._active_segment

    def put(self, result: CampaignResult) -> str:
        """Persist a result; returns its content key.

        Re-putting a content-identical result — same spec, same points,
        same evaluation count; run provenance like timings excluded — is
        a no-op that returns the existing key (content addressing), so
        re-submitting a campaign never duplicates storage.
        """
        return self.put_payload(result_to_dict(result))

    def put_payload(self, payload: Dict[str, Any]) -> str:
        """Persist an already-serialized result payload; returns its key.

        ``payload`` is the versioned :func:`~repro.experiments.persistence.result_to_dict`
        form (``put`` delegates here after serializing).  The job scheduler
        ingests worker-produced payloads through this entry point so the
        parent process never re-materializes design points just to store
        them.  Same content addressing and dedup rules as :meth:`put`.

        The put appends one block to the active segment, ``flush()``-es it
        and writes nothing else: the block header carries the index
        metadata the next open reads back.  Raises ``ValueError``,
        appending nothing, for a payload that :meth:`get` could not load
        back: one with a top-level field
        :func:`~repro.experiments.persistence.result_from_dict` does not
        read, or (a :class:`~repro.service.columnar.ColumnarEncodeError`)
        whose points fit no stored column layout.
        """
        if payload.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"result payload has schema {payload.get('schema')!r}; "
                f"expected {RESULT_SCHEMA!r}"
            )
        unknown = set(payload) - RESULT_FIELDS
        if unknown:
            raise ValueError(f"unknown campaign-result fields {sorted(unknown)}")
        spec_data = payload.get("spec")
        if not isinstance(spec_data, dict):
            raise ValueError("result payload has no embedded spec mapping")
        fingerprint = canonical_json_hash(
            {
                k: v
                for k, v in spec_data.items()
                if k not in ExperimentSpec.EXECUTION_ONLY_FIELDS
            }
        )
        key = result_key(payload)
        with self._lock:
            existing = self._records.get(key)
            if existing is not None:
                return key
            record = StoreRecord(
                key=key,
                fingerprint=fingerprint,
                name=spec_data.get("name", "experiment"),
                networks=tuple(spec_data.get("networks", ())),
                devices=tuple(spec_data.get("devices", ())),
                points=len(payload.get("points", ())),
                evaluations=payload.get("evaluations", 0),
                sequence=self._next_sequence,
                created=time.time(),
                segment="",
            )
            # segment/offset are positional, known only to the in-memory index.
            meta = {
                k: v
                for k, v in record.to_dict().items()
                if k not in ("segment", "offset")
            }
            # Encode before picking the segment: a refused payload must
            # leave neither bytes nor a moved append cursor behind.
            blob = _columnar.encode_block(meta, payload)
            segment = self._append_segment()
            # Binary mode: tell() must be a true byte offset for get()'s seek.
            with segment.open("ab") as handle:
                offset = handle.tell()
                handle.write(blob)
                handle.flush()
            self._active_count += 1
            self._records[key] = replace(record, segment=segment.name, offset=offset)
            self._next_sequence += 1
            return key

    def _put_appended(self, payload: Dict[str, Any]) -> Tuple[str, bool]:
        """:meth:`put_payload`, also telling whether this call appended.

        ``False`` means the key was already stored, so the stored block's
        run provenance (``elapsed_seconds``, ``cache_stats``) is another
        run's, not ``payload``'s.  Holding the lock across the put keeps a
        concurrent put of the same key from landing in between; the put
        goes through :meth:`put_payload` by name, so whatever wraps that
        method (the service benchmark's tracing) sees it.
        """
        with self._lock:
            before = len(self._records)
            key = self.put_payload(payload)
            return key, len(self._records) > before

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def keys(self) -> List[str]:
        """Every stored content key, oldest sequence first."""
        with self._lock:
            return sorted(self._records, key=lambda key: self._records[key].sequence)

    def stats(self) -> Dict[str, Any]:
        """Segment-level store statistics for metrics and ``/v1/stats``.

        ``segment_bytes`` is on-disk size summed over live segments (the
        trash directory is excluded — those bytes are already logically
        gone).  Cheap enough to call at scrape time: one ``stat`` per
        segment, no file contents touched.
        """
        with self._lock:
            paths = self._segment_paths()
            total_bytes = 0
            for path in paths:
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
            return {
                "results": len(self._records),
                "segments": len(paths),
                "segment_bytes": total_bytes,
            }

    def record(self, key: str) -> StoreRecord:
        """Index metadata for ``key``; raises ``KeyError`` when absent."""
        with self._lock:
            return self._records[key]

    def get(self, key: str) -> CampaignResult:
        """Load the full result stored under ``key``.

        Raises ``KeyError`` for unknown keys.  The deserialized result
        goes through the same versioned loader as ``CampaignResult.load``,
        so schema guarantees apply to store reads too.
        """
        return result_from_dict(self.get_payload(key))

    def _block(self, key: str):
        """The columnar block stored under ``key`` (offset first, scan fallback).

        Raises ``KeyError`` for unknown keys and for blocks missing from
        their indexed segment.
        """
        record = self._records[key]
        path = self._segments_dir / record.segment
        if record.offset >= 0:
            try:
                block = _columnar.ColumnarBlock.read_at(path, record.offset)
            except (ValueError, OSError):
                block = None
            if block is not None and block.key == key:
                return block
        for found_offset, header in _columnar.iter_blocks(path):
            if header.get("meta", {}).get("key") == key:
                return _columnar.ColumnarBlock.read_at(path, found_offset)
        raise KeyError(f"stored result {key!r} vanished from segment {record.segment!r}")

    def get_payload(self, key: str) -> Dict[str, Any]:
        """The raw serialized payload stored under ``key`` (no rebuild).

        What :meth:`get` parses into a :class:`CampaignResult`; the job
        scheduler reassembles campaigns from these directly.  Reads are
        one seek via the record's byte offset (falling back to a segment
        scan when the offset is unknown or stale).
        """
        with self._lock:
            return self._block(key).payload()

    # ------------------------------------------------------------------ #
    # Spec-driven reads (the unified query surface)
    # ------------------------------------------------------------------ #
    def _engine_for(self, key: str):
        """The :class:`ColumnarEngine` of one stored result (LRU-cached).

        A legacy opaque block is re-encoded in memory first; raises
        ``ValueError`` naming ``key`` when its payload fits no column
        layout either.
        """
        record = self._records[key]
        cached = self._engines.get(key)
        if cached is not None:
            segment, offset, engine = cached
            if segment == record.segment and offset == record.offset:
                self._engines.move_to_end(key)
                return engine
            del self._engines[key]
        block = self._block(key)
        if block.opaque:
            try:
                blob = _columnar.encode_block(block.meta, block.payload())
            except _columnar.ColumnarEncodeError as error:
                raise ValueError(
                    f"stored result {key!r} has no column layout to query: {error}"
                ) from None
            block = _columnar.ColumnarBlock.from_bytes(blob)
        engine = ColumnarEngine(block)
        self._engines[key] = (record.segment, record.offset, engine)
        while len(self._engines) > ENGINE_CACHE_SIZE:
            self._engines.popitem(last=False)
        return engine

    def _resolve(self, spec: QuerySpec, mode: str) -> Tuple[str, int, str]:
        """Pick the stored result a spec addresses: ``(key, start row, binding)``.

        A ``cursor`` re-addresses the result its first page came from (and
        must have been minted by a query of the same shape); an explicit
        ``key`` wins next; otherwise the newest record matching the
        ``fingerprint``/``network``/``device``/``name`` filters is used.
        Raises ``KeyError`` with the stable not-found messages the HTTP
        layer forwards verbatim.
        """
        binding = spec.binding_hash(mode)
        if spec.cursor is not None:
            token = decode_cursor(spec.cursor)
            if token["q"] != binding:
                raise ValueError(
                    "invalid cursor: cursor was issued for a different query"
                )
            key = token["k"]
            if spec.key is not None and spec.key != key:
                raise ValueError(
                    "invalid cursor: cursor belongs to a different result"
                )
            if key not in self._records:
                raise KeyError(f"no stored result with key {key!r}")
            return key, token["o"], binding
        if spec.key is not None:
            if spec.key not in self._records:
                raise KeyError(f"no stored result with key {spec.key!r}")
            return spec.key, 0, binding
        filters = {
            "fingerprint": spec.fingerprint,
            "network": spec.network,
            "device": spec.device,
            "name": spec.name,
        }
        newest = self._newest(**filters)
        if newest is None:
            raise KeyError(
                "no stored result matches "
                + (
                    json.dumps({k: v for k, v in filters.items() if v})
                    if any(filters.values())
                    else "an empty store"
                )
            )
        return newest.key, 0, binding

    def query_page(self, spec: QuerySpec) -> QueryPage:
        """One page of filtered/sorted/top-k rows from one stored result.

        Row semantics: filter by ``network``/``device``/``where``, stable
        sort by ``metric``/``maximize``, ``top_k`` cap, ``select``
        projection.  ``limit`` and ``cursor`` paginate the ordered row
        set and ``next_cursor`` continues it, stable across concurrent
        appends and compactions.
        """
        with self._lock:
            key, start, binding = self._resolve(spec, "query")
            engine = self._engine_for(key)
            segment = self._records[key].segment
        rows, total, next_start = query_rows(engine, spec, start, spec.limit)
        next_cursor = (
            encode_cursor(key, segment, next_start, binding)
            if next_start is not None
            else None
        )
        return QueryPage(key=key, rows=rows, total=total, next_cursor=next_cursor)

    def query(
        self,
        spec: Union[QuerySpec, str, None] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
        name: Optional[str] = None,
        *,
        fingerprint: Optional[str] = None,
    ):
        """Spec-driven page query, or the legacy index-record filter.

        With a :class:`QuerySpec` this is :meth:`query_page`.  The legacy
        keyword form — ``query(fingerprint=..., network=..., device=...,
        name=...)`` returning matching :class:`StoreRecord` rows oldest
        first — keeps working unchanged (a positional first string is the
        fingerprint, as before).
        """
        if isinstance(spec, QuerySpec):
            return self.query_page(spec)
        if fingerprint is None:
            fingerprint = spec
        matches = self._matching(
            fingerprint=fingerprint, network=network, device=device, name=name
        )
        return sorted(matches, key=lambda record: record.sequence)

    def _matching(
        self,
        fingerprint: Optional[str] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[StoreRecord]:
        """Index records matching every given filter, in index order."""
        with self._lock:
            return [
                record
                for record in self._records.values()
                if (fingerprint is None or record.fingerprint == fingerprint)
                and (network is None or network in record.networks)
                and (device is None or device in record.devices)
                and (name is None or record.name == name)
            ]

    def _newest(self, **filters: Optional[str]) -> Optional[StoreRecord]:
        """The highest-sequence record matching :meth:`_matching`'s filters."""
        return max(
            self._matching(**filters), key=lambda record: record.sequence, default=None
        )

    def _default_objectives(self, key: str):
        """The stored spec's campaign objectives (no point materialization)."""
        with self._lock:
            spec_data = self._block(key).result_extra.get("spec")
        return ExperimentSpec.from_dict(spec_data).to_campaign().objectives

    def pareto(self, spec: QuerySpec) -> ParetoPage:
        """Per-network Pareto fronts of one stored result, paginated.

        ``objectives`` defaults to the stored spec's campaign objectives;
        fronts use the legacy domination semantics over the stored row
        order.  ``limit``/``cursor`` paginate the fronts flattened in
        network first-appearance order.
        """
        with self._lock:
            key, start, binding = self._resolve(spec, "pareto")
            engine = self._engine_for(key)
            segment = self._records[key].segment
        default_objectives = (
            self._default_objectives(key) if spec.objectives is None else ()
        )
        objectives, fronts, total, next_start = pareto_rows(
            engine, spec, default_objectives, start, spec.limit
        )
        next_cursor = (
            encode_cursor(key, segment, next_start, binding)
            if next_start is not None
            else None
        )
        return ParetoPage(
            key=key,
            objectives=objectives,
            fronts=fronts,
            total=total,
            next_cursor=next_cursor,
        )

    def best(self, spec: QuerySpec) -> BestResult:
        """The single best row of one stored result by ``spec.metric``."""
        with self._lock:
            key, _start, _binding = self._resolve(spec, "best")
            engine = self._engine_for(key)
        row, value = best_row(engine, spec)
        assert spec.metric is not None  # best_row raised otherwise
        return BestResult(key=key, metric=spec.metric, value=value, row=row)

    def find_many(self, fingerprints) -> Dict[str, StoreRecord]:
        """Newest record per matching fingerprint, in one index pass.

        The resumption primitive: shard and campaign specs have
        deterministic fingerprints, so "has this search already been
        evaluated?" is an index lookup, no payload reads.  A job resolves
        its whole spec and every shard of its plan in a single scan under
        one lock acquisition.  Fingerprints with no stored record are
        absent from the returned mapping.
        """
        wanted = set(fingerprints)
        found: Dict[str, StoreRecord] = {}
        with self._lock:
            for record in self._records.values():
                if record.fingerprint not in wanted:
                    continue
                best = found.get(record.fingerprint)
                if best is None or record.sequence > best.sequence:
                    found[record.fingerprint] = record
        return found

    def latest(
        self,
        fingerprint: Optional[str] = None,
        network: Optional[str] = None,
        device: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Optional[CampaignResult]:
        """The most recently stored result matching the filters, if any."""
        newest = self._newest(
            fingerprint=fingerprint, network=network, device=device, name=name
        )
        return None if newest is None else self.get(newest.key)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _gather_sources(self) -> Tuple[List[Tuple[dict, Any]], int]:
        """Collect the newest source of every live record, plus drop count.

        Each source is ``(meta, locator)``: a ``(path, offset)`` locator
        for a columnar block, or the decoded payload of a legacy JSONL
        envelope.  Sources are returned oldest sequence first.
        """
        by_key: Dict[str, Tuple[dict, Any]] = {}
        dropped = 0
        for path in self._segment_paths():
            if path.suffix == ".col":
                count, end = _columnar.segment_extent(path)
                if end < path.stat().st_size:
                    dropped += 1  # torn tail, or a corrupt block and what follows it
                for offset, meta, _end in self._scan_metas(path):
                    if meta.get("key") in by_key:
                        dropped += 1
                    by_key[meta["key"]] = (meta, (path, offset))
            else:
                raw_lines = [
                    line for line in path.read_text().splitlines() if line.strip()
                ]
                parsed = list(self._scan_segment(path))
                dropped += len(raw_lines) - len(parsed)  # torn/foreign lines
                for _offset, envelope, _end in parsed:
                    key = envelope.get("meta", {}).get("key")
                    if key in by_key:
                        dropped += 1
                    by_key[key] = (envelope["meta"], envelope["result"])
        ordered = sorted(by_key.values(), key=lambda source: source[0]["sequence"])
        return ordered, dropped

    @staticmethod
    def _source_blob(meta: dict, locator) -> bytes:
        """The columnar block bytes of one gathered source.

        A columnar block is copied verbatim (blocks are position-independent).
        A legacy JSONL payload, or the payload of a legacy opaque block, is
        encoded into columns; what the encoder refuses stays opaque,
        readable by key.
        """
        if isinstance(locator, tuple):
            blob = _columnar.read_block_bytes(*locator)
            block = _columnar.ColumnarBlock.from_bytes(blob)
            if not block.opaque:
                return blob
            payload = block.payload()
        else:  # legacy JSONL import
            payload, blob = locator, None
        try:
            return _columnar.encode_block(meta, payload)
        except _columnar.ColumnarEncodeError:
            return blob if blob is not None else _columnar.encode_opaque_block(meta, payload)

    def compact(self) -> Dict[str, int]:
        """Rewrite the segments keeping only live records.

        Re-scans the segments first (liveness is decided from the blocks
        on disk), keeps the newest record per key, drops superseded
        duplicates, torn tails and corrupt blocks, renumbers segments from
        1 as columnar blocks — legacy JSONL envelopes, and opaque blocks
        whose payload fits a column layout, are encoded on the way,
        byte-identical on read — and deletes the index files older
        versions left (:data:`LEGACY_INDEX_FILES`).  Returns
        ``{"kept": n, "dropped": m}``.

        Safe on a live store, including while readers hold memory-mapped
        blocks: new segments are written to the side and promoted with
        atomic renames, and old segments are *moved aside* into
        ``segments/.trash`` (then unlinked best-effort) instead of being
        truncated in place — an open map keeps reading the old inode's
        consistent bytes.  A crash at any point leaves every live record
        on disk under a ``segment-*`` name, worst case with superseded
        duplicates, which the next rebuild/compact resolves.
        """
        with self._lock:
            self.rebuild_index()
            ordered, dropped = self._gather_sources()

            old_paths = self._segment_paths()
            new_records: Dict[str, StoreRecord] = {}
            written: List[Path] = []
            for start in range(0, len(ordered), self.segment_max_records):
                number = len(written) + 1
                path = self._segments_dir / f"segment-{number:06d}.col.compact"
                with path.open("wb") as handle:
                    for meta, locator in ordered[start : start + self.segment_max_records]:
                        offset = handle.tell()
                        handle.write(self._source_blob(meta, locator))
                        record = StoreRecord.from_dict(
                            {
                                **meta,
                                "segment": path.name.replace(".compact", ""),
                                "offset": offset,
                            }
                        )
                        new_records[record.key] = record
                written.append(path)
            # Promote the rewritten segments FIRST (os.replace atomically
            # overwrites same-named old segments), then move the remaining
            # old segments into .trash and only unlink them from there —
            # readers holding memory maps keep the old inodes alive.
            final_names = set()
            for path in written:
                final = path.with_name(path.name.replace(".compact", ""))
                os.replace(path, final)
                final_names.add(final.name)
            self._trash_dir.mkdir(exist_ok=True)
            for path in old_paths:
                if path.name not in final_names:
                    os.replace(path, self._trash_dir / path.name)
            self._drain_trash()
            for name in LEGACY_INDEX_FILES:
                (self.root / name).unlink(missing_ok=True)
            self._records = new_records
            self._engines.clear()
            # The last rewritten segment is whole and takes the next put.
            self._active_segment = final if written else None
            self._active_count = len(ordered) - self.segment_max_records * max(len(written) - 1, 0)
            self._active_tail_clean = True
            return {"kept": len(new_records), "dropped": dropped}

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r}, results={len(self)})"
