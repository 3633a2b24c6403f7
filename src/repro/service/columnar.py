"""Binary columnar segment blocks for the result store.

A columnar segment (``segment-%06d.col``) is an append-only sequence of
self-contained **blocks**, one per stored campaign result::

    +----------------------------+
    | preamble  <4sIQ  (16 B)    |  magic "RCB1", header len, body len
    | header    JSON             |  schema, index meta, spec, column table
    | body      packed columns   |  one NumPy structured-array row per point
    |           + string pool    |  JSON list the str columns index into
    | footer    <I4s   (8 B)     |  CRC-32 of header+body, magic "1BCR"
    +----------------------------+

Each design point becomes one row of a packed structured array with one
field per scalar column of the canonical ``point_to_dict`` layout —
int64 / float64 / uint8(bool) values, int32 indices into the block's
string pool for string columns, and the ragged ``group_latency_ms``
mapping JSON-encoded into the pool.  Readers ``np.memmap`` the body and
view it as the structured array, so a query touches only the bytes of
the columns it scans — no per-row dict materialization, no JSON parse
of the points.

**Bit-identity, not best-effort.**  ``encode_block`` is strict: it only
produces a columnar body when it can prove the decoded payload will be
*equal* to the input — every point in one of the two stored layouts
(:data:`POINT_KEYS`, or the pre-accuracy layout without its last three
keys), canonical key order in every latency/resources dict, per-column
value types that round-trip exactly (ints in a float column must be
representable, i.e. ``|v| <= 2**53``).  Anything else — foreign keys or
key orders, exotic value types, out-of-range ints — raises
:class:`ColumnarEncodeError`.

**Opaque blocks are legacy data.**  Older stores framed a payload the
encoder refused as an *opaque* block, whose body is the payload's JSON
bytes; today only the JSONL import does (:func:`encode_opaque_block`).
Such a block reads back byte-identical, and the store re-encodes its
payload into an in-memory block (:meth:`ColumnarBlock.from_bytes`) to
query it.

A segment walk (:func:`walk_blocks`: opening the store, compaction)
stops at the first block whose preamble, length bounds, footer magic or
CRC do not check out, so a torn tail (a crash mid-append) or a corrupt
block ends the readable part of its segment.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "COLUMNAR_SCHEMA",
    "ColumnarBlock",
    "ColumnarEncodeError",
    "encode_block",
    "encode_opaque_block",
    "walk_blocks",
    "iter_blocks",
    "segment_extent",
    "read_block_bytes",
    "POINT_KEYS",
    "LATENCY_KEYS",
    "RESOURCE_KEYS",
]

#: Versioned schema tag embedded in every columnar block header.
COLUMNAR_SCHEMA = "repro.result-store-col/1"

_MAGIC = b"RCB1"
_FOOTER_MAGIC = b"1BCR"
_PREAMBLE = struct.Struct("<4sIQ")  # magic, header_len, body_len
_FOOTER = struct.Struct("<I4s")  # crc32(header+body), magic
#: Body bytes the verified walk reads at a time: opening a store never
#: holds more than this much of a large result in memory.
_CRC_CHUNK = 1 << 16

#: Canonical key orders of the persisted point schema
#: (``repro.experiments.persistence.point_to_dict``).  Strict encoding
#: requires exactly these orders so decode can rebuild bit-identical
#: dicts without storing per-point key lists.  The last three point keys
#: are the accuracy columns, appended last: points written before they
#: existed carry the other keys in the same order.
POINT_KEYS: Tuple[str, ...] = (
    "name", "m", "r", "parallel_pes", "multipliers", "frequency_mhz",
    "shared_data_transform", "device_name", "precision", "latency",
    "throughput_gops", "multiplier_efficiency", "resources", "power_watts",
    "power_efficiency", "spatial_multiplications", "winograd_multiplications",
    "implementation_transform_ops", "workload_name",
    "bit_width", "max_rel_error", "mean_rel_error",
)
LATENCY_KEYS: Tuple[str, ...] = (
    "m", "r", "parallel_pes", "frequency_mhz", "pipeline_depth",
    "group_latency_ms", "total_latency_ms", "spatial_ops",
)
RESOURCE_KEYS: Tuple[str, ...] = (
    "luts", "registers", "dsp_slices", "bram_kbits", "multipliers",
)

#: Scalar column paths in row layout order (group_latency_ms rides along
#: as a JSON-pooled column so a block is self-contained).
_SCALAR_PATHS: Tuple[str, ...] = (
    "name", "m", "r", "parallel_pes", "multipliers", "frequency_mhz",
    "shared_data_transform", "device_name", "precision",
    "latency.m", "latency.r", "latency.parallel_pes", "latency.frequency_mhz",
    "latency.pipeline_depth", "latency.group_latency_ms",
    "latency.total_latency_ms", "latency.spatial_ops",
    "resources.luts", "resources.registers", "resources.dsp_slices",
    "resources.bram_kbits", "resources.multipliers",
    "throughput_gops", "multiplier_efficiency", "power_watts",
    "power_efficiency", "spatial_multiplications", "winograd_multiplications",
    "implementation_transform_ops", "workload_name",
    "bit_width", "max_rel_error", "mean_rel_error",
)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Largest integer magnitude exactly representable as a float64 — the
#: bound for storing a mixed int/float column losslessly.
_EXACT_FLOAT_INT = 2**53


class ColumnarEncodeError(ValueError):
    """A payload the strict columnar encoder cannot represent losslessly."""


def _get_path(point: Dict[str, Any], path: str) -> Any:
    value: Any = point
    for part in path.split("."):
        value = value[part]
    return value


def _classify(path: str, values: List[Any]) -> str:
    """Pick the lossless storage kind of one column, or raise.

    The columns of an empty result have no values to type and are stored
    as ``str``; the query engine types a column only for rows that reach
    it, so that kind never surfaces in an answer.
    """
    if path == "latency.group_latency_ms":
        return "json"
    all_str = all_bool = all_int = all_num = True
    all_optint = True
    for value in values:
        if value is None:
            # None is only representable by the nullable-int kind.
            all_str = all_bool = all_int = all_num = False
        else:
            if not isinstance(value, str):
                all_str = False
            if not isinstance(value, bool):
                all_bool = False
            is_bool = isinstance(value, bool)
            if is_bool or not isinstance(value, int):
                all_int = False
                all_optint = False
            if is_bool or not isinstance(value, (int, float)):
                all_num = False
        if not (all_str or all_bool or all_int or all_num or all_optint):
            raise ColumnarEncodeError(
                f"column {path!r} mixes unsupported value types"
            )
    if all_str:
        return "str"
    if all_bool:
        return "bool"
    if all_int:
        if any(not (_INT64_MIN <= v <= _INT64_MAX) for v in values):
            raise ColumnarEncodeError(f"column {path!r} has an int beyond int64")
        return "int"
    if all_optint:
        # ints with Nones interleaved (e.g. ``bit_width``): an int64
        # column plus a companion was-null mask.
        if any(
            v is not None and not (_INT64_MIN <= v <= _INT64_MAX) for v in values
        ):
            raise ColumnarEncodeError(f"column {path!r} has an int beyond int64")
        return "optint"
    if all_num:
        if any(isinstance(v, float) for v in values):
            if all(isinstance(v, float) for v in values):
                return "float"
            # Mixed ints and floats: ints are restored from the float64
            # column via a companion mask, so they must be exact.
            if any(
                isinstance(v, int) and abs(v) > _EXACT_FLOAT_INT for v in values
            ):
                raise ColumnarEncodeError(
                    f"column {path!r} mixes floats with ints beyond 2**53"
                )
            return "mixed"
        return "int"
    raise ColumnarEncodeError(f"column {path!r} mixes unsupported value types")


def _column_dtype(name: str, kind: str) -> List[Tuple[str, str]]:
    if kind in ("str", "json"):
        return [(name, "<i4")]
    if kind == "bool":
        return [(name, "u1")]
    if kind == "int":
        return [(name, "<i8")]
    if kind == "float":
        return [(name, "<f8")]
    if kind == "mixed":
        return [(name, "<f8"), (name + "#int", "u1")]
    if kind == "optint":
        return [(name, "<i8"), (name + "#null", "u1")]
    raise ValueError(f"unknown column kind {kind!r}")  # pragma: no cover


def block_dtype(columns: List[Tuple[str, str]]) -> np.dtype:
    """The packed structured row dtype of a block's column table."""
    dtype_fields: List[Tuple[str, str]] = []
    for name, kind in columns:
        dtype_fields.extend(_column_dtype(name, kind))
    return np.dtype(dtype_fields)


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def _encode_columns(
    points: List[Dict[str, Any]],
) -> Tuple[List[Tuple[str, str]], bytes, List[str]]:
    """Strictly encode points into (column table, row bytes, string pool)."""
    # Every point shares the first point's layout: the canonical one, or
    # the pre-accuracy one, whose columns stop before the accuracy paths.
    layouts = {POINT_KEYS: _SCALAR_PATHS, POINT_KEYS[:-3]: _SCALAR_PATHS[:-3]}
    keys = tuple(points[0]) if points and isinstance(points[0], dict) else POINT_KEYS
    paths = layouts.get(keys)
    for index, point in enumerate(points):
        if paths is None or not isinstance(point, dict) or tuple(point) != keys:
            unknown = sorted(set(point) - set(POINT_KEYS)) if isinstance(point, dict) else []
            raise ColumnarEncodeError(
                f"point {index} fits no stored point layout"
                + (f" (unknown keys {unknown})" if unknown else "")
            )
        latency = point["latency"]
        if not isinstance(latency, dict) or tuple(latency) != LATENCY_KEYS:
            raise ColumnarEncodeError("latency keys differ from the canonical layout")
        resources = point["resources"]
        if not isinstance(resources, dict) or tuple(resources) != RESOURCE_KEYS:
            raise ColumnarEncodeError("resources keys differ from the canonical layout")

    pool: List[str] = []
    pool_ids: Dict[str, int] = {}

    def intern(text: str) -> int:
        """The string pool id for ``text``, appending it on first sight."""
        found = pool_ids.get(text)
        if found is None:
            found = pool_ids[text] = len(pool)
            pool.append(text)
        return found

    columns: List[Tuple[str, str]] = []
    encoded: Dict[str, np.ndarray] = {}
    for path in paths:
        values = [_get_path(point, path) for point in points]
        kind = _classify(path, values)
        columns.append((path, kind))
        if kind == "json":
            ids = []
            for value in values:
                if not isinstance(value, dict) or not all(
                    isinstance(k, str) for k in value
                ):
                    raise ColumnarEncodeError(
                        f"column {path!r} must be a str-keyed mapping"
                    )
                try:
                    ids.append(intern(json.dumps(value, separators=(",", ":"))))
                except (TypeError, ValueError) as error:
                    raise ColumnarEncodeError(
                        f"column {path!r} is not JSON-encodable: {error}"
                    ) from None
            encoded[path] = np.array(ids, dtype=np.int32)
        elif kind == "str":
            encoded[path] = np.array([intern(v) for v in values], dtype=np.int32)
        elif kind == "bool":
            encoded[path] = np.array(values, dtype=np.uint8)
        elif kind == "int":
            encoded[path] = np.array(values, dtype=np.int64)
        elif kind == "float":
            encoded[path] = np.array(values, dtype=np.float64)
        elif kind == "optint":
            encoded[path] = np.array(
                [0 if v is None else v for v in values], dtype=np.int64
            )
            encoded[path + "#null"] = np.array(
                [v is None for v in values], dtype=np.uint8
            )
        else:  # mixed
            encoded[path] = np.array([float(v) for v in values], dtype=np.float64)
            encoded[path + "#int"] = np.array(
                [isinstance(v, int) for v in values], dtype=np.uint8
            )

    rows = np.zeros(len(points), dtype=block_dtype(columns))
    for field_name in rows.dtype.names or ():
        rows[field_name] = encoded[field_name]
    return columns, rows.tobytes(), pool


def _header(meta: Dict[str, Any], payload: Dict[str, Any], encoding: str) -> Dict[str, Any]:
    points = payload.get("points", [])
    keys = list(payload.keys())
    return {
        "schema": COLUMNAR_SCHEMA,
        "meta": meta,
        "result": {k: v for k, v in payload.items() if k != "points"},
        "points_index": keys.index("points") if "points" in keys else len(keys),
        "rows": len(points) if isinstance(points, list) else 0,
        "encoding": encoding,
    }


def encode_block(meta: Dict[str, Any], payload: Dict[str, Any]) -> bytes:
    """Serialize one stored result into a self-contained columnar block.

    ``meta`` is the index metadata minus its positional ``segment`` and
    ``offset`` fields.  Raises :class:`ColumnarEncodeError` when the
    payload cannot be encoded losslessly.
    """
    points = payload.get("points", [])
    if not isinstance(points, list):
        raise ColumnarEncodeError("payload points is not a list")
    columns, row_bytes, pool = _encode_columns(points)
    header = _header(meta, payload, "columnar")
    header["columns"] = [list(column) for column in columns]
    header["pool_offset"] = len(row_bytes)
    return _frame(header, row_bytes + json.dumps(pool, separators=(",", ":")).encode())


def encode_opaque_block(meta: Dict[str, Any], payload: Dict[str, Any]) -> bytes:
    """Frame a payload :func:`encode_block` refuses as an opaque block.

    The body is the payload's JSON bytes.  Only the legacy JSONL import
    writes these, so that no imported result is lost.
    """
    body = json.dumps(payload, separators=(",", ":")).encode()
    return _frame(_header(meta, payload, "opaque"), body)


def _frame(header: Dict[str, Any], body: bytes) -> bytes:
    """Preamble, header, body and CRC footer of one block."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    crc = zlib.crc32(header_bytes)
    crc = zlib.crc32(body, crc)
    return (
        _PREAMBLE.pack(_MAGIC, len(header_bytes), len(body))
        + header_bytes
        + body
        + _FOOTER.pack(crc, _FOOTER_MAGIC)
    )


# --------------------------------------------------------------------- #
# Walking / reading
# --------------------------------------------------------------------- #
def _read_exact(handle, count: int) -> bytes:
    data = handle.read(count)
    return data if len(data) == count else b""


def walk_blocks(path: Path) -> Iterator[Tuple[int, Dict[str, Any], int]]:
    """Yield ``(offset, header, end)`` for every CRC-verified block of a segment.

    ``end`` is the byte offset just past the block.  The walk stops at the
    first block that fails a check (torn tail, foreign bytes, bad CRC):
    a segment is readable up to its first bad block, and nothing behind
    that block is a record.
    """
    size = path.stat().st_size
    with path.open("rb") as handle:
        offset = 0
        while offset + _PREAMBLE.size <= size:
            handle.seek(offset)
            preamble = _read_exact(handle, _PREAMBLE.size)
            if not preamble:
                return
            magic, header_len, body_len = _PREAMBLE.unpack(preamble)
            end = offset + _PREAMBLE.size + header_len + body_len + _FOOTER.size
            if magic != _MAGIC or end > size:
                return
            header_bytes = _read_exact(handle, header_len)
            if not header_bytes and header_len:
                return
            try:
                header = json.loads(header_bytes)
            except json.JSONDecodeError:
                return
            if not isinstance(header, dict) or header.get("schema") != COLUMNAR_SCHEMA:
                return
            crc = zlib.crc32(header_bytes)
            for start in range(0, body_len, _CRC_CHUNK):
                crc = zlib.crc32(handle.read(min(_CRC_CHUNK, body_len - start)), crc)
            footer = _read_exact(handle, _FOOTER.size)
            if len(footer) != _FOOTER.size:
                return
            stored_crc, footer_magic = _FOOTER.unpack(footer)
            if footer_magic != _FOOTER_MAGIC or stored_crc != crc:
                return
            yield offset, header, end
            offset = end


def iter_blocks(path: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(offset, header)`` for every CRC-verified block of a segment."""
    for offset, header, _end in walk_blocks(path):
        yield offset, header


def segment_extent(path: Path) -> Tuple[int, int]:
    """(verified blocks, byte offset past the last one) of a segment.

    Bytes past the extent are a torn tail from a crashed append, or a
    corrupt block and everything behind it.
    """
    count = end = 0
    for _offset, _header, end in walk_blocks(path):
        count += 1
    return count, end


def read_block_bytes(path: Path, offset: int) -> bytes:
    """The verbatim bytes of the block at ``offset`` (for raw compaction copies)."""
    with path.open("rb") as handle:
        handle.seek(offset)
        preamble = _read_exact(handle, _PREAMBLE.size)
        magic, header_len, body_len = _PREAMBLE.unpack(preamble)
        if magic != _MAGIC:
            raise ValueError(f"no block at {path.name}:{offset}")
        rest = _read_exact(handle, header_len + body_len + _FOOTER.size)
        if not rest:
            raise ValueError(f"truncated block at {path.name}:{offset}")
        return preamble + rest


class ColumnarBlock:
    """One stored result, opened for zero-copy column reads.

    The body is memory-mapped; :meth:`column` returns NumPy views/arrays
    over it and :meth:`row_dicts` materializes only the rows asked for.
    Legacy opaque blocks expose :meth:`payload` only.
    """

    def __init__(
        self,
        path: Optional[Path],
        offset: int,
        header: Dict[str, Any],
        body_start: int,
        body_len: int,
    ) -> None:
        self.path = path
        self.offset = offset
        self.header = header
        self.body_start = body_start
        self.body_len = body_len
        self._body: Optional[np.ndarray] = None
        self._rows_arr: Optional[np.ndarray] = None
        self._pool: Optional[List[str]] = None
        self._strings: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def read_at(cls, path: Path, offset: int) -> "ColumnarBlock":
        """Open the block at a known byte offset (no CRC on the hot path:
        the walk that indexed the block verified it)."""
        size = path.stat().st_size
        with path.open("rb") as handle:
            handle.seek(offset)
            preamble = _read_exact(handle, _PREAMBLE.size)
            if len(preamble) != _PREAMBLE.size:
                raise ValueError(f"no block at {path.name}:{offset}")
            magic, header_len, body_len = _PREAMBLE.unpack(preamble)
            end = offset + _PREAMBLE.size + header_len + body_len + _FOOTER.size
            if magic != _MAGIC or end > size:
                raise ValueError(f"no block at {path.name}:{offset}")
            header_bytes = _read_exact(handle, header_len)
            handle.seek(offset + _PREAMBLE.size + header_len + body_len)
            footer = _read_exact(handle, _FOOTER.size)
        try:
            header = json.loads(header_bytes)
        except json.JSONDecodeError:
            raise ValueError(f"corrupt block header at {path.name}:{offset}") from None
        if (
            not isinstance(header, dict)
            or header.get("schema") != COLUMNAR_SCHEMA
            or len(footer) != _FOOTER.size
            or _FOOTER.unpack(footer)[1] != _FOOTER_MAGIC
        ):
            raise ValueError(f"corrupt block at {path.name}:{offset}")
        return cls(path, offset, header, offset + _PREAMBLE.size + header_len, body_len)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarBlock":
        """Open a block held in memory, as :func:`encode_block` returns it."""
        _magic, header_len, body_len = _PREAMBLE.unpack_from(data)
        body_start = _PREAMBLE.size + header_len
        header = json.loads(data[_PREAMBLE.size : body_start])
        block = cls(None, 0, header, body_start, body_len)
        block._body = np.frombuffer(data, dtype=np.uint8, count=body_len, offset=body_start)
        return block

    # ------------------------------------------------------------------ #
    @property
    def meta(self) -> Dict[str, Any]:
        """The record metadata embedded in the block header."""
        return self.header.get("meta", {})

    @property
    def key(self) -> Optional[str]:
        """The content key this block stores, if the header names one."""
        return self.meta.get("key")

    @property
    def opaque(self) -> bool:
        """True when the body is a raw JSON payload, not columns."""
        return self.header.get("encoding") != "columnar"

    @property
    def rows(self) -> int:
        """Number of design-point rows encoded in the body."""
        return int(self.header.get("rows", 0))

    @property
    def result_extra(self) -> Dict[str, Any]:
        """The payload minus its points (schema, spec, bookkeeping)."""
        return self.header.get("result", {})

    # ------------------------------------------------------------------ #
    def _mapped(self) -> np.ndarray:
        if self._body is None:
            self._body = np.memmap(
                self.path, dtype=np.uint8, mode="r",
                offset=self.body_start, shape=(self.body_len,),
            )
        return self._body

    def _row_array(self) -> np.ndarray:
        if self._rows_arr is None:
            columns = [tuple(c) for c in self.header["columns"]]
            dtype = block_dtype(columns)
            pool_offset = int(self.header["pool_offset"])
            body = self._mapped()
            # frombuffer over the memmap slice: a zero-copy structured
            # view — column access reads only that column's bytes.
            self._rows_arr = np.frombuffer(body[:pool_offset], dtype=dtype)
        return self._rows_arr

    def pool(self) -> List[str]:
        """The block's string pool (parsed once, lazily)."""
        if self._pool is None:
            pool_offset = int(self.header["pool_offset"])
            raw = bytes(self._mapped()[pool_offset:])
            self._pool = json.loads(raw) if raw else []
        return self._pool

    def columns(self) -> Dict[str, str]:
        """Column path -> storage kind for this block."""
        return {name: kind for name, kind in self.header.get("columns", ())}

    def column(self, path: str) -> np.ndarray:
        """The raw stored array of one column (pool ids for str/json)."""
        return self._row_array()[path]

    def int_mask(self, path: str) -> np.ndarray:
        """The companion was-an-int mask of a mixed column."""
        return self._row_array()[path + "#int"]

    def null_mask(self, path: str) -> np.ndarray:
        """The companion was-null mask of a nullable-int column."""
        return self._row_array()[path + "#null"]

    def pool_id(self, text: str) -> int:
        """Pool index of ``text``, or ``-1`` when the block never stores it."""
        try:
            return self.pool().index(text)
        except ValueError:
            return -1

    def strings(self, path: str) -> List[str]:
        """A str column decoded to python strings (cached per column)."""
        cached = self._strings.get(path)
        if cached is None:
            pool = self.pool()
            cached = [pool[i] for i in self.column(path).tolist()]
            self._strings[path] = cached
        return cached

    # ------------------------------------------------------------------ #
    def _decode_column(self, path: str, kind: str) -> List[Any]:
        if kind in ("str", "json"):
            pool = self.pool()
            texts = [pool[i] for i in self.column(path).tolist()]
            if kind == "json":
                return [json.loads(text) for text in texts]
            return texts
        values = self.column(path).tolist()
        if kind == "bool":
            return [bool(v) for v in values]
        if kind == "mixed":
            mask = self.int_mask(path).tolist()
            return [int(v) if is_int else v for v, is_int in zip(values, mask)]
        if kind == "optint":
            mask = self.null_mask(path).tolist()
            return [None if is_null else v for v, is_null in zip(values, mask)]
        return values  # int64/float64 .tolist() already yields int/float

    def row_dicts(self, indices) -> List[Dict[str, Any]]:
        """Materialize full canonical point dicts for the given row indices.

        Decoding is column-at-a-time over just the selected rows; the
        output dicts are bit-identical to the stored payload's points.
        """
        index_list = [int(i) for i in indices]
        if not index_list:
            return []
        decoded: Dict[str, List[Any]] = {}
        arr = self._row_array()
        pool = self.pool()
        for path, kind in self.columns().items():
            column = arr[path]
            if kind in ("str", "json"):
                texts = [pool[int(column[i])] for i in index_list]
                decoded[path] = (
                    [json.loads(t) for t in texts] if kind == "json" else texts
                )
            elif kind == "bool":
                decoded[path] = [bool(column[i]) for i in index_list]
            elif kind == "mixed":
                mask = arr[path + "#int"]
                decoded[path] = [
                    int(column[i]) if mask[i] else float(column[i])
                    for i in index_list
                ]
            elif kind == "optint":
                mask = arr[path + "#null"]
                decoded[path] = [
                    None if mask[i] else int(column[i]) for i in index_list
                ]
            elif kind == "int":
                decoded[path] = [int(column[i]) for i in index_list]
            else:
                decoded[path] = [float(column[i]) for i in index_list]
        points = []
        for row in range(len(index_list)):
            latency = {
                key: decoded[f"latency.{key}"][row] for key in LATENCY_KEYS
            }
            resources = {
                key: decoded[f"resources.{key}"][row] for key in RESOURCE_KEYS
            }
            point: Dict[str, Any] = {}
            for key in POINT_KEYS:
                if key == "latency":
                    point[key] = latency
                elif key == "resources":
                    point[key] = resources
                elif key in decoded:
                    point[key] = decoded[key][row]
                # else: the block predates this key (schema grew by
                # appending columns); reproduce the old payload verbatim.
            points.append(point)
        return points

    def payload(self) -> Dict[str, Any]:
        """Reconstruct the full stored result payload, bit-identically."""
        if self.opaque:
            return json.loads(bytes(self._mapped()))
        extra = self.result_extra
        points = self.row_dicts(range(self.rows))
        keys = list(extra.keys())
        keys.insert(min(int(self.header.get("points_index", len(keys))), len(keys)), "points")
        out: Dict[str, Any] = {}
        for key in keys:
            out[key] = points if key == "points" else extra[key]
        return out
