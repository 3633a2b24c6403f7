"""The three benchmark workloads: inputs, warm-up, verification, properties.

Every workload draws its inputs from the ``--seed``.  Class counts are fixed
per block of operations and the seed only shuffles each block and draws the
parameters, so a percentile never moves onto a class boundary when the seed
changes.  Operations are deterministic functions of ``(seed, index)``, so
the sequence is the same whatever speed the server runs at.

``evaluate`` and ``query`` cycle through a fixed op list (their answers do not
change the server's state); ``search`` builds a fresh spec for every index,
because a repeated spec would be answered from the store.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import MIN_TIMED_OPS, Op, Sample

NETWORKS = ("alexnet", "vgg16", "resnet18")
DEVICES = ("xc7vx485t", "xc7vx690t")
M_VALUES = (2, 3, 4, 5, 6)
R_VALUES = (3, 5)
BIT_WIDTHS = (None, 8, 12, 16)

#: The store's per-result engine LRU size (``repro.service.store``).
ENGINE_CACHE_SIZE = 16


def _json(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


def _parse(sample: Sample) -> Optional[Any]:
    try:
        return json.loads(sample.data)
    except ValueError:
        return None


def _canonical(value: Any) -> Any:
    """The JSON round trip of what the server would send for ``value``."""
    from repro.reporting import json_sanitize

    return json.loads(json.dumps(json_sanitize(value)))


def calibration_warmup() -> List[Op]:
    """One evaluate per calibration cell, spread over every (network, device) cell."""
    cells = [(network, device) for network in NETWORKS for device in DEVICES]
    ops = []
    for index, (m, r, bits) in enumerate(
        (m, r, bits) for m in M_VALUES for r in R_VALUES for bits in BIT_WIDTHS
    ):
        network, device = cells[index % len(cells)]
        body = {"network": network, "device": device, "m": m, "r": r, "bit_width": bits}
        ops.append(Op("POST", "/v1/evaluate", _json(body)))
    return ops


class Workload:
    """Base class: one traffic mix against one server."""

    name = ""
    connections = 1
    #: Class labels of one block of operations; every block is a shuffle.
    BLOCK: Tuple[str, ...] = ()
    #: Server set-ups per untraced run; ``setup_s`` is their median.
    SETUPS = 5
    #: Timed operations per second of ``--seconds``, for a workload whose
    #: operations grow the store; ``None`` runs for ``--seconds`` instead.
    OPS_PER_SECOND: Optional[float] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def timed_count(self, seconds: float) -> Optional[int]:
        """The fixed op count of a ``seconds`` run, or None to run by duration.

        A workload that appends to the store slows down as the store grows,
        so its runs have a fixed size: ``seconds`` times
        :attr:`OPS_PER_SECOND`, rounded up to whole blocks.  Every run then
        grows the store by the same amount, and a faster server finishes
        sooner instead of paying for a larger store.
        """
        if self.OPS_PER_SECOND is None:
            return None
        count = max(math.ceil(seconds * self.OPS_PER_SECOND), MIN_TIMED_OPS)
        return -(-count // len(self.BLOCK)) * len(self.BLOCK)

    def kind_at(self, index: int) -> str:
        """The class of operation ``index``: its block's seeded shuffle."""
        block, position = divmod(index, len(self.BLOCK))
        shuffled = list(self.BLOCK)
        random.Random(f"{self.name}-{self.seed}-{block}").shuffle(shuffled)
        return shuffled[position]

    def seed_store(self, root: Path) -> None:
        """Fill the store template the server starts from (empty by default)."""

    def warmup_ops(self) -> List[Op]:
        """Requests that take every cold cost the timed phase would hit."""
        return calibration_warmup()

    def op_at(self, index: int) -> Op:
        """The timed operation with this index."""
        raise NotImplementedError

    def verify(
        self, store_root: Path, samples: Sequence[Sample]
    ) -> Tuple[Dict[int, str], int]:
        """Mismatches by op index, and how many answers met a reference."""
        raise NotImplementedError

    def properties(
        self, samples: Sequence[Sample], store_root: Path, stats: Dict[str, float]
    ) -> Dict[str, Any]:
        """Workload properties that decide whether an optimisation can show."""
        return {}


# --------------------------------------------------------------------- #
# evaluate
# --------------------------------------------------------------------- #
class EvaluateWorkload(Workload):
    """Single-point ``/v1/evaluate`` requests through the micro-batcher."""

    name = "evaluate"
    connections = 2

    #: Per block: six requests per numeric backend, two of each with an error budget.
    BLOCK = tuple(
        f"{bits or 'float'}{'+budget' if with_budget else ''}"
        for bits in BIT_WIDTHS
        for with_budget in (False,) * 4 + (True,) * 2
    )
    BUDGETS = (None, 256, 384, 512, 640, 768, 1024)
    FREQUENCIES = (150.0, 200.0, 250.0, 300.0)
    ERROR_BUDGETS = (1e-3, 1e-2, 0.1, 1.0)
    LENGTH = 4800

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bodies: List[Dict[str, Any]] = []
        for index in range(self.LENGTH):
            label = self.kind_at(index)
            rng = random.Random(f"{self.name}-{seed}-op-{index}")
            bits_label = label.split("+")[0]
            body: Dict[str, Any] = {
                "network": rng.choice(NETWORKS),
                "device": rng.choice(DEVICES),
                "m": rng.choice(M_VALUES),
                "r": rng.choice(R_VALUES),
                "multiplier_budget": rng.choice(self.BUDGETS),
                "frequency_mhz": rng.choice(self.FREQUENCIES),
                "shared_data_transform": rng.random() < 0.75,
                "bit_width": None if bits_label == "float" else int(bits_label),
            }
            if label.endswith("+budget"):
                body["error_budget"] = rng.choice(self.ERROR_BUDGETS)
            self.bodies.append(body)
        self.ops = [Op("POST", "/v1/evaluate", _json(body)) for body in self.bodies]

    def op_at(self, index: int) -> Op:
        return self.ops[index % len(self.ops)]

    def _expected(self, indices: Sequence[int]) -> Dict[str, Any]:
        """In-process answers of the distinct requests among ``indices``."""
        from repro.core.design_space import GridEntry
        from repro.dse.batch import EvalRequest, evaluate_requests
        from repro.experiments.persistence import point_to_dict

        distinct: Dict[bytes, Dict[str, Any]] = {}
        for index in indices:
            op = self.op_at(index)
            distinct.setdefault(op.body, self.bodies[index % len(self.bodies)])
        requests = [
            EvalRequest(
                network=body["network"],
                device=body["device"],
                entry=GridEntry(
                    m=body["m"],
                    r=body["r"],
                    multiplier_budget=body["multiplier_budget"],
                    frequency_mhz=body["frequency_mhz"],
                    shared_data_transform=body["shared_data_transform"],
                    bit_width=body["bit_width"],
                    error_budget=body.get("error_budget"),
                ),
            )
            for body in distinct.values()
        ]
        answers = {}
        for key, outcome in zip(distinct, evaluate_requests(requests)):
            if outcome.point is None:
                answers[key] = {"feasible": False, "error": outcome.error}
            else:
                answers[key] = _canonical(
                    {"feasible": True, "point": point_to_dict(outcome.point)}
                )
        return answers

    def verify(
        self, store_root: Path, samples: Sequence[Sample]
    ) -> Tuple[Dict[int, str], int]:
        expected = self._expected([sample.index for sample in samples])
        failures = {}
        checked = 0
        for sample in samples:
            if not sample.ok:
                continue
            checked += 1
            if _parse(sample) != expected[self.op_at(sample.index).body]:
                failures[sample.index] = "evaluate answer differs from evaluate_requests"
        return failures, checked

    def properties(
        self, samples: Sequence[Sample], store_root: Path, stats: Dict[str, float]
    ) -> Dict[str, Any]:
        answers = [_parse(sample) for sample in samples if sample.ok]
        infeasible = sum(1 for answer in answers if answer and not answer["feasible"])
        cells = {
            (body["m"], body["r"], body["bit_width"])
            for body in (self.bodies[s.index % len(self.bodies)] for s in samples)
        }
        return {
            "infeasible_share": round(infeasible / max(len(answers), 1), 4),
            "calibration_cells": len(cells),
        }


# --------------------------------------------------------------------- #
# query
# --------------------------------------------------------------------- #
def _seed_specs(seed: int) -> List[Any]:
    """The specs the ``query`` store is seeded with: two large, 22 small."""
    from repro.core.design_space import SweepSpec
    from repro.experiments import ExperimentSpec

    budgets = (None, 128, 192, 256, 320, 384, 448, 512, 576, 640, 704)
    specs = [
        ExperimentSpec(
            networks=NETWORKS, devices=DEVICES, name="seed-large-float",
            sweeps=(SweepSpec(
                m_values=M_VALUES, r_values=R_VALUES, multiplier_budgets=budgets,
                frequencies_mhz=(150.0, 175.0, 200.0, 225.0, 250.0, 275.0, 300.0,
                                 325.0, 350.0),
            ),),
        ),
        ExperimentSpec(
            networks=NETWORKS, devices=DEVICES, name="seed-large-fixed",
            sweeps=(SweepSpec(
                m_values=M_VALUES, r_values=R_VALUES, multiplier_budgets=budgets,
                frequencies_mhz=(150.0, 200.0, 250.0, 300.0, 350.0),
                bit_widths=(8, 16),
            ),),
        ),
    ]
    rng = random.Random(f"store-{seed}")
    for number in range(22):
        # Every small result has about 150-180 points, so which one a
        # request draws barely changes what the request costs.
        first = rng.randrange(0, 3)
        specs.append(ExperimentSpec(
            networks=tuple(rng.sample(NETWORKS, 2)),
            devices=(rng.choice(DEVICES),),
            name=f"seed-small-{number:02d}",
            sweeps=(SweepSpec(
                m_values=M_VALUES[first:first + 3],
                r_values=(rng.choice(R_VALUES),),
                multiplier_budgets=tuple(sorted(rng.sample(budgets[1:], 5))),
                frequencies_mhz=(150.0, 200.0, 250.0),
                bit_widths=rng.choice(((None, 8), (None, 12), (8, 16))),
            ),),
        ))
    return specs


def seed_query_store(seed: int, root: Path) -> None:
    """Store every seed result through ``run_experiment`` + ``put_payload``."""
    from repro.experiments import run_experiment
    from repro.experiments.persistence import result_to_dict
    from repro.service.store import ResultStore

    store = ResultStore(root)
    for spec in _seed_specs(seed):
        store.put_payload(result_to_dict(run_experiment(spec)))


class QueryWorkload(Workload):
    """Paged reads, best and Pareto fronts on a store seeded before start."""

    name = "query"
    connections = 2
    #: A set-up is only the server start (about 0.5 s), so more of them
    #: are cheap and steady the median.
    SETUPS = 7

    BLOCK = (
        ("query-key",) * 7 + ("query-name",) * 7 + ("query-cursor",) * 4
        + ("best",) * 3 + ("pareto-small",) * 3 + ("pareto-large",) * 4
    )
    #: Block positions of the four large fronts, evenly spaced.  With 4 of 28
    #: (14%) in the large class, ``p90_ms`` lies inside it.
    LARGE_SLOTS = (0, 7, 14, 21)
    LENGTH = 280
    #: Paged query shapes ``(projected, limit, top_k, filtered)``: one
    #: block's worth for the by-key queries and again for the by-name ones.
    SHAPES = (
        (True, 50, None, False), (True, 100, None, True), (True, 200, 100, False),
        (False, 20, None, False), (False, 50, None, True), (False, 50, 100, False),
        (False, 100, None, False),
    )
    #: Shapes of the queries that follow a ``next_cursor`` (every one has one).
    CURSOR_SHAPES = ((True, 50, None, False),) * 2 + ((False, 20, None, False),) * 2
    METRICS = ("throughput_gops", "power_efficiency", "total_latency_ms",
               "multiplier_efficiency")
    WHERE = (("m", "<=", 4), ("m", ">=", 3), ("r", "==", 3),
             ("frequency_mhz", ">=", 200.0), ("parallel_pes", ">=", 2))
    SELECT = ("name", "m", "r", "throughput_gops", "power_efficiency",
              "resources.dsp_slices", "max_rel_error", "bit_width")
    OBJECTIVES = (
        (("throughput_gops", True), ("max_rel_error", False)),
        (("throughput_gops", True), ("resources.dsp_slices", False),
         ("max_rel_error", False)),
        (("power_efficiency", True), ("max_rel_error", False)),
    )
    #: Objective sets of the large fronts: one 2- and one 3-objective front.
    LARGE_OBJECTIVES = 2

    def kind_at(self, index: int) -> str:
        block, position = divmod(index, len(self.BLOCK))
        if position in self.LARGE_SLOTS:
            return "pareto-large"
        others = [kind for kind in self.BLOCK if kind != "pareto-large"]
        random.Random(f"{self.name}-{self.seed}-{block}").shuffle(others)
        return others[position - sum(slot < position for slot in self.LARGE_SLOTS)]

    def large_front_at(self, index: int) -> Tuple[int, int]:
        """(large result, objective set) of a large front: each once a block."""
        block, position = divmod(index, len(self.BLOCK))
        order = list(range(self.LARGE_OBJECTIVES))
        random.Random(f"{self.name}-{self.seed}-{block}-large").shuffle(order)
        slot = self.LARGE_SLOTS.index(position)
        return slot % 2, order[slot // 2]

    def seed_store(self, root: Path) -> None:
        seed_query_store(self.seed, root)
        self._build_ops(root)

    def warmup_ops(self) -> List[Op]:
        """None: the timed phase evaluates nothing, and the engine LRU is measured."""
        return []

    def _build_ops(self, root: Path) -> None:
        """Draw every request; cursors come from an in-process first page.

        What sets a cheap read's cost is stratified per block: each paged
        query shape (projection, page size, ``top_k``, filter or not) is used
        once by key and once by name, one of each addresses a large result,
        and the cursor follow-ups split evenly between projected and full
        rows.  The seed draws everything else: the order, which results,
        metrics and filter clauses.
        """
        from repro.service.queryspec import QuerySpec
        from repro.service.store import ResultStore

        store = ResultStore(root)
        records = store.query()
        large = [record for record in records if record.name.startswith("seed-large")]
        small = [record for record in records if not record.name.startswith("seed-large")]
        paged = [record for record in small if record.points > 50] or large
        self.key_of = {record.name: record.key for record in records}
        ops = []
        for block in range(self.LENGTH // len(self.BLOCK)):
            plan = random.Random(f"{self.name}-{self.seed}-plan-{block}")
            shapes = {
                kind: plan.sample(self.SHAPES, len(self.SHAPES))
                for kind in ("query-key", "query-name")
            }
            large_at = {kind: plan.randrange(len(self.SHAPES)) for kind in shapes}
            shapes["query-cursor"] = plan.sample(self.CURSOR_SHAPES, len(self.CURSOR_SHAPES))
            seen: Dict[str, int] = {}
            for position in range(len(self.BLOCK)):
                index = block * len(self.BLOCK) + position
                kind = self.kind_at(index)
                ordinal = seen[kind] = seen.get(kind, -1) + 1
                rng = random.Random(f"{self.name}-{self.seed}-op-{index}")
                by_name = kind == "query-name" or (kind != "query-key" and index % 2 == 1)
                if kind == "pareto-large":
                    result, choice = self.large_front_at(index)
                    record, objectives = large[result], self.OBJECTIVES[choice]
                elif kind in ("pareto-small", "query-key", "query-name"):
                    record, objectives = rng.choice(small), rng.choice(self.OBJECTIVES)
                    if large_at.get(kind) == ordinal:
                        record = rng.choice(large)
                elif kind == "query-cursor":
                    record = rng.choice(paged)
                else:
                    record = rng.choice(records)
                address = {"name": record.name} if by_name else {"key": record.key}
                if kind.startswith("pareto"):
                    body = dict(address, limit=50,
                                objectives=[list(pair) for pair in objectives])
                    ops.append(Op("POST", "/v1/pareto", _json(body)))
                    continue
                if kind == "best":
                    body = dict(address, metric=rng.choice(self.METRICS),
                                select=list(self.SELECT))
                    ops.append(Op("POST", "/v1/best", _json(body)))
                    continue
                projected, limit, top_k, filtered = shapes[kind][ordinal]
                body = dict(address, metric=rng.choice(self.METRICS), limit=limit)
                if projected:
                    body["select"] = list(rng.sample(self.SELECT, rng.randrange(3, 6)))
                if top_k is not None:
                    body["top_k"] = top_k
                if filtered:
                    body["where"] = [list(rng.choice(self.WHERE))]
                if kind == "query-cursor":
                    page = store.query_page(QuerySpec.from_dict(body))
                    body["cursor"] = page.next_cursor
                ops.append(Op("POST", "/v1/query", _json(body)))
        self.ops = ops

    def op_at(self, index: int) -> Op:
        return self.ops[index % len(self.ops)]

    def verify(
        self, store_root: Path, samples: Sequence[Sample]
    ) -> Tuple[Dict[int, str], int]:
        from repro.service.queryspec import QuerySpec
        from repro.service.store import ResultStore

        store = ResultStore(store_root)
        keys_by_name = {record.name: record.key for record in store.query()}
        expected: Dict[bytes, Any] = {}
        failures = {}
        checked = 0
        for sample in samples:
            if not sample.ok:
                continue
            checked += 1
            op = self.op_at(sample.index)
            body = json.loads(op.body)
            if "name" in body:
                # A name resolves to the newest record of that name; every
                # seeded name is unique, so the key addresses the same result.
                body["key"] = keys_by_name[body.pop("name")]
            canonical = _json(dict(sorted(body.items())) | {"path": op.path})
            if canonical not in expected:
                spec = QuerySpec.from_dict(body)
                if op.path == "/v1/query":
                    page = store.query_page(spec)
                    answer = {"key": page.key, "count": len(page.rows), "total": page.total,
                              "points": page.rows, "next_cursor": page.next_cursor}
                elif op.path == "/v1/pareto":
                    page = store.pareto(spec)
                    answer = {"key": page.key, "objectives": page.objectives,
                              "fronts": page.fronts, "total": page.total,
                              "next_cursor": page.next_cursor}
                else:
                    best = store.best(spec)
                    answer = {"key": best.key, "metric": best.metric, "value": best.value,
                              "point": best.row}
                expected[canonical] = _canonical(answer)
            if _parse(sample) != expected[canonical]:
                failures[sample.index] = f"{op.path} answer differs from ResultStore"
        return failures, checked

    def properties(
        self, samples: Sequence[Sample], store_root: Path, stats: Dict[str, float]
    ) -> Dict[str, Any]:
        ops = [self.op_at(sample.index) for sample in samples]
        bodies = [json.loads(op.body) for op in ops]
        addressed = {body.get("key") or self.key_of[body["name"]] for body in bodies}
        by_name = sum(1 for body in bodies if "name" in body)
        return {
            "stored_results": len(self.key_of),
            "engine_lru": ENGINE_CACHE_SIZE,
            "distinct_results_addressed": len(addressed),
            "name_share": round(by_name / max(len(ops), 1), 4),
            "pareto_share": round(
                sum(1 for op in ops if op.path == "/v1/pareto") / max(len(ops), 1), 4
            ),
        }


# --------------------------------------------------------------------- #
# search
# --------------------------------------------------------------------- #
def _index_state(store_root: Path) -> Tuple[int, float]:
    """(records, index.json KB) of a store directory."""
    index = store_root / "index.json"
    if not index.exists():
        return 0, 0.0
    records = len(json.loads(index.read_text()).get("records", {}))
    return records, index.stat().st_size / 1024.0


class SearchWorkload(Workload):
    """``pareto-refine`` and ``random`` searches over sliding, overlapping sweeps.

    Every op posts a fresh spec to ``/v1/campaign``, which plans and runs it
    as a job and appends its result to the store, so this workload also
    carries the write side of the store and the jobs scheduler.
    """

    name = "search"
    connections = 1
    OPS_PER_SECOND = 32.0
    #: Receipts whose key is checked against an in-process ``run_experiment``.
    SPEC_SAMPLE = 12

    CELLS = (("alexnet", "xc7vx485t"), ("vgg16", "xc7vx690t"), ("resnet18", "xc7vx485t"))
    #: A ``pareto-refine`` search costs about 1.5 times a ``random`` one.  With
    #: 2 of 8 in the costlier class, ``p50_ms`` lies inside the ``random``
    #: class and ``p90_ms`` inside the ``pareto-refine`` one, never on the
    #: boundary between them.
    BLOCK = ("pareto-refine",) * 2 + ("random",) * 6
    BUDGETS = (None, 256, 512, 768, 1024, 1536)
    #: Frequency ladder: search ``s`` on a cell sweeps rungs s..s+3, so three
    #: of its four frequencies were swept by the previous search on that cell.
    BASE_MHZ = 150.0
    RUNG_MHZ = 0.5
    WARMUP_MHZ = 123.0

    def _spec(self, index: int, name: str, frequencies: Tuple[float, ...], kind: str):
        from repro.core.design_space import SweepSpec
        from repro.experiments import ExperimentSpec
        from repro.experiments.spec import StrategySpec

        rng = random.Random(f"{self.name}-{self.seed}-op-{index}")
        cell = index % len(self.CELLS)
        network, device = self.CELLS[cell]
        if kind == "pareto-refine":
            strategy = StrategySpec("pareto-refine", {"coarse": 2})
        else:
            strategy = StrategySpec("random", {"samples": 40, "seed": index})
        return ExperimentSpec(
            networks=(network,),
            devices=(device,),
            sweeps=(SweepSpec(
                m_values=M_VALUES,
                r_values=(3, 5) if cell == 1 else (3,),
                multiplier_budgets=self.BUDGETS,
                frequencies_mhz=frequencies,
                bit_widths=(None, 8) if rng.random() < 1 / 3 else (None,),
            ),),
            strategy=strategy,
            name=name,
        )

    def spec_at(self, index: int):
        """The :class:`~repro.experiments.ExperimentSpec` of op ``index``."""
        step = index // len(self.CELLS)
        frequencies = tuple(
            self.BASE_MHZ + self.RUNG_MHZ * (step + rung) for rung in range(4)
        )
        return self._spec(index, f"search-{self.seed}-{index:05d}", frequencies,
                          self.kind_at(index))

    def op_at(self, index: int) -> Op:
        return Op("POST", "/v1/campaign", _json({"spec": self.spec_at(index).to_dict()}))

    def warmup_ops(self) -> List[Op]:
        """Calibration cells, then one search per cell off the timed ladder."""
        ops = calibration_warmup()
        for index in range(len(self.CELLS) * 2):
            spec = self._spec(index, f"search-warmup-{index}", (self.WARMUP_MHZ,), "random")
            ops.append(Op("POST", "/v1/campaign", _json({"spec": spec.to_dict()})))
        return ops

    def verify(
        self, store_root: Path, samples: Sequence[Sample]
    ) -> Tuple[Dict[int, str], int]:
        """Every receipt carries a key; a seeded sample matches ``run_experiment``."""
        from repro.experiments import run_experiment
        from repro.experiments.persistence import result_to_dict
        from repro.service.store import result_key

        failures = {}
        answered = []
        for sample in samples:
            if not sample.ok:
                continue
            receipt = _parse(sample)
            if not isinstance(receipt, dict) or not isinstance(receipt.get("key"), str):
                failures[sample.index] = "campaign receipt has no result key"
            else:
                answered.append((sample.index, receipt["key"]))
        rng = random.Random(f"{self.name}-{self.seed}-verify")
        chosen = rng.sample(answered, min(self.SPEC_SAMPLE, len(answered)))
        for index, key in chosen:
            expected = result_key(result_to_dict(run_experiment(self.spec_at(index))))
            if key != expected:
                failures[index] = "campaign receipt key differs from run_experiment"
        return failures, len(chosen)

    def properties(
        self, samples: Sequence[Sample], store_root: Path, stats: Dict[str, float]
    ) -> Dict[str, Any]:
        records, kilobytes = _index_state(store_root)
        return {
            # The server's gauge counts every lookup since it started,
            # warm-up searches included; the traced run isolates the timed ones.
            "point_cache_hit_rate_since_start": stats.get(
                "repro_eval_cache_hit_rate{layer=points}"
            ),
            # The store starts with the warm-up searches' results only.
            "records_end": records,
            "index_kb_end": round(kilobytes, 1),
        }


WORKLOADS = {
    workload.name: workload for workload in (EvaluateWorkload, QueryWorkload, SearchWorkload)
}
