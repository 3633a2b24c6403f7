"""A gate in place of the micro-batcher's engine call.

:class:`~repro.service.batching.MicroBatcher` looks
``repro.service.batching.evaluate_requests`` up at dispatch time, so a test
that patches :class:`BatchGate` in there decides when each batch returns.
While the gate is shut, a dispatched batch stays in flight on its worker
thread and later submissions queue behind it; no test has to guess a delay.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.dse import evaluate_requests

#: Upper bound on how long a shut gate holds a batch, so a failing test
#: cannot wedge the evaluation thread forever.
HOLD_LIMIT_S = 10.0


class BatchGate:
    """Records every batch and holds it until :meth:`open` is called.

    ``fail_first`` makes the first batch raise once released, standing in
    for an engine fault.
    """

    def __init__(self, fail_first: bool = False) -> None:
        self.batches: List[list] = []
        self.entered = threading.Event()
        self._open = threading.Event()
        self._fail_first = fail_first

    def open(self) -> None:
        """Release the held batch and let every later one through."""
        self._open.set()

    def __call__(self, requests) -> list:
        self.batches.append(list(requests))
        self.entered.set()
        if not self._open.wait(HOLD_LIMIT_S):
            raise RuntimeError("batch gate was never opened")
        if self._fail_first and len(self.batches) == 1:
            raise RuntimeError("engine fault in the first batch")
        return evaluate_requests(requests)


def install(monkeypatch, gate: Optional[BatchGate] = None) -> BatchGate:
    """Patch ``gate`` (a fresh shut one by default) in as the batcher's engine."""
    gate = gate or BatchGate()
    monkeypatch.setattr("repro.service.batching.evaluate_requests", gate)
    return gate
