"""Outside-in span tracing of the stepplace modules, plus a CostField replay probe.

The tracer never edits the package.  It replaces module attributes (and the
three ``CostField`` methods) with wrappers that time each call, keeps a span
stack so that a span's self time is its duration minus the time of the spans
nested inside it, and aggregates per (name, parent name) instead of keeping
raw spans.  ``uninstall`` puts every original back.

Names are ``<layer>.<function>``; the layer is the module the function lives
in, while the patched attribute is the one the caller looks up (for example
``stepplace.io_cli.round_step`` is the placer's ``round_step`` as the CLI
sees it).
"""

from __future__ import annotations

import time
from array import array

import stepplace.io_cli as io_cli
import stepplace.placer as placer
from stepplace.stepfield import CostField, GridRect

# (owner, attribute, span name); the owner is where the caller looks it up
PATCH_POINTS = (
    (io_cli, "load_instance", "io_cli.load_instance"),
    (io_cli, "save_result", "io_cli.save_result"),
    (io_cli, "new_state", "placer.new_state"),
    (io_cli, "round_step", "placer.round_step"),
    (io_cli, "naive_legalize", "placer.naive_legalize"),
    (io_cli, "bb_netlength", "netmodel.bb_netlength"),
    (io_cli, "is_legal", "netmodel.is_legal"),
    (placer, "move_macro", "placer.move_macro"),
    (placer, "candidate_score", "placer.candidate_score"),
    (placer, "penalty", "placer.penalty"),
    (placer, "model_length", "netmodel.model_length"),
    (placer, "bb_netlength", "netmodel.bb_netlength"),
    (placer, "is_legal", "netmodel.is_legal"),
    (CostField, "cost", "stepfield.cost"),
    (CostField, "increase", "stepfield.increase"),
    (CostField, "inflate", "stepfield.inflate"),
)

LAYERS = ("io_cli", "placer", "netmodel", "stepfield")

OP_COST, OP_INCREASE, OP_INFLATE = 0, 1, 2


class FieldStream:
    """The first ``cap`` field operations the placer issued, in order, with the
    live result of every ``cost``."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.ops = array("b")
        self.rects = array("q")  # a1, b1, a2, b2 per op (zeros for inflate)
        self.values = array("d")  # increase value, inflate rho, cost result
        self.grid: tuple[int, int] | None = None
        self.backend: str | None = None

    def record(self, field: CostField, op: int, args: tuple, result) -> None:
        if len(self.ops) >= self.cap:
            return
        if self.grid is None:
            self.grid = (field.p, field.q)
            self.backend = field.backend
        self.ops.append(op)
        if op == OP_INFLATE:
            self.rects.extend((0, 0, 0, 0))
            self.values.append(args[1])
            return
        r = args[1]
        self.rects.extend((r.a1, r.b1, r.a2, r.b2))
        self.values.append(result if op == OP_COST else args[2])


class Tracer:
    """Span stack plus per-(name, parent) aggregates and a few exact counters."""

    def __init__(self, replay_cap: int) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total s, self s]
        self.round_s = array("d")
        self.accepted = 0
        self.touched = 0
        self.legalize_moved = 0
        self.legalize_displacement = 0.0
        self.stream = FieldStream(replay_cap)
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(args, result, seconds)``
        runs outside the span's own interval."""
        stack = self.stack
        agg = self.agg
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    key = (name, parent[0])
                else:
                    key = (name, "")
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
            if after is not None:
                after(args, result, dur)
            return result

        return traced

    # -- hooks that read exact work counts off the call they follow ---------

    def _after_round(self, args, result, dur) -> None:
        self.round_s.append(dur)
        if args[0].last_choice != 0:
            self.accepted += 1

    def _after_legalize(self, args, result, dur) -> None:
        before = args[0]
        for mid, (x, y) in result.items():
            x0, y0 = before[mid]
            if (x, y) != (x0, y0):
                self.legalize_moved += 1
                self.legalize_displacement += abs(x - x0) + abs(y - y0)

    def _field_hook(self, op: int):
        stream = self.stream

        def after(args, result, dur) -> None:
            fld = args[0]
            if op != OP_INFLATE:
                self.touched += fld.last_touched
            stream.record(fld, op, args, result)

        return after

    def install(self) -> None:
        hooks = {
            "placer.round_step": self._after_round,
            "placer.naive_legalize": self._after_legalize,
            "stepfield.cost": self._field_hook(OP_COST),
            "stepfield.increase": self._field_hook(OP_INCREASE),
            "stepfield.inflate": self._field_hook(OP_INFLATE),
        }
        for owner, attr, name in PATCH_POINTS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.span(name, orig, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- aggregates ---------------------------------------------------------

    def discount(self, name: str, seconds: float) -> None:
        """Take ``seconds`` of foreign work out of a root span's time."""
        a = self.agg[(name, "")]
        a[1] -= seconds
        a[2] -= seconds

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.agg.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.agg.items() if n == name)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (n, _), a in self.agg.items():
            out[n.split(".", 1)[0]] += a[2]
        return out


def replay(stream: FieldStream, backend: str) -> dict:
    """Re-issue the recorded stream on a fresh field of ``backend`` and time
    every ``cost`` and ``increase`` through the public ``CostField`` API.

    Returns mean ns per op (timer overhead subtracted) and whether every
    replayed ``cost`` equals the live one bit for bit.
    """
    p, q = stream.grid
    fld = CostField(p, q, backend)
    rc = stream.rects
    rects = [
        GridRect(rc[4 * i], rc[4 * i + 1], rc[4 * i + 2], rc[4 * i + 3])
        if op != OP_INFLATE else None
        for i, op in enumerate(stream.ops)
    ]
    clock = time.perf_counter_ns
    empty = []
    for _ in range(2001):
        t0 = clock()
        empty.append(clock() - t0)
    empty.sort()
    timer_ns = empty[len(empty) // 2]

    cost_ns = inc_ns = 0
    n_cost = n_inc = 0
    equal = True
    cost, increase, inflate = fld.cost, fld.increase, fld.inflate
    for op, rect, v in zip(stream.ops, rects, stream.values):
        if op == OP_COST:
            t0 = clock()
            got = cost(rect)
            cost_ns += clock() - t0
            n_cost += 1
            if got != v:
                equal = False
        elif op == OP_INCREASE:
            t0 = clock()
            increase(rect, v)
            inc_ns += clock() - t0
            n_inc += 1
        else:
            inflate(v)
    return {
        "cost_ns": cost_ns / max(n_cost, 1) - timer_ns,
        "increase_ns": inc_ns / max(n_inc, 1) - timer_ns,
        "cost_ops": n_cost,
        "increase_ops": n_inc,
        "equal": equal,
    }
