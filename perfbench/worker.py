"""One benchmark job, run in a process of its own by ``run.py``.

Usage: ``python3 perfbench/worker.py JOB.json OUT.json T_SPAWN`` with ``src``
on ``PYTHONPATH``; ``T_SPAWN`` is the parent's ``CLOCK_MONOTONIC`` reading
just before it started this process.  ``JOB.json`` names the mode:

* ``setup``: run ``place`` until its first round is about to start, then stop;
  reports the clock at that moment (set-up ends there).
* ``place``: run the whole ``place`` command untraced, then ``check`` its
  result; reports its times (wall, and at the reference speed, see
  ``slowness``), quality, the checker verdict and file hashes.
* ``trace``: the same ``place`` untraced, traced, and untraced again, then
  ``check``; reports the per-layer metrics and replays the recorded field
  stream on every importable backend.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import stepplace.io_cli as io_cli
from stepplace.stepfield import HAVE_C_CORE

WINDOW = 100  # rounds per throughput sample
PROBE_REPS = 20  # kernel runs per speed probe, about 15 ms
PROBE_REF_S = 0.0006  # one kernel run at the reference speed
_PROBE_A = np.arange(32.0)
_PROBE_IDX = np.arange(9)


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised by the set-up probe at the first round; unwinds ``place``."""


def place_argv(job: dict, result: str, stats: str) -> list[str]:
    g = str(job["grid_p"])
    return [
        "place", "--in", job["instance"], "--out", result, "--stats", stats,
        "--rounds", str(job["rounds"]), "--seed", str(job["seed"]),
        "--grid-p", g, "--grid-q", g,
    ]


def sha256(path: str) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _probe_kernel() -> float:
    # the placer's mix: interpreter work on tuples and floats plus small
    # numpy gathers and dots
    acc = 0.0
    for i in range(240):
        acc += float(_PROBE_A.take(_PROBE_IDX).dot(_PROBE_A.take(_PROBE_IDX)))
        p = (i * 0.5, i * 0.25)
        acc += max(p) - min(p)
    return acc


def slowness() -> float:
    """How slow the machine runs right now against the reference speed: the
    mean time of a fixed kernel over ``PROBE_REF_S`` (above 1 is slower).

    The collector is off while probing, so objects the program left behind
    cannot slow the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            _probe_kernel()
        return (time.perf_counter() - t0) / PROBE_REPS / PROBE_REF_S
    finally:
        gc.enable()


def setup_probe(job: dict) -> dict:
    def first_round(state, config):
        raise SetupDone

    saved = io_cli.round_step
    io_cli.round_step = first_round
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            io_cli.main(place_argv(job, job["result"], job["stats"]))
    except SetupDone:
        return {"setup_s": now() - job["t_spawn"]}
    finally:
        io_cli.round_step = saved
    raise RuntimeError("place finished without running a round")


class SpeedMeter:
    """Times one ``place`` command in wall seconds and at the reference speed.

    While installed, a counter on ``round_step`` stops every ``WINDOW``
    rounds to read the clock and probe the machine's speed, and the
    legalizer's start closes the last window; one more probe follows the
    command.  Probe time is left out of every interval.  Each interval is
    divided by the slowness probed at its ends: the part before the first
    round by the first probe, each window by the mean of its two, the
    legalizer and the writes by the last two.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (probe start, probe end)
        self.slow: list[float] = []
        self.calls = 0

    def _mark(self) -> None:
        t0 = now()
        self.slow.append(slowness())
        self.marks.append((t0, now()))

    def run(self, place, argv: list[str]) -> int:
        """``place(argv)`` with the counter installed on top of whatever
        ``io_cli`` holds now."""
        saved_round, saved_legalize = io_cli.round_step, io_cli.naive_legalize

        def counted_round(state, config):
            if self.calls % WINDOW == 0:
                self._mark()
            self.calls += 1
            return saved_round(state, config)

        def legalize(*args, **kwargs):
            self._mark()
            return saved_legalize(*args, **kwargs)

        io_cli.round_step, io_cli.naive_legalize = counted_round, legalize
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.t_start = now()
                code = place(argv)
                self.t_end = now()
        finally:
            io_cli.round_step, io_cli.naive_legalize = saved_round, saved_legalize
        self.slow.append(slowness())
        return code

    def probe_s(self) -> float:
        """Wall time spent probing inside the command."""
        return sum(b - a for a, b in self.marks)

    def result(self) -> dict:
        marks, slow = self.marks, self.slow
        before = marks[0][0] - self.t_start
        windows = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
        after = self.t_end - marks[-1][1]
        n = len(windows)
        sizes = [WINDOW] * (n - 1) + [self.calls - WINDOW * (n - 1)]
        window_slow = [(a + b) / 2 for a, b in zip(slow, slow[1:])]
        return {
            "first_round": marks[0][0],
            "place_wall_s": before + sum(windows) + after,
            "place_s": before / slow[0]
            + sum(d / f for d, f in zip(windows, window_slow))
            + after / ((slow[-2] + slow[-1]) / 2),
            "window_wall_rounds_per_s": [k / d for k, d in zip(sizes, windows)],
            "window_rounds_per_s": [
                k / d * f for k, d, f in zip(sizes, windows, window_slow)
            ],
            "slowness": slow,
        }


def timed_place(job: dict, result: str, stats: str) -> dict:
    """Untraced ``place``, timed by a :class:`SpeedMeter`."""
    meter = SpeedMeter()
    code = meter.run(io_cli.main, place_argv(job, result, stats))
    out = meter.result()
    out["exit"] = code
    out["setup_s"] = out.pop("first_round") - job["t_spawn"]
    return out


def check(job: dict, result: str, stats: str) -> dict:
    """``check`` the result and compare the checker with the file's summary."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = io_cli.main(["check", "--instance", job["instance"], "--result", result])
    lines = buf.getvalue().splitlines()
    res = io_cli.load_result(result)
    checker_len = float(lines[-2].rsplit(":", 1)[1])
    checker_legal = lines[-1] == "legal: true"
    problems = []
    if code != 0 or not checker_legal:
        problems.append("checker rules the result illegal: " + "; ".join(lines[:-2]))
    if checker_legal != res.legal:
        problems.append(f"checker legal={checker_legal} but summary legal={res.legal}")
    if not math.isclose(checker_len, res.netlength_bb, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(
            f"checker netlength {checker_len!r} != summary {res.netlength_bb!r}"
        )
    with open(stats) as fp:
        last = fp.read().splitlines()[-1]
    overlap_area = float(last.split(",")[2])
    return {
        "problems": problems,
        "final_hpwl": res.netlength_bb,
        "overlap_pct": 100.0 * overlap_area / job["total_macro_area"],
        "result_sha256": sha256(result),
        "stats_sha256": sha256(stats),
        "result_bytes": os.path.getsize(result),
        "stats_bytes": os.path.getsize(stats),
    }


def place_job(job: dict) -> dict:
    out = timed_place(job, job["result"], job["stats"])
    if out["exit"] != 0:
        out["problems"] = [f"place exited {out['exit']}"]
    else:
        out.update(check(job, job["result"], job["stats"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def trace_job(job: dict) -> dict:
    from tracer import Tracer, replay

    base = timed_place(job, job["result"], job["stats"])
    traced_result = job["result"] + ".traced"
    traced_stats = job["stats"] + ".traced"
    tracer = Tracer(job["replay_cap"])
    meter = SpeedMeter()
    tracer.install()
    try:
        place = tracer.span("io_cli.place", io_cli.main)
        code = meter.run(place, place_argv(job, traced_result, traced_stats))
    finally:
        tracer.uninstall()
    # the meter probes between spans, inside the place span: take it out
    tracer.discount("io_cli.place", meter.probe_s())
    # untraced again, so the traced run sits between two untraced ones: that
    # cancels a steady drift of the machine's speed and the first run's warm-up
    again = timed_place(job, job["result"], job["stats"])
    problems = []
    if base["exit"] != 0 or code != 0 or again["exit"] != 0:
        problems.append(f"place exited {base['exit']} and {again['exit']} "
                        f"untraced, {code} traced")
        return {"problems": problems}
    t0 = now()
    checked = check(job, traced_result, traced_stats)
    check_s = now() - t0
    problems += checked["problems"]
    for key, path in (("result_sha256", job["result"]), ("stats_sha256", job["stats"])):
        if sha256(path) != checked[key]:
            problems.append(f"tracing changed the output ({key})")

    replays = {}
    for backend in ("py", "c") if HAVE_C_CORE else ("py",):
        replays[backend] = replay(tracer.stream, backend)
    if not replays[tracer.stream.backend]["equal"]:
        problems.append(f"replayed costs differ from live ones on {tracer.stream.backend}")

    rounds = len(tracer.round_s)
    rs = sorted(tracer.round_s)
    layer_self = tracer.layer_self_s()
    traced = meter.result()
    # in wall time, like the spans: every span nests in the place span and a
    # self time is a span minus its children, so the layers' self times add
    # up to the traced place, which is the untraced one plus this overhead
    untraced_wall_s = (base["place_wall_s"] + again["place_wall_s"]) / 2
    overhead_pct = 100.0 * (traced["place_wall_s"] / untraced_wall_s - 1.0)
    m = {
        "stepfield.cost_calls": tracer.calls("stepfield.cost"),
        "stepfield.increase_calls": tracer.calls("stepfield.increase"),
        "stepfield.inflate_calls": tracer.calls("stepfield.inflate"),
        "stepfield.touched": tracer.touched,
        "stepfield.cost_s": tracer.total_s("stepfield.cost"),
        "stepfield.increase_s": tracer.total_s("stepfield.increase"),
        "stepfield.inflate_s": tracer.total_s("stepfield.inflate"),
        "netmodel.model_length_calls": tracer.calls("netmodel.model_length"),
        "netmodel.model_length_s": tracer.total_s("netmodel.model_length"),
        "netmodel.bb_netlength_calls": tracer.calls("netmodel.bb_netlength"),
        "netmodel.bb_netlength_s": tracer.total_s("netmodel.bb_netlength"),
        "netmodel.is_legal_s": tracer.total_s("netmodel.is_legal"),
        "placer.new_state_s": tracer.total_s("placer.new_state"),
        "placer.rounds": rounds,
        "placer.round_us_p50": 1e6 * rs[rounds // 2],
        "placer.round_us_p99": 1e6 * rs[min(rounds - 1, (99 * rounds) // 100)],
        "placer.candidates": tracer.calls("placer.candidate_score"),
        "placer.candidate_score_self_s": tracer.self_s("placer.candidate_score"),
        "placer.penalty_calls": tracer.calls("placer.penalty"),
        "placer.penalty_s": tracer.total_s("placer.penalty"),
        "placer.move_macro_s": tracer.total_s("placer.move_macro"),
        "placer.commit_s": tracer.self_s("placer.round_step"),
        "placer.accepted_moves": tracer.accepted,
        "placer.accept_ratio": tracer.accepted / rounds,
        "placer.legalize_s": tracer.total_s("placer.naive_legalize"),
        "placer.legalize_moved": tracer.legalize_moved,
        "placer.legalize_displacement": tracer.legalize_displacement,
        "placer.overlap_pct": checked["overlap_pct"],
        "io_cli.load_instance_s": tracer.total_s("io_cli.load_instance"),
        "io_cli.save_result_s": tracer.total_s("io_cli.save_result"),
        "io_cli.check_s": check_s,
        "io_cli.place_self_s": tracer.self_s("io_cli.place"),
        "io_cli.stats_bytes": checked["stats_bytes"],
        "io_cli.result_bytes": checked["result_bytes"],
        "trace_overhead_pct": overhead_pct,
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    # the c figures exist only where the C core is built, so they stay in
    # "replay" and the printed lines
    m["stepfield.replay_cost_ns.py"] = replays["py"]["cost_ns"]
    m["stepfield.replay_increase_ns.py"] = replays["py"]["increase_ns"]
    return {
        "problems": problems,
        "metrics": m,
        "untraced_place_wall_s": untraced_wall_s,
        "traced_place_wall_s": traced["place_wall_s"],
        "layers_self_s": sum(layer_self.values()),
        "result_sha256": checked["result_sha256"],
        "stats_sha256": checked["stats_sha256"],
        "field_backend": tracer.stream.backend,
        "replay": replays,
    }


def identity() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "field_backend": "c" if HAVE_C_CORE else "py",
        "have_c_core": HAVE_C_CORE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(job_path: str, out_path: str, t_spawn: str) -> int:
    with open(job_path) as fp:
        job = json.load(fp)
    job["t_spawn"] = float(t_spawn)
    run = {"setup": setup_probe, "place": place_job, "trace": trace_job}[job["mode"]]
    try:
        out = run(job)
    except Exception as e:  # a crash of the program is a failed operation
        traceback.print_exc()
        out = {"problems": [f"{job['mode']} raised {type(e).__name__}: {e}"]}
    out["identity"] = identity()
    with open(out_path, "w") as fp:
        json.dump(out, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
