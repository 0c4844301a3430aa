"""Tiny-size smoke test of the benchmark: every metric is emitted with its unit.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

# metrics printed by the untraced run; fail_rate and overlap_pct are zero on a
# correct, converged placement, so they are printed for people but are not
# BENCHMARK.json end-to-end metrics (the result's failed/attempted carry
# fail_rate, and placer.overlap_pct is a per-layer metric)
END_TO_END = {
    "setup_s": "s",
    "place_s": "s",
    "rounds_per_s": "rounds/s",
    "final_hpwl": "area_units",
    "peak_rss_mb": "MiB",
    "fail_rate": "failed/attempted",
    "overlap_pct": "%",
}

PER_LAYER = {
    **{f"stepfield.{n}_calls": "count" for n in ("cost", "increase", "inflate")},
    "stepfield.touched": "count",
    **{f"stepfield.{n}_s": "s" for n in ("cost", "increase", "inflate")},
    "stepfield.replay_cost_ns.py": "ns",
    "stepfield.replay_increase_ns.py": "ns",
    "netmodel.model_length_calls": "count",
    "netmodel.model_length_s": "s",
    "netmodel.bb_netlength_calls": "count",
    "netmodel.bb_netlength_s": "s",
    "netmodel.is_legal_s": "s",
    "placer.new_state_s": "s",
    "placer.rounds": "count",
    "placer.round_us_p50": "us",
    "placer.round_us_p99": "us",
    "placer.candidates": "count",
    "placer.candidate_score_self_s": "s",
    "placer.penalty_calls": "count",
    "placer.penalty_s": "s",
    "placer.move_macro_s": "s",
    "placer.commit_s": "s",
    "placer.accepted_moves": "count",
    "placer.accept_ratio": "ratio",
    "placer.legalize_s": "s",
    "placer.legalize_moved": "count",
    "placer.legalize_displacement": "area_units",
    "placer.overlap_pct": "%",
    "io_cli.load_instance_s": "s",
    "io_cli.save_result_s": "s",
    "io_cli.check_s": "s",
    "io_cli.place_self_s": "s",
    "io_cli.stats_bytes": "B",
    "io_cli.result_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in ("io_cli", "placer", "netmodel", "stepfield")},
    "trace_overhead_pct": "%",
}


ARGS = ["--workload", "small-long", "--seed", "3", "--seconds", "1"]


@pytest.fixture
def tiny_bench(monkeypatch, capfd):
    """Runs ``run.main`` in this process on a 20-round ``small-long``; the
    workers take the round count from their job file.  Returns the exit code
    and standard output."""
    short = dataclasses.replace(workloads.WORKLOADS["small-long"], rounds=20)
    monkeypatch.setitem(workloads.WORKLOADS, "small-long", short)
    sigterm = signal.getsignal(signal.SIGTERM)

    def bench(trace):
        try:
            code = run.main(ARGS + ["--trace", str(trace)])
        finally:
            signal.signal(signal.SIGTERM, sigterm)
        return code, capfd.readouterr().out

    return bench


def printed_units(stdout):
    out = {}
    for line in stdout.splitlines()[:-1]:
        if line and not line.startswith("#"):
            name, _, unit = line.split(" ", 2)[:3]
            out[name] = unit.split(" ", 1)[0]
    return out


def result_line(stdout):
    res = json.loads(stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    return res


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def test_untraced_run_emits_every_end_to_end_metric(tiny_bench):
    code, stdout = tiny_bench(0)
    assert code == 0
    res = result_line(stdout)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = printed_units(stdout)
    for name, unit in END_TO_END.items():
        assert printed.get(name) == unit, name
    assert declared.items() <= END_TO_END.items()


def test_traced_run_emits_every_per_layer_metric(tiny_bench):
    code, stdout = tiny_bench(1)
    assert code == 0
    res = result_line(stdout)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert declared == PER_LAYER
    m = {k: v["value"] for k, v in res["metrics"].items()}
    rounds = m["placer.rounds"]
    assert m["placer.candidates"] == 9 * rounds
    assert m["stepfield.inflate_calls"] == rounds


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
