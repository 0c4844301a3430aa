"""stepplace benchmark: run one workload and print every metric with its unit.

    python3 perfbench/run.py --workload small-long --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it measures the package under
``src/`` and never builds the optional C field core, so a plain checkout
measures the numpy backend.  Each ``place`` runs in a process of its own
(single thread: ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``), in a closed loop,
one after the other.  Inputs depend only on ``--workload`` and ``--seed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` places the first
instance untraced, traced and untraced again and prints the per-layer
metrics.  ``place_s`` and ``rounds_per_s`` are at a reference machine speed
(see ``worker.slowness``); the printed lines add their wall values.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
Files go to ``perfbench/_work/``; ``record.json`` there holds the run's
identity, file hashes and raw per-placement values, and ``pins.json`` the
hashes and exact work counts per source tree, field backend and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")

DEADLINE_S = 170.0  # the whole run, so it exits well within 180 s
SETUP_PROBES = 8  # set-up-only processes per untraced run, besides the placements
REPLAY_CAP = 20_000  # field operations recorded for the replay probe

END_TO_END = {
    "setup_s": "s",
    "place_s": "s",
    "rounds_per_s": "rounds/s",
    "final_hpwl": "area_units",
    "peak_rss_mb": "MiB",
}

# must not change between runs of one commit and seed
EXACT_COUNTS = (
    "placer.rounds",
    "placer.candidates",
    "placer.accepted_moves",
    "placer.legalize_moved",
    "stepfield.cost_calls",
    "stepfield.increase_calls",
    "stepfield.inflate_calls",
    "stepfield.touched",
)


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def trimmed_mean(values) -> float:
    """Mean of the samples left after dropping the lowest and the highest
    fifth.  The machine runs in slow and fast phases; a median jumps between
    the two, a trimmed mean moves smoothly."""
    v = sorted(values)
    k = len(v) // 5
    return statistics.fmean(v[k:len(v) - k])


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if "_ns." in name:
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("displacement"):
        return "area_units"
    return "count"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fp:
                for line in fp:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_sha256() -> str:
    """SHA-256 over the package sources under ``src/`` and the workload
    definitions: two runs with the same value place the same instances with
    the same code."""
    h = hashlib.sha256()
    files = []
    for d, dirs, names in os.walk(SRC):
        dirs[:] = sorted(x for x in dirs
                         if x != "__pycache__" and not x.endswith(".egg-info"))
        files += [os.path.join(d, n) for n in names if n.endswith((".py", ".c"))]
    files.append(os.path.join(HERE, "workloads.py"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fp:
            h.update(fp.read() + b"\0")
    return h.hexdigest()


def run_worker(job: dict, tag: str, run_dir: str, deadline: float) -> dict:
    job_path = os.path.join(run_dir, tag + ".job.json")
    out_path = os.path.join(run_dir, tag + ".out.json")
    with open(job_path, "w") as fp:
        json.dump(job, fp)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p
    )
    env.pop("STEPPLACE_OUT_DIR", None)
    t_spawn = now()
    proc = subprocess.Popen(
        [sys.executable, WORKER, job_path, out_path, repr(t_spawn)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: out of time after {DEADLINE_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{tag}: worker exited {proc.returncode}")
    with open(out_path) as fp:
        return json.load(fp)


def check_pins(pins: dict, key: str, code: str, values: dict) -> tuple[list, list]:
    """Compare ``values`` with the pins of the same placement ``key``.

    ``code`` names the source tree and field backend.  Returns two lists:
    values that differ from an earlier run of the same code (the program is
    not deterministic: a failed self-check), and values that differ from the
    code of the previous run of this placement (its behaviour changed; only
    reported).  The first value seen for each code is kept.
    """
    entry = pins.setdefault(key, {"last": code, "by_code": {}})
    known = entry["by_code"].setdefault(code, {})
    previous = entry["by_code"].get(entry["last"], {}) if entry["last"] != code else {}
    unsteady = [
        f"{name} is {v!r}, an earlier run of this code had {known[name]!r}"
        for name, v in values.items()
        if name in known and known[name] != v
    ]
    changed = [
        f"{name} differs from the run of code {entry['last']}"
        for name, v in values.items()
        if name in previous and previous[name] != v
    ]
    for name, v in values.items():
        known.setdefault(name, v)
    entry["last"] = code
    return unsteady, changed


def load_pins() -> dict:
    try:
        with open(os.path.join(WORK, "pins.json")) as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def save_pins(pins: dict) -> None:
    path = os.path.join(WORK, "pins.json")
    with open(path + ".tmp", "w") as fp:
        json.dump(pins, fp, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def bench(args: argparse.Namespace) -> dict:
    if not os.path.isfile(os.path.join(SRC, "stepplace", "__init__.py")):
        raise BenchError(f"no stepplace package under {SRC}")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, instance_seed, write_instance

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    rounds = w.rounds
    reps = 1 if args.trace else max(1, round(args.seconds / w.rep_s))
    run_dir = os.path.join(WORK, f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    deadline = now() + DEADLINE_S

    jobs = []
    for rep in range(reps):
        s = instance_seed(args.seed, rep)
        inst = os.path.join(run_dir, f"instance-{rep}.txt")
        jobs.append({
            "instance": inst,
            "total_macro_area": write_instance(w, s, inst),
            "result": os.path.join(run_dir, f"result-{rep}.txt"),
            "stats": os.path.join(run_dir, f"stats-{rep}.csv"),
            "rounds": rounds,
            "seed": s,
            "grid_p": w.grid_p,
            "replay_cap": REPLAY_CAP,
        })
    pin_base = f"{w.name}|seed={args.seed}|rounds={rounds}"
    source = source_sha256()
    pins = load_pins()
    problems: list[str] = []
    changed: list[str] = []

    def pin(rep: int, out: dict, values: dict) -> list[str]:
        code = f"{source[:16]}|{out['identity']['field_backend']}"
        unsteady, diff = check_pins(pins, f"{pin_base}|rep={rep}", code, {
            "result_sha256": out["result_sha256"],
            "stats_sha256": out["stats_sha256"],
            **values,
        })
        changed.extend(f"placement {rep}: {d}" for d in diff)
        return [f"placement {rep}: {u}" for u in unsteady]

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "commit": git_commit(), "source_sha256": source,
        "placements": [],
    }

    if args.trace:
        out = run_worker(dict(jobs[0], mode="trace"), "trace", run_dir, deadline)
        problems += out["problems"]
        if "metrics" not in out:
            raise BenchError("traced placement failed: " + "; ".join(problems))
        metrics = out["metrics"]
        if not problems:
            problems += pin(0, out, {k: metrics[k] for k in EXACT_COUNTS})
            if metrics["placer.rounds"] != rounds:
                problems.append("round count differs from the configured one")
            if metrics["stepfield.inflate_calls"] != rounds:
                problems.append("not one inflate per round")
        record["identity"] = out["identity"]
        record["placements"].append(out)
        # the pins and counts are self-checks of the benchmark, not failed
        # operations of the program
        attempted, failed = 1, 1 if out["problems"] else 0
        units = {k: layer_unit(k) for k in metrics}
    else:
        setup = []
        for i in range(SETUP_PROBES):
            job = dict(jobs[i % reps], mode="setup")
            out = run_worker(job, f"setup-{i}", run_dir, deadline)
            if "setup_s" not in out:
                raise BenchError("set-up failed: " + "; ".join(out["problems"]))
            setup.append(out)
        placed = []
        failed = 0
        for rep, job in enumerate(jobs):
            out = run_worker(dict(job, mode="place"), f"place-{rep}", run_dir, deadline)
            record["identity"] = out["identity"]
            record["placements"].append(out)
            if out["problems"]:
                failed += 1
                problems += [f"placement {rep}: {p}" for p in out["problems"]]
            else:
                problems += pin(rep, out, {})
                placed.append(out)
                setup.append(out)
        attempted = reps
        if not placed:
            raise BenchError("no placement succeeded: " + "; ".join(problems))
        metrics = {"setup_s": trimmed_mean(p["setup_s"] for p in setup)}
        for prefix in ("", "wall_"):
            metrics[prefix + "place_s"] = trimmed_mean(
                p[f"place_{prefix}s"] for p in placed)
            metrics[prefix + "rounds_per_s"] = trimmed_mean(
                r for p in placed for r in p[f"window_{prefix}rounds_per_s"])
        metrics["final_hpwl"] = statistics.fmean(p["final_hpwl"] for p in placed)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in placed)
        units = dict(END_TO_END)
        record["setup_probes"] = setup[:SETUP_PROBES]
        record["slowness"] = statistics.fmean(
            x for p in placed for x in p["slowness"])
        record["fail_rate"] = failed / attempted
        record["overlap_pct"] = statistics.fmean(p["overlap_pct"] for p in placed)

    save_pins(pins)
    record.update(problems=problems, behaviour_changed=changed,
                  attempted=attempted, failed=failed, metrics=metrics)
    with open(os.path.join(run_dir, "record.json"), "w") as fp:
        json.dump(record, fp, indent=1)
    return {
        "record": record,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def report(record: dict, result: dict) -> None:
    ident = record["identity"]
    print(f"# stepplace benchmark: workload {record['workload']}, seed "
          f"{record['seed']}, trace {record['trace']}, {record['rounds']} rounds")
    print(f"# field backend {ident['field_backend']}, python {ident['python']}, "
          f"numpy {ident['numpy']}, nproc {ident['nproc']}, cpu {ident['cpu']}, "
          f"commit {record['commit']}, source sha256 {record['source_sha256']}")
    for i, p in enumerate(record["placements"]):
        if "result_sha256" in p:
            print(f"# placement {i}: result sha256 {p['result_sha256']}, "
                  f"stats sha256 {p['stats_sha256']}")
    for backend, r in record["placements"][0].get("replay", {}).items():
        print(f"# field replay on {backend}: {r['cost_ops']} cost at "
              f"{r['cost_ns']:.0f} ns, {r['increase_ops']} increase at "
              f"{r['increase_ns']:.0f} ns, costs equal to live: {r['equal']}")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")
    for change in record["behaviour_changed"]:
        print(f"# behaviour_changed: {change}")
    wall = record["metrics"]
    for name, m in result["metrics"].items():
        extra = f" (wall {wall['wall_' + name]!r})" if "wall_" + name in wall else ""
        print(f"{name} {m['value']!r} {m['unit']}{extra}")
    if not record["trace"]:
        print(f"# machine slowness against the reference speed: "
              f"{record['slowness']:.3f} (mean of the speed probes)")
        print(f"fail_rate {record['fail_rate']!r} failed/attempted "
              f"({result['failed']} of {result['attempted']})")
        print(f"overlap_pct {record['overlap_pct']!r} % (before legalization)")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets how many placements an untraced run makes; "
                             "the work never depends on the machine's speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = bench(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(out["record"], out["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
