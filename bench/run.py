"""Benchmark of the redei library: three seeded closed-loop workloads, one client each.

    python3 bench/run.py                                  # all workloads, untraced
    python3 bench/run.py --workload ranks-large --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload oracle-check --trace 1

A run repeats rounds for --seconds: each round is a fresh worker process
(bench/worker.py) that imports the program from src/ and runs the workload's
fixed number of items from cold caches.  Round r of seed s draws its items from
random.Random(f"{s}:{r}").  With --trace 0 it prints the end-to-end metrics,
over the items of all rounds; with --trace 1 it runs each round untraced and
then again with timing wrappers on every layer, and prints the per-layer
metrics, each the median over the traced rounds.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full record
(run metadata, cache statistics, errors, digest) goes to bench/out/, and a
traced run also writes its spans there.  The exit code is 0 when every check
passed, 1 when a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
from workloads import DEFAULT_SEED, PINNED_DIGESTS, ROUND_ITEMS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 9  # fresh processes whose set-up time is measured, at least, per untraced run
MIN_ROUNDS = 3  # untraced rounds per run, even when they take longer than --seconds
SPAN_CAP = 50_000  # raw spans kept and written per traced round
ROUND_TIMEOUT = 120

LAYERS = (*tracing.LAYERS, "bench")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_spec() -> dict:
    """Metric names and units: the end_to_end and per_layer lists of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def as_metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "REDEI_FACTOR_BOUND": os.environ.get("REDEI_FACTOR_BOUND"),
    }


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(workload: str, config, timeout: float) -> dict:
    """Run one worker to completion; its set-up time is spawn-to-ready."""
    env = dict(os.environ)
    env.pop("REDEI_FACTOR_BOUND", None)  # a set bound changes what factor does
    arg = config if isinstance(config, str) else json.dumps(config)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, arg],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def worker_config(workload: str, seed: int, round_: int, trace: int) -> dict:
    cfg = {"workload": workload, "seed": f"{seed}:{round_}", "items": ROUND_ITEMS[workload], "trace": trace}
    if trace:
        cfg["span_cap"] = SPAN_CAP
        cfg["spans_path"] = os.path.join(OUT, f"{workload}.spans.jsonl")
    return cfg


def digest_of(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def rounds(workload: str, seed: int, seconds: float, traces: tuple, least: int) -> list:
    """Run rounds 0, 1, ... until the next would end past --seconds, and at least
    `least` of them; each round runs once per entry of traces.  Returns one list
    of worker results per entry of traces."""
    out = [[] for _ in traces]
    start = time.monotonic()
    cycles = []
    while len(cycles) < least or time.monotonic() - start + statistics.median(cycles) <= seconds:
        t0 = time.monotonic()
        for results, trace in zip(out, traces):
            results.append(spawn(workload, worker_config(workload, seed, len(cycles), trace), ROUND_TIMEOUT))
        cycles.append(time.monotonic() - t0)
    return out


def end_to_end(workload: str, seed: int, seconds: float, units: dict) -> dict:
    spawn(workload, "setup", 60)  # compiles bytecode; not measured
    (runs,) = rounds(workload, seed, seconds, (0,), MIN_ROUNDS)
    setups = [r["setup_s"] for r in runs]
    setups += [spawn(workload, "setup", 60)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    items_ms = [t for r in runs for t in r["items_ms"]]
    values = {
        "items_per_s": 1000 * len(items_ms) / sum(items_ms),
        "item_ms_p50": statistics.median(items_ms),
        "item_ms_p90": statistics.quantiles(items_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {"runs": runs, "metrics": as_metrics(values, units), "setup_samples_s": setups}


def per_layer(workload: str, seed: int, seconds: float, units: dict) -> dict:
    refs, traced = rounds(workload, seed, seconds, (0, 1), 1)
    values = {}
    for r in traced:
        for stem, stats in r["caches"].items():
            r["trace"][f"{stem}.cache_hit_ratio"] = -1.0 if stats.get("absent") else stats["hit_ratio"]
        r["trace"]["symbol.accept_ratio"] = len(r["items_ms"]) / r["candidates"] if r["candidates"] else 0.0
        r["trace"]["redeimatrix.r4_positive_share"] = r["r4_positive"] / len(r["items_ms"])
    for key in traced[0]["trace"]:
        values[key] = statistics.median(r["trace"][key] for r in traced)
    values["trace.overhead_ratio"] = statistics.median(
        sum(t["items_ms"]) / sum(r["items_ms"]) for r, t in zip(refs, traced)
    )
    values["trace.items"] = len(traced[0]["items_ms"])
    wall = values["trace.wall_s"]
    return {
        "runs": refs + traced,
        "metrics": as_metrics(values, units),
        "self_share": {layer: values[f"{layer}.self_s"] / wall for layer in LAYERS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    if trace:
        out = per_layer(workload, seed, seconds, spec["per_layer"])
    else:
        out = end_to_end(workload, seed, seconds, spec["end_to_end"])
    attempted = sum(len(r["items_ms"]) for r in out["runs"])
    failed = sum(r["failed"] for r in out["runs"])
    errors = [e for r in out["runs"] for e in r["errors"]]
    digests = [digest_of(r["rows"]) for r in out["runs"]]
    pinned = PINNED_DIGESTS[workload]
    for r, digest in zip(out["runs"], digests):
        if seed == DEFAULT_SEED and r["seed"] == f"{seed}:0" and digest != pinned:
            errors.append(f"digest of round 0 is {digest}, pinned {pinned}")
            failed = max(failed, 1)
    out.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        errors=errors,
        digests=digests,
        digest_pinned=seed == DEFAULT_SEED,
        caches=out["runs"][-1]["caches"],
    )
    return out


def report(out: dict):
    runs = out["runs"]
    print(
        f"{out['workload']} seed {out['seed']}: {out['attempted']} items attempted, {out['failed']} failed"
        f" in {len(runs)} rounds of {len(runs[-1]['items_ms'])}"
    )
    for error in out["errors"]:
        print(f"  FAILED {error}")
    metrics = out["metrics"]
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':42s} {out['fail_ratio']:.6g} ratio")
    if out["trace"]:
        shares = sorted(out["self_share"].items(), key=lambda kv: -kv[1])
        print("  self-time share of the traced wall time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))


def save(out: dict, meta: dict):
    record = {k: v for k, v in out.items() if k != "runs"}
    record["meta"] = meta
    record["setup_s_per_round"] = [r["setup_s"] for r in out["runs"]]
    record["items_s_per_round"] = [sum(r["items_ms"]) / 1000 for r in out["runs"]]
    record["peak_rss_mb_per_round"] = [r["peak_rss_mb"] for r in out["runs"]]
    record["candidates"] = out["runs"][-1]["candidates"]
    record["trace_skipped"] = out["runs"][-1].get("trace_skipped", [])
    path = os.path.join(OUT, f"{out['workload']}-seed{out['seed']}-trace{out['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"  record: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "redei", "__init__.py")):
        print(f"bench: no redei package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    meta = run_metadata()
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = []
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace, spec)
            report(out)
            save(out, meta)
            outs.append(out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{k}": m for o in outs for k, m in o["metrics"].items()}
    failed = sum(o["failed"] for o in outs)
    summary = {
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in outs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
