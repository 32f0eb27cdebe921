"""Run one round of a workload in a fresh process and print its raw results as one JSON line.

    python3 bench/worker.py <workload> setup      # import, report readiness, exit
    python3 bench/worker.py <workload> <config>   # config is a JSON object

The worker imports the program from ``src/`` of the checkout it sits in, notes
the moment it could issue its first item, then builds its inputs and runs a
closed loop with one client over exactly ``items`` items, drawn from
``random.Random(seed)``.  Only the program
call of an item is timed; input generation and checks happen between items.
"""

import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# what each workload imports before it counts itself ready
SETUP_IMPORTS = {
    "symbol-small": "redei",
    "ranks-large": "redei.cli",
    "oracle-check": "redei",
}

# metric stem -> (module, function) whose lru_cache statistics are read
CACHES = {
    "arith.factor": ("arith", "_factor_abs"),
    "conic.solve": ("conic", "_solve_cached"),
    "symbol.witness": ("symbol", "minimally_ramified_witness"),
    "quadfield.primes_above": ("quadfield", "primes_above"),
    "redeimatrix.build_R4": ("redeimatrix", "build_R4"),
    "redeimatrix.build_R8": ("redeimatrix", "build_R8"),
    "oracle.enumerate_classes": ("oracle", "enumerate_classes"),
}


def cache_functions() -> dict:
    """The cached functions as the program defines them, before any wrapping."""
    out = {}
    for stem, (module, name) in CACHES.items():
        fn = getattr(sys.modules.get(f"redei.{module}"), name, None)
        out[stem] = fn if hasattr(fn, "cache_info") else None
    return out


def cache_stats(functions: dict) -> dict:
    out = {}
    for stem, fn in functions.items():
        if fn is None:
            out[stem] = {"absent": True}
            continue
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[stem] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "hit_ratio": info.hits / lookups if lookups else 0.0,
        }
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(workload, cfg, tracer):
    run = workload.run if tracer is None else tracer.wrap(workload.run, "bench.item")
    items_ms, rows, errors = [], [], []
    failed = r4_positive = 0
    clock = time.perf_counter
    for i in range(cfg["items"]):
        inp = workload.next_input(i)
        if tracer is not None:
            tracer.item = i
        problem = row = None
        t0 = clock()
        try:
            out = run(inp)
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            problem = f"item {i}: {exc!r}"
        items_ms.append((clock() - t0) * 1000)
        if problem is None:
            try:
                row, problem = workload.check(inp, out)
            except Exception as exc:
                problem = f"item {i}: check raised {exc!r}"
        if problem is not None:
            failed += 1
            if len(errors) < 10:
                errors.append(problem)
        elif workload.ranked and row[2] >= 1:
            r4_positive += 1
        rows.append(row)
    return {
        "items_ms": items_ms,
        "failed": failed,
        "errors": errors,
        "rows": rows,
        "r4_positive": r4_positive,
    }


def main() -> int:
    name, config = sys.argv[1], sys.argv[2]
    __import__(SETUP_IMPORTS[name])
    ready = time.monotonic()
    if config == "setup":
        print(f'{{"ready": {ready!r}}}')
        return 0

    import json

    import tracing
    import workloads

    cfg = json.loads(config)
    workload = workloads.WORKLOADS[name](cfg["seed"], cfg["items"])
    caches = cache_functions()
    tracer = None
    loop = run_loop
    if cfg["trace"]:
        tracer = tracing.Tracer(cfg["span_cap"])
        tracer.install()
        loop = tracer.wrap(run_loop, "bench.run")
    result = loop(workload, cfg, tracer)
    result["ready"] = ready
    result["seed"] = cfg["seed"]
    result["caches"] = cache_stats(caches)
    result["peak_rss_mb"] = peak_rss_mb()
    result["candidates"] = getattr(workload, "candidates", 0)
    if tracer is not None:
        tracer.write_spans(cfg["spans_path"])
        result["trace"] = tracer.summary()
        result["trace_skipped"] = tracer.skipped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
