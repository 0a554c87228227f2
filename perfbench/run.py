"""Repository benchmark: index build, BM25 top-k and reference search.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {build,bm25,search} --seed N \\
        --seconds S --trace {0,1}

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
workloads themselves are described in ``perfbench/workloads.py``.  Ray is
started once per run with ``num_cpus=4`` (the build's actor pools need at
least 3 CPUs).  The corpus and query sets come from ``--seed`` only
(``perfbench/corpus.py``); everything the run writes goes under
``.bench_cache/`` in the repository root.

Standard output ends with two JSON lines: a record of the run (the
workload's named metrics with sample counts, host and corpus facts, the
source digest) and then the result line
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Logs go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".bench_cache")
RAY_CPUS = 4
DEFAULT_DOCS = 5000
TIMEOUT_S = 160.0


def _metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics declared
    in ``BENCHMARK.json``, in declaration order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ----------------------------------------------------------------------
# Ray session
# ----------------------------------------------------------------------

def start_ray(tmp: str) -> float:
    """``ray.init`` with the workers able to import this checkout; returns
    its wall time."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    import logging

    import ray

    kwargs = dict(num_cpus=RAY_CPUS, include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=400 * 1024 * 1024)
    # unix socket paths are limited to 107 bytes; a deep checkout keeps
    # Ray's default session directory
    probe = os.path.join(tmp, "session_2026-01-01_00-00-00_000000_" + "9" * 7,
                         "sockets", "plasma_store")
    if len(probe) < 100:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    t0 = time.perf_counter()
    ray.init(**kwargs)
    init_s = time.perf_counter() - t0
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return init_s


def spin_effective_cores(width: int = RAY_CPUS, n: int = 2_000_000) -> float:
    """Same-window host probe: a pure-register spin loop, one at a time and
    then ``width`` at once; cores the host actually delivered."""
    import ray

    @ray.remote(num_cpus=1)
    def spin(k: int) -> float:
        t0 = time.perf_counter()
        x = 0
        for _ in range(k):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        return time.perf_counter() - t0

    ray.get([spin.remote(n) for _ in range(width)])
    base = min(ray.get(spin.remote(n)) for _ in range(3))
    ts = ray.get([spin.remote(n) for _ in range(width)])
    return width * base / (sum(ts) / len(ts))


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

def _pct(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    s = sorted(xs)
    if len(s) == 1:
        return s[0]
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(run, init_s: float) -> dict[str, float]:
    return {
        "setup_s": init_s + statistics.median(run.setup_walls),
        "cpu_ms_per_op": 1e3 * statistics.median(run.op_cpu),
        "rss_mb": run.rss_mb,
        "index_bytes_per_input_byte": run.index_bytes / run.input_bytes,
    }


def named(run, workload: str, e2e: dict) -> dict:
    """The workload's figures under their descriptive names, with the
    number of samples each rests on.  Wall latency and throughput are
    reported here but carry no bound (see README.md)."""
    lat = [t for v in run.lat.values() for t in v]
    ops = len(lat)
    out = {"p50_ms": 1e3 * statistics.median(lat) if lat else None,
           **e2e,
           "failed_ratio": run.failed / max(1, run.attempted),
           "zero_hit_ratio": run.zero_hits / max(1, ops)}
    if workload == "build":
        out["build_docs_per_s"] = run.n_urls / statistics.median(run.build_walls)
        out["build_walls_s"] = run.build_walls
        return out
    for kind, xs in sorted(run.lat.items()):
        p95 = _pct(xs, 95)
        out[f"{kind}_p50_ms"] = 1e3 * statistics.median(xs)
        out[f"{kind}_p95_ms"] = 1e3 * p95
        out[f"{kind}_n"] = len(xs)
        out[f"{kind}_n_beyond_p95"] = sum(1 for x in xs if x > p95)
    key = "bm25_qps" if workload == "bm25" else "search_ops_per_s"
    out[key] = ops / run.measure_wall
    if workload == "bm25":
        out["bm25_exhaustive_share"] = run.bm25_dense_share
        out["bm25_wand_share"] = 1 - run.bm25_dense_share
    return out


def source_facts() -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    engine's sources either way."""
    h = hashlib.blake2b(digest_size=12)
    src = os.path.join(ROOT, "search_engine_ray")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                h.update(os.path.relpath(os.path.join(d, f), ROOT).encode())
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_digest": h.hexdigest()}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def _watchdog(timeout_s: float) -> threading.Timer:
    """A hung build or actor pool must fail the run, not stall it."""
    def fire():
        from perfbench import procs

        print(f"TIMEOUT: run exceeded {timeout_s:.0f} s; killing its "
              "processes", file=sys.stderr, flush=True)
        procs.kill_all(procs.descendants(os.getpid()))
        os._exit(3)

    t = threading.Timer(timeout_s, fire)
    t.daemon = True
    t.start()
    return t


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("build", "bm25", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DEFAULT_DOCS,
                    help="corpus size (the self-test uses a tiny one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    watchdog = _watchdog(TIMEOUT_S)
    try:
        import search_engine_ray  # noqa: F401
        units = _metric_units("per_layer" if args.trace else "end_to_end")
    except (ImportError, OSError) as exc:
        print(f"cannot run: {exc!r} (run from the repository root)",
              file=sys.stderr)
        return 2
    from perfbench import corpus, procs, workloads

    pages_path, pages = corpus.load_pages(CACHE, args.seed, args.docs)
    profile = corpus.cached_df_profile(pages_path, pages)
    work_dir = os.path.join(CACHE, f"run-{os.getpid()}")
    ray_tmp = os.path.join(CACHE, f"ray-{os.getpid()}")
    run = workloads.Run(work_dir, pages_path, pages, args.seed, args.seconds,
                        bool(args.trace))
    import pyarrow
    import ray

    status = 0
    try:
        init_s = start_ray(ray_tmp)
        spin = spin_effective_cores()
        workloads.log(f"ray.init took {init_s:.1f} s; spin probe done")
        workloads.WORKLOADS[args.workload](run)
        workloads.log("workload done")
        env = {"nproc": len(os.sched_getaffinity(0)),
               "cpu_count": os.cpu_count(), "ray_cpus": RAY_CPUS,
               "ray_init_s": init_s, "spin_effective_cores": spin,
               "arrow_cpu_count": pyarrow.cpu_count()}
    except Exception:  # noqa: BLE001 — report, then still clean up
        traceback.print_exc()
        status = 1
    finally:
        started = procs.descendants(os.getpid())
        try:
            ray.shutdown()
        finally:
            left = procs.reap(started, 20.0)
            if left:
                print(f"killing {len(left)} processes that outlived "
                      "ray.shutdown", file=sys.stderr)
            procs.kill_all(left)
            shutil.rmtree(work_dir, ignore_errors=True)
            shutil.rmtree(ray_tmp, ignore_errors=True)
    watchdog.cancel()
    workloads.log("processes stopped")
    if status:
        return status

    e2e = end_to_end(run, init_s)
    if args.trace:
        if run.trace_violations:
            run.fail(f"{run.trace_violations} spans do not fit their parent")
        for name, tracer in run.tracers.items():
            path = os.path.join(CACHE, f"trace-{args.workload}-{name}-"
                                       f"s{args.seed}.json")
            tracer.dump(path)
            print(f"spans written to {path}", file=sys.stderr)
        run.layers["query.zero_hit_ratio"] = \
            run.zero_hits / max(1, sum(map(len, run.lat.values())))
        run.layers["failed_ratio"] = run.failed / max(1, run.attempted)
        # layers a workload does not exercise read 0
        values = {k: float(run.layers.get(k, 0.0)) for k in units}
    else:
        values = e2e
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "named": named(run, args.workload, e2e),
              "env": env, **source_facts(), "corpus": profile,
              "failures": run.failures}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
