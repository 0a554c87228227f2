"""The benchmark's three workloads: set-up, closed-loop measurement, checks.

One process, one closed-loop client: the next operation starts when the
previous one returned.  Every workload sets up several times (a fresh,
non-resumed ``build_index`` plus opening the serving handle; on ``build``
the measured builds are the set-ups); ``setup_s`` uses the median of
those, and the repeats double as the build-determinism check.

- ``build``: the write path.  The measured operations ARE the builds.
- ``bm25``: ``IndexReader(preload=True).search(scorer="bm25", limit=10,
  with_snippets=False)`` on a 2-partition index, so that queries with
  several head terms cross ``bm25_topk``'s density cut-over to the
  exhaustive kernel while the rest take block-max WAND; every answer is
  checked against the exhaustive scorer, and its match count against the
  generator's own page texts.
- ``search``: the reference ``GET /api/search`` mix through
  ``ScatterIndex(preload=False)``: reference-scorer searches with snippets
  plus ``ScatterIndex.phrase``; sampled answers are checked against the
  in-process ``IndexReader`` and against ``phrase_counts`` over the
  generator's own page texts.

A traced run (``--trace 1``) additionally replays the build in-process and
repeats the query pass with spans on, for the per-layer figures.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import os
import shutil
import statistics
import sys
import time

from . import corpus, procs
from .trace import Tracer, patched, replay_build, tree_bytes

SETUP_REPEATS = 3
NUM_PARTITIONS = 6
# ~2500 docs per partition: two head terms reach bm25_topk's 4096-posting
# cut-over to the exhaustive kernel (six partitions never would)
BM25_PARTITIONS = 2
MIN_BUILDS = 3
BM25_LIMIT = 10
SEARCH_LIMIT = 20
SEARCH_CHECK_EVERY = 8  # every 8th search op is re-run in-process
PHRASE_ORACLE_SAMPLES = 1
QUERY_POOL = 4096
_START = time.monotonic()


def log(msg: str) -> None:
    print(f"[{time.monotonic() - _START:6.1f} s] {msg}", file=sys.stderr,
          flush=True)


class Run:
    """State of one benchmark run: inputs, counters and collected walls."""

    def __init__(self, work_dir: str, pages_path: str, pages, seed: int,
                 seconds: float, trace: bool) -> None:
        self.work_dir = work_dir
        self.pages_path = pages_path
        self.pages = pages
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n_urls = len(set(pages["url"].to_pylist()))
        self.input_bytes = sum(len(h) for h in pages["html"].to_pylist())
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_walls: list[float] = []
        self.build_walls: list[float] = []
        self.lat: dict[str, list[float]] = {}
        self.measure_wall = 0.0
        self.zero_hits = 0
        self.digest: str | None = None
        self.index_bytes = 0
        self.rss_mb = 0.0
        self.op_cpu: list[float] = []  # CPU seconds of each measured op
        self.bm25_dense_share = 0.0  # (query, partition) pairs scored exhaustively
        self.layers: dict[str, float] = {}
        self.trace_violations = 0
        self.tracers: dict[str, Tracer] = {}

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def index_digest(index_dir: str) -> str:
    """Digest of every segment file; manifests hold wall times, so they
    are left out."""
    h = hashlib.blake2b(digest_size=16)
    for f in sorted(glob.glob(os.path.join(index_dir, "part=*", "*.parquet"))):
        h.update(os.path.relpath(f, index_dir).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.blake2b(fh.read(), digest_size=16).digest())
    return h.hexdigest()


def _build(run: Run, index_dir: str, cfg) -> None:
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index

    shutil.rmtree(index_dir, ignore_errors=True)
    run.attempted += 1
    t0 = time.perf_counter()
    pages = rd.read_parquet(run.pages_path, columns=["url", "warc_ts", "html"])
    res = build_index(pages, index_dir, cfg, num_docs_hint=run.pages.num_rows,
                      resume=False)
    run.build_walls.append(time.perf_counter() - t0)
    bad = res.n_docs != run.n_urls
    if bad:
        run.fail(f"build n_docs {res.n_docs} != {run.n_urls} distinct urls")
    digest = index_digest(index_dir)
    if run.digest is None:
        run.digest = digest
    elif digest != run.digest and not bad:
        run.fail(f"build digest {digest} != first build's {run.digest}")
    run.index_bytes = tree_bytes(index_dir)


def _setup(run: Run, cfg, open_handle, close_handle=None):
    """SETUP_REPEATS x (fresh build + open); returns (index_dir, handle)."""
    handle, prev = None, None
    for i in range(SETUP_REPEATS):
        if handle is not None and close_handle is not None:
            close_handle(handle)
        if prev is not None:
            shutil.rmtree(prev, ignore_errors=True)
        index_dir = os.path.join(run.work_dir, f"index{i}")
        _build(run, index_dir, cfg)
        t0 = time.perf_counter()
        handle = open_handle(index_dir)
        run.setup_walls.append(run.build_walls[-1] + time.perf_counter() - t0)
        prev = index_dir
    log(f"set up {SETUP_REPEATS} times")
    return index_dir, handle


def _closed_loop(run: Run, ops, do_op, servers=()) -> list:
    """Run ``do_op`` over ``ops`` (cycling) for ``run.seconds``; returns
    ``(op, answer, seconds)`` of the operations that returned.  Each
    operation's CPU time is that of this process plus the ``servers``
    processes, read from their CPU-time clocks around the call."""
    clocks = [procs.cpu_clock(p) for p in (os.getpid(), *servers)]
    done = []
    t_start = time.perf_counter()
    end = t_start + run.seconds
    for op in itertools.cycle(ops):
        if time.perf_counter() >= end:
            break
        run.attempted += 1
        c0 = sum(map(time.clock_gettime, clocks))
        t0 = time.perf_counter()
        try:
            ans = do_op(op)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            run.fail(f"op {op!r} raised {exc!r}")
            continue
        t = time.perf_counter() - t0
        run.op_cpu.append(sum(map(time.clock_gettime, clocks)) - c0)
        run.lat.setdefault(op["kind"], []).append(t)
        done.append((op, ans, t))
    run.measure_wall = time.perf_counter() - t_start
    log(f"measured {len(done)} operations")
    return done


def _config(positions: bool, parts: int = NUM_PARTITIONS):
    from search_engine_ray.config import IndexBuildConfig

    return IndexBuildConfig(num_partitions=parts, store_positions=positions)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

def run_build(run: Run) -> None:
    from search_engine_ray.pipelines.query import IndexReader

    cfg = _config(False)
    end = time.perf_counter() + run.seconds
    i = 0
    t_start = time.perf_counter()
    while i < MIN_BUILDS or time.perf_counter() < end:
        index_dir = os.path.join(run.work_dir, f"index{i}")
        # the build runs in Ray actors that exit with it: sample /proc
        with procs.CpuMeter() as meter:
            _build(run, index_dir, cfg)
        run.op_cpu.append(meter.seconds)
        t0 = time.perf_counter()
        IndexReader(index_dir)
        run.setup_walls.append(run.build_walls[-1] + time.perf_counter() - t0)
        if i:
            shutil.rmtree(os.path.join(run.work_dir, f"index{i - 1}"),
                          ignore_errors=True)
        i += 1
    run.measure_wall = time.perf_counter() - t_start
    run.rss_mb = procs.rss_mb([])
    run.lat["build"] = list(run.build_walls)
    if run.trace:
        _trace_build(run, cfg)


def _trace_build(run: Run, cfg) -> None:
    tracer = Tracer()
    info = replay_build(tracer, run.pages, os.path.join(run.work_dir, "replay"),
                        cfg)
    if index_digest(info["index_dir"]) != run.digest:
        run.fail("in-process replay built a different index than build_index")
    st = tracer.self_times()
    busy = {"extract.busy_s": st.get("extract", 0.0),
            "lemmatize.busy_s": st.get("lemmatize", 0.0),
            "segments.run_write_busy_s": st.get("segments.run_write", 0.0),
            "segments.build_busy_s": st.get("segments.build", 0.0),
            "build.finalize_s": st.get("build.finalize", 0.0)}
    wall = statistics.median(run.build_walls)
    root = next(s for s in tracer.spans if s["name"] == "build")
    run.layers.update(busy)
    run.layers.update({
        "lemmatize.tokens": info["tokens"],
        "segments.run_bytes": info["run_bytes"],
        "segments.postings": info["postings"],
        "segments.index_bytes": info["index_bytes"],
        "build.wall_s": wall,
        "build.envelope_s": wall - sum(busy.values()),
    })
    if "trace.overhead_ratio" not in run.layers:
        # the build's traced pass is the in-process replay
        run.layers["trace.overhead_ratio"] = (root["end"] - root["start"]) / wall - 1
    run.trace_violations += tracer.nesting_violations()
    run.tracers["build"] = tracer
    shutil.rmtree(os.path.join(run.work_dir, "replay"), ignore_errors=True)


# ----------------------------------------------------------------------
# bm25
# ----------------------------------------------------------------------

def run_bm25(run: Run) -> None:
    from search_engine_ray.pipelines.query import IndexReader

    cfg = _config(False, BM25_PARTITIONS)
    index_dir, ix = _setup(run, cfg, lambda d: IndexReader(d, preload=True))
    queries = [{"kind": "bm25", "query": q}
               for q in corpus.bm25_queries(run.seed, QUERY_POOL)]
    done = _closed_loop(run, queries, lambda op: ix.search(
        op["query"], scorer="bm25", limit=BM25_LIMIT, with_snippets=False))
    run.rss_mb = procs.rss_mb([])
    run.zero_hits = sum(1 for _, r, _ in done if not r.data)
    _check_bm25(run, ix, done)
    log("answers checked")
    if run.trace:
        _trace_bm25(run, index_dir, [op["query"] for op, _, _ in done])
        _trace_build(run, cfg)


def _check_bm25(run: Run, ix, done) -> None:
    """Each answer must equal the exhaustive top-k (ranks and scores), and
    its count the number of pages whose text holds every query word.  Also
    records which ``bm25_topk`` branch each (query, partition) took."""
    from search_engine_ray.stages.lemmatize import lemmas_of_query

    match_count = corpus.match_counter(run.pages)
    pairs = dense = 0
    for op, resp, _ in done:
        q = op["query"]
        lemmas = lemmas_of_query(q)
        want = ix.bm25_topk(lemmas, BM25_LIMIT, pruned=False)
        got = [(h.score, h.doc_id) for h in resp.data]
        if not resp.result or got != want:
            run.fail(f"bm25 {q!r}: top-k differs from exhaustive")
        elif resp.count != match_count(q):
            run.fail(f"bm25 {q!r}: count {resp.count} != {match_count(q)} "
                     "pages holding every word")
        for part in ix.parts:
            pairs += 1
            dense += _takes_exhaustive(ix, ix.reader(part), lemmas)
    run.bm25_dense_share = dense / max(1, pairs)


def _takes_exhaustive(ix, rd, lemmas: list[str]) -> bool:
    """``bm25_topk``'s density dispatch: a partition is scored by the
    exhaustive kernel when its summed df of the query terms reaches
    max(4096, dense_cutoff * partition docs), else by block-max WAND."""
    encs = (rd.postings(t) for t in set(lemmas) if t in ix.global_df)
    tot_df = sum(e.df for e in encs if e is not None)
    return tot_df >= max(4096, ix.dense_cutoff * len(rd.doc_ids))


def _trace_bm25(run: Run, index_dir: str, queries: list[str]) -> None:
    from search_engine_ray.pipelines.query import IndexReader
    from search_engine_ray.stages.lemmatize import lemmas_of_query

    tracer = Tracer()
    ix = IndexReader(index_dir, preload=True)
    with patched(tracer):
        _traced_searches(tracer, queries, lambda q: ix.search(
            q, scorer="bm25", limit=BM25_LIMIT, with_snippets=False))
    exhaustive = Tracer()
    with patched(exhaustive):
        for i, q in enumerate(queries):
            exhaustive.op = i
            ix.bm25_topk(lemmas_of_query(q), BM25_LIMIT, pruned=False)
    untraced = sum(run.lat.get("bm25", []))
    _query_layers(run, tracer, len(queries), untraced)
    run.layers["query.topk_exhaustive_s"] = \
        exhaustive.self_times().get("topk_exhaustive", 0.0) / max(1, len(queries))
    run.trace_violations += exhaustive.nesting_violations()


def _traced_searches(tracer: Tracer, queries, call) -> None:
    for i, q in enumerate(queries):
        tracer.op = i
        with tracer.span("search"):
            call(q)


def _query_layers(run: Run, tracer: Tracer, n: int, untraced_s: float) -> None:
    """Per-operation self times of the query layers; ``query.count_s`` is
    the rest of ``search()`` (its own self time)."""
    n = max(1, n)
    st = tracer.self_times()
    c = tracer.counts
    roots = [s for s in tracer.spans if s["name"] == "search"]
    traced_s = sum(s["end"] - s["start"] for s in roots)
    run.layers.update({
        "lemmatize.query_s": st.get("lemmatize.query", 0.0) / n,
        "query.postings_s": st.get("query.postings", 0.0) / n,
        "codec.decode_s": st.get("codec.decode", 0.0) / n,
        "query.postings_decoded": c.get("postings.decoded", 0) / n,
        "query.postings_first_touch_ratio":
            c.get("postings.first_touch", 0) / max(1, c.get("postings.calls", 0)),
        "query.topk_pruned_s": st.get("topk_pruned", 0.0) / n,
        "query.count_s": st.get("search", 0.0) / n,
        "query.doc_meta_s": st.get("query.doc_meta", 0.0) / n,
        "snippets.s": st.get("snippets", 0.0) / n,
        "snippets.hits": c.get("snippets.hits", 0) / n,
        "query.search_s": traced_s / n,
        "trace.overhead_ratio": traced_s / untraced_s - 1 if untraced_s else 0.0,
    })
    run.trace_violations += tracer.nesting_violations()
    run.tracers["query"] = tracer


# ----------------------------------------------------------------------
# search (reference API through the scatter/gather pool)
# ----------------------------------------------------------------------

def _search_call(target, op):
    return target.search(op["query"], site=op["site"], limit=SEARCH_LIMIT,
                         offset=op["offset"], scorer="reference",
                         with_snippets=True)


def _hits(resp) -> tuple:
    return (resp.result, resp.count,
            [(h.doc_id, h.score, h.url, h.site, h.site_name, h.path, h.title,
              h.snippet) for h in resp.data])


def _phrase_pairs(table) -> list:
    return sorted(zip(table["doc_id"].to_pylist(),
                      table["n_matches"].to_pylist()))


def run_search(run: Run) -> None:
    import ray

    from search_engine_ray.pipelines.query import IndexReader
    from search_engine_ray.pipelines.scatter import ScatterIndex

    cfg = _config(True)
    index_dir, sc = _setup(run, cfg,
                           lambda d: ScatterIndex(d, preload=False),
                           lambda h: h.shutdown())
    try:
        ops = corpus.search_ops(run.seed, QUERY_POOL, run.pages)
        actors = ray.get([a.__ray_call__.remote(lambda _: os.getpid())
                          for a in sc.actors])

        def do_op(op):
            if op["kind"] == "phrase":
                return sc.phrase(op["phrase"], morphology=cfg.morphology)
            return _search_call(sc, op)

        done = _closed_loop(run, ops, do_op, actors)
        run.rss_mb = procs.rss_mb(actors)
        run.zero_hits = sum(
            1 for op, r, _ in done
            if not (r.num_rows if op["kind"] == "phrase" else r.data))
        _check_search(run, index_dir, cfg, done)
        log("answers checked")
    finally:
        sc.shutdown()
    if run.trace:
        searches = [op for op, _, _ in done if op["kind"] == "search"]
        scatter_s = sum(t for op, _, t in done if op["kind"] == "search")
        ix = IndexReader(index_dir, preload=False)
        t0 = time.perf_counter()
        for op in searches:
            _search_call(ix, op)
        untraced = time.perf_counter() - t0
        tracer = Tracer()
        ix = IndexReader(index_dir, preload=False)
        with patched(tracer):
            _traced_searches(tracer, searches, lambda op: _search_call(ix, op))
        _query_layers(run, tracer, len(searches), untraced)
        n = max(1, len(searches))
        run.layers["scatter.overhead_s"] = (scatter_s - untraced) / n
        phr = run.lat.get("phrase", [])
        run.layers["phrase.s"] = sum(phr) / max(1, len(phr))
        _trace_build(run, cfg)


def _check_search(run: Run, index_dir: str, cfg, done) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engine_ray.pipelines.phrase import phrase_counts
    from search_engine_ray.pipelines.query import IndexReader

    ix = IndexReader(index_dir, preload=False)
    searches = [(op, r) for op, r, _ in done if op["kind"] == "search"]
    for op, resp in searches[::SEARCH_CHECK_EVERY]:
        if _hits(resp) != _hits(_search_call(ix, op)):
            run.fail(f"search {op!r}: ScatterIndex differs from IndexReader")
    phrases = [(op, r) for op, r, _ in done if op["kind"] == "phrase"]
    if not phrases:
        return
    docs = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "url"])
        for f in sorted(glob.glob(os.path.join(index_dir, "part=*",
                                               "docs.parquet"))))
    doc_of = dict(zip(docs["url"].to_pylist(), docs["doc_id"].to_pylist()))
    pages = corpus.latest_captures(run.pages)
    texts = rd.from_arrow(pa.table({
        "doc_id": pa.array([doc_of[u] for u in pages["url"].to_pylist()],
                           pa.int64()),
        "text": pages["text"]})).materialize()
    for op, table in phrases[:PHRASE_ORACLE_SAMPLES]:
        want = phrase_counts(texts, op["phrase"], morphology=cfg.morphology,
                             concurrency=1).take_all()
        want = sorted((r["doc_id"], r["n_matches"]) for r in want)
        if _phrase_pairs(table) != want:
            run.fail(f"phrase {op['phrase']!r}: index answer differs from "
                     "phrase_counts over the page texts")


WORKLOADS = {"build": run_build, "bm25": run_bm25, "search": run_search}
