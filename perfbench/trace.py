"""Spans around the engine's layer boundaries, recorded from the benchmark.

The benchmark never edits the engine: a traced pass wraps the public
functions each layer exposes (``patched``) and records one span per call
with its name, start, end, parent span and operation id.  A layer's figure
is its SELF time (span duration minus the part covered by its child spans),
so the layers of one operation add up to the operation's wall exactly and
nothing is counted twice.

The build runs inside Ray worker processes, where the benchmark cannot wrap
anything, so ``replay_build`` re-runs the build's stage callables
in-process on the same pages, batch sizes and partitioning, and checks that
the replayed index is byte-identical to the one Ray built.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc


class Tracer:
    """In-memory span log; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args, kwargs)``
        may add counts."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name(*args, **kwargs) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
        return out

    def nesting_violations(self, slack: float = 1e-6) -> int:
        """Spans whose children do not fit inside them (in time, or in
        summed duration)."""
        child = [0.0] * len(self.spans)
        bad = 0
        for s in self.spans:
            p = s["parent"]
            if p is None:
                continue
            par = self.spans[p]
            child[p] += s["end"] - s["start"]
            if s["start"] < par["start"] - slack or s["end"] > par["end"] + slack:
                bad += 1
        for s, c in zip(self.spans, child):
            if c > s["end"] - s["start"] + slack:
                bad += 1
        return bad

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap the query-side layer boundaries for the duration of a pass.

    ``pipelines.query`` imported its helpers by name, so those names are
    wrapped in that module's namespace; methods are wrapped on the class."""
    from search_engine_ray.pipelines import query as q

    seen: set[tuple[int, str]] = set()

    def on_postings(enc, args, kwargs):
        reader, term = args[0], args[1]
        tracer.count("postings.calls")
        if (id(reader), term) not in seen:
            seen.add((id(reader), term))
            tracer.count("postings.first_touch")

    def on_decode(out, args, kwargs):
        ids = out[0] if isinstance(out, tuple) else out
        tracer.count("postings.decoded", len(ids))

    def on_snippet(out, args, kwargs):
        tracer.count("snippets.hits")

    def topk_name(self, lemmas, k, **kw):
        return "topk_pruned" if kw.get("pruned", True) else "topk_exhaustive"

    patches = [
        (q, "lemmas_of_query", tracer.wrap("lemmatize.query", q.lemmas_of_query)),
        (q, "decode_postings", tracer.wrap("codec.decode", q.decode_postings,
                                           on_decode)),
        # the WAND cursor's block decoder: ids and tfs of one block each, so
        # only the doc-id half counts postings
        (q, "decode_block_docids", tracer.wrap(
            "codec.decode", q.decode_block_docids, on_decode)),
        (q, "decode_block_tfs", tracer.wrap("codec.decode", q.decode_block_tfs)),
        (q, "get_snippet", tracer.wrap("snippets", q.get_snippet, on_snippet)),
        (q.SegmentReader, "postings", tracer.wrap(
            "query.postings", q.SegmentReader.postings, on_postings)),
        (q.SegmentReader, "doc_meta", tracer.wrap(
            "query.doc_meta", q.SegmentReader.doc_meta)),
        (q.IndexReader, "bm25_topk", tracer.wrap(topk_name,
                                                 q.IndexReader.bm25_topk)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(root) for f in fs)


def replay_build(tracer: Tracer, pages: pa.Table, work_dir: str, cfg) -> dict:
    """Run the build's stage callables in-process, one span per call.

    Mirrors ``build_index``: ``assign_part_batch`` + ``extract_batch`` on
    ``extract_batch_size`` rows, ``Lemmatizer`` per batch, the run writer
    on ``run_write_batch_size`` rows, one segment-builder call per exchange
    group, empty partitions committed, then ``finalize_index``.  Returns
    counters and the replayed index directory."""
    import shutil

    from search_engine_ray.pipelines.build import finalize_index
    from search_engine_ray.stages.extract import assign_part_batch, extract_batch
    from search_engine_ray.stages.lemmatize import Lemmatizer
    from search_engine_ray.stages.segments import (RunWriterActor,
                                                   commit_empty_part,
                                                   make_runs_segment_builder)
    from search_engine_ray.state.manifest import done_parts

    shutil.rmtree(work_dir, ignore_errors=True)
    runs_dir = os.path.join(work_dir, "runs")
    index_dir = os.path.join(work_dir, "index")
    os.makedirs(index_dir)
    parts = cfg.num_partitions
    pages = pages.select(["url", "warc_ts", "html"])
    lem = Lemmatizer(morphology=cfg.morphology, drop_text=True,
                     store_positions=cfg.store_positions)
    writer = RunWriterActor(runs_dir, cfg.exchange_group)
    tokens = 0
    pending: list[pa.Table] = []

    def flush():
        if pending:
            with tracer.span("segments.run_write"):
                writer(pa.concat_tables(pending))
            pending.clear()

    with tracer.span("build"):
        for off in range(0, pages.num_rows, cfg.extract_batch_size):
            b = pages.slice(off, cfg.extract_batch_size)
            with tracer.span("extract"):
                b = extract_batch(assign_part_batch(b, parts))
            with tracer.span("lemmatize"):
                b = lem(b)
            tokens += int(pc.sum(b["doc_len"]).as_py() or 0)
            pending.append(b)
            if sum(t.num_rows for t in pending) >= cfg.run_write_batch_size:
                flush()
        flush()
        run_bytes = tree_bytes(runs_dir)
        builder = make_runs_segment_builder(runs_dir, index_dir, cfg, "replay")
        n_postings = 0
        for g in sorted(int(d.split("=")[1]) for d in os.listdir(runs_dir)):
            with tracer.span("segments.build"):
                stats = builder(pa.table({"grp": pa.array([g], pa.int32())}))
            n_postings += int(pc.sum(stats["n_postings"]).as_py() or 0)
        for p in sorted(set(range(parts)) - set(done_parts(index_dir))):
            commit_empty_part(index_dir, p, cfg, "replay")
        with tracer.span("build.finalize"):
            finalize_index(index_dir)
    return {"index_dir": index_dir, "tokens": tokens, "run_bytes": run_bytes,
            "postings": n_postings, "index_bytes": tree_bytes(index_dir)}
