"""Seeded Zipf-vocabulary page corpus and query sets for the benchmark.

The bundled ``documents.parquet`` has 31 distinct words, so every posting
list covers almost every document and neither selectivity nor top-k pruning
can show.  This generator draws tokens from a Zipf law over a large
pseudo-word vocabulary instead, so head terms reach df ~ N while most of the
vocabulary is rare.

Pseudo-words are three consonant-vowel syllables ending in a vowel, which
the default morphology maps to themselves; a few tokens are stop words
(dropped by the lemmatizer) or ``-s`` plurals (folded onto their stem), so
the lemmatize stage does real work.  Pages come in the engine's input shape
(``url, warc_ts, html``) plus a ``text`` column holding the expected
extraction of the HTML by construction, which the phrase check uses as an
independent witness.  About one page in a hundred re-captures an earlier
URL at a later ``warc_ts``; the build keeps the latest capture.

Everything is a pure function of ``(seed, n_docs)``; the table is cached as
parquet under the checkout's ``.bench_cache`` directory.
"""

from __future__ import annotations

import datetime as _dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1
VOCAB_SIZE = 60_000
ZIPF_S = 1.0  # token law: p(rank r) ~ 1 / r**ZIPF_S
QUERY_ZIPF_S = 0.9  # query-term law over the same df-ranked vocabulary
NUM_SITES = 40
LEN_MEDIAN = 220  # tokens per page, lognormal around this median
LEN_SIGMA = 0.6
LEN_MIN, LEN_MAX = 30, 1500
PARA_WORDS = 45
STOP_SHARE = 0.08
PLURAL_SHARE = 0.05
DUP_SHARE = 0.01
PHRASE_SHARE = 0.2  # of the search workload's operations
STOPWORDS = ("of", "in", "at", "with", "is", "to", "the", "and")

_CONS = "bdfgklmnprstvz"
_VOWS = "aiou"
_EPOCH = _dt.datetime(2024, 1, 1)


def vocabulary() -> np.ndarray:
    """The rank-ordered pseudo-word vocabulary (rank 0 is the most
    frequent word).  Seed-independent, so df profiles compare across
    seeds."""
    syl = [c + v for c in _CONS for v in _VOWS]
    n = len(syl)
    combos = np.random.default_rng(20240101).permutation(n ** 3)[:VOCAB_SIZE]
    return np.array([syl[c // (n * n)] + syl[(c // n) % n] + syl[c % n]
                     for c in combos.tolist()], dtype=object)


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def zipf_ranks(rng: np.random.Generator, size: int, s: float) -> np.ndarray:
    return np.searchsorted(_zipf_cdf(VOCAB_SIZE, s), rng.random(size))


def generate_pages(seed: int, n_docs: int) -> pa.Table:
    rng = np.random.default_rng([GEN_VERSION, seed, n_docs])
    vocab = vocabulary()
    lens = np.clip(rng.lognormal(np.log(LEN_MEDIAN), LEN_SIGMA, n_docs),
                   LEN_MIN, LEN_MAX).astype(np.int64)
    total = int(lens.sum())
    ranks = zipf_ranks(rng, total, ZIPF_S)
    words = vocab[ranks]
    ends_ao = np.array([w[-1] in "ao" for w in vocab.tolist()])
    plural = (rng.random(total) < PLURAL_SHARE) & ends_ao[ranks]
    words[plural] = words[plural] + "s"
    stop = rng.random(total) < STOP_SHARE
    words[stop] = np.array(STOPWORDS, dtype=object)[
        rng.integers(0, len(STOPWORDS), int(stop.sum()))]
    site_of = zipf_ranks(rng, n_docs, 1.0) % NUM_SITES
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))

    # a re-capture reuses an earlier page's url with a later timestamp
    dup_src = np.full(n_docs, -1, np.int64)
    dups = np.flatnonzero(rng.random(n_docs) < DUP_SHARE)
    dups = dups[dups > 0]
    dup_src[dups] = (rng.random(dups.size) * dups).astype(np.int64)

    urls, tss, htmls, texts = [], [], [], []
    for d in range(n_docs):
        toks = words[starts[d]: starts[d] + lens[d]].tolist()
        title = " ".join(toks[:3 + d % 5])
        paras = [" ".join(toks[i: i + PARA_WORDS])
                 for i in range(0, len(toks), PARA_WORDS)]
        src = int(dup_src[d]) if dup_src[d] >= 0 else d
        site = f"https://site{int(site_of[src]):02d}.example"
        urls.append(f"{site}/p/{src}")
        tss.append(_EPOCH + _dt.timedelta(seconds=d))
        body = "\n".join(f"<p>{p}</p>" for p in paras)
        htmls.append(
            f"<html><head><title>{title}</title>\n<style>p {{margin:0}}"
            f"</style></head>\n<body>\n{body}\n</body></html>".encode())
        texts.append(" ".join([title] + paras))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
    })


def load_pages(cache_dir: str, seed: int, n_docs: int) -> tuple[str, pa.Table]:
    """(parquet path, table) of the seeded corpus, generated on first use."""
    path = os.path.join(cache_dir,
                        f"pages-v{GEN_VERSION}-s{seed}-n{n_docs}.parquet")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.tmp{os.getpid()}"
        pq.write_table(generate_pages(seed, n_docs), tmp,
                       row_group_size=1024)
        os.replace(tmp, path)
    return path, pq.read_table(path)


def cached_df_profile(pages_path: str, pages: pa.Table) -> dict:
    """``df_profile`` of the cached corpus, stored beside it."""
    import json

    path = pages_path + ".profile.json"
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    prof = {"vocab_size": VOCAB_SIZE, "zipf_s": ZIPF_S,
            "query_zipf_s": QUERY_ZIPF_S, "sites": NUM_SITES,
            "len_median": LEN_MEDIAN, "pages": pages.num_rows,
            **df_profile(pages)}
    with open(path, "w") as f:
        json.dump(prof, f)
    return prof


def latest_captures(pages: pa.Table) -> pa.Table:
    """One row per url: the latest ``warc_ts`` capture (the build's dedup
    rule; the generator never ties)."""
    urls = pages["url"].to_pylist()
    ts = pages["warc_ts"].cast(pa.int64()).to_pylist()
    latest: dict[str, int] = {}
    for i, (u, t) in enumerate(zip(urls, ts)):
        if u not in latest or t > ts[latest[u]]:
            latest[u] = i
    return pages.take(pa.array(sorted(latest.values())))


def df_profile(pages: pa.Table, ranks=(1, 100, 1000, 10000)) -> dict:
    """Document frequency of the r-th most frequent surface word."""
    docs = latest_captures(pages)["text"].to_pylist()
    df: dict[str, int] = {}
    for t in docs:
        for w in set(t.split()):
            df[w] = df.get(w, 0) + 1
    by_rank = sorted(df.values(), reverse=True)
    out = {f"df_at_rank_{r}": (by_rank[r - 1] if r <= len(by_rank) else 0)
           for r in ranks}
    out["distinct_words"] = len(by_rank)
    out["n_docs"] = len(docs)
    return out


def match_counter(pages: pa.Table):
    """``query -> number of latest-capture pages whose text holds every
    query word``, with stop words dropped and ``-s`` plurals folded onto
    their stem (pseudo-words end in a vowel).  Built from the generator's
    own texts, so it witnesses the engine's AND match count
    independently."""
    docs: dict[str, set[int]] = {}
    for i, text in enumerate(latest_captures(pages)["text"].to_pylist()):
        for w in set(text.split()):
            if w not in STOPWORDS:
                docs.setdefault(w[:-1] if w.endswith("s") else w, set()).add(i)

    def count(query: str) -> int:
        sets = sorted((docs.get(w, set()) for w in set(query.split())
                       if w not in STOPWORDS), key=len)
        return len(set.intersection(*sets)) if sets else 0

    return count


def bm25_queries(seed: int, n: int) -> list[str]:
    """1-4 terms, each drawn with Zipf skew over the df-ranked vocabulary,
    so head terms with df ~ N occur."""
    rng = np.random.default_rng([GEN_VERSION, seed, 25])
    vocab = vocabulary()
    sizes = rng.integers(1, 5, n)
    ranks = zipf_ranks(rng, int(sizes.sum()), QUERY_ZIPF_S)
    out, i = [], 0
    for k in sizes.tolist():
        out.append(" ".join(vocab[ranks[i: i + k]].tolist()))
        i += k
    return out


def search_ops(seed: int, n: int, pages: pa.Table) -> list[dict]:
    """The reference-API traffic mix.

    ``kind="search"``: 1-3 distinct words of a random page (so the AND
    matches it), limit 20, about a quarter scoped to that page's site and
    a fifth with offset > 0.  ``kind="phrase"``: a 2-4-word window of a
    random page's text with at least one word that is not a stop word."""
    rng = np.random.default_rng([GEN_VERSION, seed, 77])
    docs = latest_captures(pages)
    texts = docs["text"].to_pylist()
    urls = docs["url"].to_pylist()
    ops = []
    for _ in range(n):
        d = int(rng.integers(len(texts)))
        toks = texts[d].split()
        if rng.random() < PHRASE_SHARE:
            m = int(rng.integers(2, 5))
            s = int(rng.integers(0, max(1, len(toks) - m)))
            # a window of stop words only normalizes to no phrase at all
            while all(t in STOPWORDS for t in toks[s: s + m]):
                s = (s + 1) % max(1, len(toks) - m)
            ops.append({"kind": "phrase", "phrase": " ".join(toks[s: s + m])})
            continue
        cand = sorted({t for t in toks if t not in STOPWORDS})
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(cand), size=min(k, len(cand)), replace=False)
        site = urls[d].split("/p/")[0] if rng.random() < 0.25 else None
        offset = int(rng.choice([5, 10, 20])) if rng.random() < 0.2 else 0
        ops.append({"kind": "search",
                    "query": " ".join(cand[i] for i in sorted(picks)),
                    "site": site, "offset": offset})
    return ops
