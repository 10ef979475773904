"""Text analysis stages over a documents table: language-ID, quality
scoring, word statistics, search and decontamination.

All hot kernels are vectorized: language/stopword hits are
``pc.count_substring_regex`` over a ``\\b(...)\\b`` alternation (one RE2
scan per language per batch, the same regex the DuckDB oracle runs) and
ratios/scores are Arrow compute arithmetic — no per-row Python in any
hot loop. Stages that hold compiled state are callable classes
(actor pools — built once per actor in ``__init__``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# small built-in stopword profiles for the stopword-alternation language
# heuristic (public common-word lists, truncated). Language ORDER is the
# deterministic tie-break (first language with the max hit count wins).
_LANG_ORDER = ("en", "fr", "de", "es")
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on", "with", "as", "was", "at"},
    "fr": {"le", "la", "de", "et", "un", "une", "les", "des", "est", "que", "pour", "dans", "sur", "pas"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "auf", "für", "von", "zu"},
    "es": {"el", "la", "de", "y", "que", "en", "un", "una", "es", "los", "las", "por", "con", "para"},
}

# ASCII word tokens on lowercased text (RE2 — identical semantics in
# Arrow and DuckDB, which both embed RE2)
WORD_PATTERN = r"[a-z0-9_]+"


def lang_pattern(lang: str) -> str:
    """The per-language stopword alternation regex — sorted so the Ray
    kernel and the SQL oracle run the byte-identical pattern."""
    return r"\b(" + "|".join(sorted(_LANG_STOPWORDS[lang])) + r")\b"


class LangId:
    """Stopword-hit language heuristic, one vectorized RE2 count per
    language per batch (actor stage; patterns built once). Emits
    ``lang_pred`` and ``lang_hits``; 'und' when the best language has
    fewer than ``min_hits`` hits."""

    def __init__(self, text_col: str = "text", min_hits: int = 1):
        self.text_col = text_col
        self.min_hits = min_hits
        self.patterns = [(lang, lang_pattern(lang)) for lang in _LANG_ORDER]

    def __call__(self, batch: pa.Table) -> pa.Table:
        lower = pc.utf8_lower(batch[self.text_col])
        counts = np.stack(
            [
                np.asarray(pc.count_substring_regex(lower, pattern=p).cast(pa.int64()))
                for _, p in self.patterns
            ]
        )  # (n_langs, n_rows)
        best_i = np.argmax(counts, axis=0)  # first max wins (tie-break = order)
        best_n = counts[best_i, np.arange(counts.shape[1])]
        langs = np.array([lang for lang, _ in self.patterns], dtype=object)
        preds = np.where(best_n >= self.min_hits, langs[best_i], "und")
        return batch.append_column("lang_pred", pa.array(preds, type=pa.string())).append_column(
            "lang_hits", pa.array(best_n, type=pa.int64())
        )


class QualityScore:
    """Heuristic quality scoring (length / punctuation / stopword
    ratios — the usual pretraining-filter features), fully vectorized.
    The arithmetic mirrors the SQL oracle expression term-for-term so
    the doubles match bit-exactly."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop_pattern = lang_pattern("en")

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch[self.text_col]
        lower = pc.utf8_lower(txt)
        n_chars = pc.utf8_length(txt).cast(pa.float64())
        n_ws = pc.count_substring_regex(txt, pattern=r"\S+").cast(pa.float64())
        n_punct = pc.count_substring_regex(txt, pattern=r"[.!?,;:]").cast(pa.float64())
        n_words = pc.count_substring_regex(lower, pattern=WORD_PATTERN).cast(pa.float64())
        n_stop = pc.count_substring_regex(lower, pattern=self.stop_pattern).cast(pa.float64())
        sr = pc.divide(n_stop, pc.max_element_wise(n_words, pa.scalar(1.0)))
        mean_wl = pc.divide(n_chars, pc.max_element_wise(n_ws, pa.scalar(1.0)))
        punct_ratio = pc.divide(n_punct, pc.max_element_wise(n_chars, pa.scalar(1.0)))
        # score: in-range word length, some stopwords, low punctuation
        score = pc.subtract(
            pc.add(
                pc.multiply(sr, pa.scalar(2.0)),
                pc.if_else(
                    pc.and_(pc.greater(mean_wl, 2.5), pc.less(mean_wl, 10.0)),
                    pa.scalar(1.0),
                    pa.scalar(0.0),
                ),
            ),
            pc.multiply(punct_ratio, pa.scalar(5.0)),
        )
        return (
            batch.append_column("stop_ratio", sr)
            .append_column("mean_word_len", mean_wl)
            .append_column("punct_ratio", punct_ratio)
            .append_column("quality", score)
        )


def top_words(
    ds: ray.data.Dataset,
    text_col: str = "text",
    k: int = 20,
    batch_size: int = 256,
) -> ray.data.Dataset:
    """Global word-frequency top-k — the exact heavy-hitters path (the
    corpus-vocabulary question: dominant tokens/domains for
    contamination and dedup lists).

    Shape: per batch, one vectorized polars pass (lowercase →
    ``extract_all(WORD_PATTERN)`` → explode → value_counts) yields EXACT
    local (word, n) partials, so only vocabulary-sized partials shuffle,
    never token streams; a combiner groupby sums them and
    :func:`raycdc.ops.top_k` takes the deterministic head
    (count desc, word asc — same total order as the SQL oracle's
    ``ORDER BY n DESC, word LIMIT k``).
    """
    import polars as pl

    from raycdc.ops import partial_groupby_agg, top_k

    def words(t: pa.Table) -> pa.Table:
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        counts = (
            s.str.extract_all(WORD_PATTERN).explode().drop_nulls().value_counts()
        )
        arr = counts.to_arrow()
        return pa.table(
            {"word": arr.column(0).cast(pa.string()), "n": arr.column(1).cast(pa.int64())}
        )

    partials = ds.map_batches(words, batch_format="pyarrow", batch_size=batch_size)
    totals = partial_groupby_agg(partials, "word", {"n": ("n", "sum")},
                                 batch_size=65536)
    return top_k(totals, by="n", k=k, descending=True, tiebreak="word")


def repetition_scores(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_dup_word_frac: float = 0.8,
    max_top_word_frac: float = 0.3,
    batch_size: int = 256,
    emit: str = "scores",
) -> ray.data.Dataset:
    """Gopher-style within-document repetition filter (Rae et al. 2021,
    §A1.1 "repetition" rules, public): per document, the fraction of
    duplicate word occurrences (``1 - n_distinct/n_words``) and the
    fraction of occurrences taken by the single most frequent word;
    ``keep`` flags documents under both thresholds. The classic
    pre-training curation screen for degenerate/boilerplate text.

    Shape: doc-local → map-only, no shuffle. Per batch, ONE vectorized
    polars pass (lowercase → ``extract_all`` → explode → two group_bys
    over the batch's (doc, word) pairs); emits one row per document with
    ≥1 token (token-free docs have no defined ratios and match the SQL
    oracle's ``GROUP BY`` over the unnested words). Scale-safe at 100 TB:
    output is one scalar row per doc, state is batch-bounded.

    ``emit="filter"`` returns the ORIGINAL rows (all columns) of
    documents that pass both thresholds instead of the score table —
    the in-pipeline curation-stage form (token-free docs drop).
    """
    import polars as pl

    if emit not in ("scores", "filter"):
        raise ValueError("emit must be 'scores' or 'filter'")

    def rep(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select([id_col, text_col]))
        ex = (
            df.with_columns(
                pl.col(text_col).str.to_lowercase()
                .str.extract_all(WORD_PATTERN).alias("ws"))
            .select(id_col, "ws")
            .explode("ws")
            .drop_nulls("ws")
        )
        per = ex.group_by(id_col, "ws").agg(pl.len().alias("cnt"))
        agg = per.group_by(id_col).agg(
            pl.col("cnt").sum().cast(pl.Int64).alias("n_words"),
            pl.len().cast(pl.Int64).alias("n_distinct"),
            pl.col("cnt").max().cast(pl.Int64).alias("max_cnt"),
        )
        agg = agg.with_columns(
            (1.0 - pl.col("n_distinct") / pl.col("n_words")).alias("dup_word_frac"),
            (pl.col("max_cnt") / pl.col("n_words")).alias("top_word_frac"),
        ).with_columns(
            (
                (pl.col("dup_word_frac") <= max_dup_word_frac)
                & (pl.col("top_word_frac") <= max_top_word_frac)
            ).alias("keep")
        ).drop("max_cnt")
        return agg.to_arrow().cast(
            pa.schema(
                [
                    (id_col, t.schema.field(id_col).type),
                    ("n_words", pa.int64()),
                    ("n_distinct", pa.int64()),
                    ("dup_word_frac", pa.float64()),
                    ("top_word_frac", pa.float64()),
                    ("keep", pa.bool_()),
                ]
            )
        )

    def rep_filter(t: pa.Table) -> pa.Table:
        # row-index keyed (no uniqueness assumption on id_col): same
        # metrics, but emit the surviving ORIGINAL rows
        s = pl.Series(
            "w", pl.from_arrow(t.column(text_col).cast(pa.string()).combine_chunks())
        ).str.to_lowercase()
        ex = (
            pl.DataFrame({"ws": s.str.extract_all(WORD_PATTERN)})
            .with_row_index("_ri")
            .explode("ws")
            .drop_nulls("ws")
        )
        per = ex.group_by("_ri", "ws").agg(pl.len().alias("cnt"))
        agg = per.group_by("_ri").agg(
            pl.col("cnt").sum().alias("n_words"),
            pl.len().alias("n_distinct"),
            pl.col("cnt").max().alias("max_cnt"),
        )
        keep_ri = (
            agg.filter(
                ((1.0 - pl.col("n_distinct") / pl.col("n_words"))
                 <= max_dup_word_frac)
                & ((pl.col("max_cnt") / pl.col("n_words"))
                   <= max_top_word_frac)
            )
            .sort("_ri")["_ri"]
            .to_numpy()
        )
        return t.take(pa.array(keep_ri.astype(np.int64)))

    fn = rep if emit == "scores" else rep_filter
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def regex_extract(
    ds: "ray.data.Dataset",
    col: str,
    pattern: str,
    out_col: str = "extracted",
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Vectorized regex capture (SQL ``regexp_extract(col, pat, 1)``):
    ``out_col`` gets capture group 1's text for the FIRST match, NULL
    when the row doesn't match. One ``pc.extract_regex`` C pass per
    batch — pyarrow and DuckDB both run RE2, so a shared pattern
    behaves identically under the oracle. The pattern must contain
    exactly one named-or-numbered capture group (pyarrow requires a
    name — write ``(?P<g>...)``; the SQL side uses the same group as
    ``(...)``)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        s = pc.extract_regex(t.column(col).cast(pa.string()), pattern)
        # extract_regex yields struct<g: string> with a NULL STRUCT for
        # non-matches — the child array does NOT inherit that validity
        # (it holds '' there), so re-apply the parent mask explicitly
        s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
        field = pc.if_else(pc.is_valid(s), s.field(0), pa.nulls(len(s), pa.string()))
        return t.append_column(out_col, field)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def regex_replace(
    ds: "ray.data.Dataset",
    col: str,
    pattern: str,
    replacement: str,
    out_col: str | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Vectorized global regex replace (SQL ``regexp_replace(col, pat,
    repl, 'g')``): one ``pc.replace_substring_regex`` C pass per batch,
    RE2 on both engine and oracle. In-place when ``out_col`` is None.
    Replacement syntax: ``\\1``-style backrefs work on both sides."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        r = pc.replace_substring_regex(
            t.column(col).cast(pa.string()), pattern=pattern, replacement=replacement
        )
        if out_col is None:
            i = t.column_names.index(col)
            return t.set_column(i, col, r)
        return t.append_column(out_col, r)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def json_extract_scalar(
    ds: "ray.data.Dataset",
    col: str,
    key: str,
    out_col: str | None = None,
    mode: str = "re2",
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Extract a top-level scalar field from a JSON-string column (SQL
    ``json_extract_string(col, '$.key')``), NULL for missing fields,
    non-object rows, and JSON ``null``.

    ``mode="re2"`` (default) is the vectorized FLAT-JSON fast path: two
    RE2 C passes per batch (quoted value, then bare number/bool
    literal). It is exact for objects whose values contain no escaped
    quotes and whose target key appears at the TOP level — the shape
    metadata/props columns overwhelmingly have. ``mode="python"`` is
    the exact per-row ``json.loads`` fallback for nested/escaped
    payloads (documented slow path — rows, not vectors)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    out_col = out_col or key
    esc = re.escape(key)
    pat_q = rf'"{esc}"\s*:\s*"(?P<g>(?:[^"\\]|\\.)*)"'
    pat_b = rf'"{esc}"\s*:\s*(?P<g>[^,}}\s"]+)'

    def fast(t: pa.Table) -> pa.Table:
        s = t.column(col).cast(pa.string())

        def grab(pat):
            m = pc.extract_regex(s, pat)
            m = m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m
            return pc.if_else(pc.is_valid(m), m.field(0), pa.nulls(len(m), pa.string()))

        v = pc.coalesce(grab(pat_q), grab(pat_b))
        v = pc.if_else(pc.equal(v, "null"), pa.nulls(len(v), pa.string()), v)
        return t.append_column(out_col, v)

    def exact(t: pa.Table) -> pa.Table:
        import json

        outs = []
        for raw in t.column(col).to_pylist():
            try:
                obj = json.loads(raw) if raw is not None else None
            except (ValueError, TypeError):
                obj = None
            v = obj.get(key) if isinstance(obj, dict) else None
            outs.append(
                None if v is None
                else v if isinstance(v, str)
                else json.dumps(v)
            )
        return t.append_column(out_col, pa.array(outs, pa.string()))

    if mode not in ("re2", "python"):
        raise ValueError("mode must be 're2' or 'python'")
    return ds.map_batches(
        fast if mode == "re2" else exact, batch_format="pyarrow", batch_size=batch_size
    )


def split_to_rows(
    ds: "ray.data.Dataset",
    col: str,
    pattern: str,
    out_col: str = "part",
    index_col: str | None = "part_no",
    keep_cols: list[str] | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Split a string column on a regex and emit one row per piece with
    its 0-based ordinal (SQL ``unnest(regexp_split_to_array(col, pat))
    WITH ORDINALITY``) — the sentence/paragraph chunking reshape. One
    RE2 ``pc.split_pattern_regex`` C pass builds the list column; the
    explode is :func:`raycdc.ops.unnest_list`'s vectorized offset
    gather. NULL inputs emit no rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from raycdc.ops import unnest_list

    def split(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern_regex(t.column(col).cast(pa.string()), pattern=pattern)
        keep = keep_cols if keep_cols is not None else [c for c in t.column_names if c != col]
        return t.select(keep).append_column("_parts", parts)

    lists = ds.map_batches(split, batch_format="pyarrow", batch_size=batch_size)
    return unnest_list(lists, "_parts", out_col=out_col, index_col=index_col)


def ngram_counts(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    n: int = 3,
    k: int = 20,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """Exact corpus top-k word n-grams — the phrase-level heavy-hitters
    path beside :func:`top_words` (boilerplate/contamination phrase
    mining). Tokenization is ``WORD_PATTERN`` on lowercased text, grams
    join with single spaces — byte-identical to the SQL oracle's
    split+filter.

    Shape: per batch the gram build is fully vectorized — words
    explode to a flat array with offsets, gram starts are one boolean
    mask (same-doc check via a repeated doc index), and the n words
    join with ONE ``pc.binary_join_element_wise`` over shifted slices;
    local value_counts makes the shuffle gram-vocabulary-sized, then a
    combiner groupby + deterministic top-k head."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import polars as pl

    from raycdc.ops import partial_groupby_agg, top_k

    def grams(t: pa.Table) -> pa.Table:
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        lists = s.str.extract_all(WORD_PATTERN)
        arr = lists.to_arrow()  # LargeListArray (polars) or ChunkedArray
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        offs = np.asarray(arr.offsets, dtype=np.int64)
        flat = arr.flatten()
        total = len(flat)
        lens = offs[1:] - offs[:-1]
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        if total < n:
            return pa.table({"gram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        starts = np.arange(total - n + 1)
        ok = doc_of[starts] == doc_of[starts + n - 1]  # gram stays in one doc
        idx = starts[ok]
        parts = [flat.take(pa.array(idx + j)) for j in range(n)]
        # polars emits large_string; the separator literal must match
        gram = pc.binary_join_element_wise(
            *parts, pa.scalar(" ", type=parts[0].type)
        )
        counts = pl.Series("g", pl.from_arrow(gram)).value_counts()
        carr = counts.to_arrow()
        return pa.table(
            {"gram": carr.column(0).cast(pa.string()),
             "n": carr.column(1).cast(pa.int64())}
        )

    partials = ds.map_batches(grams, batch_format="pyarrow", batch_size=batch_size)
    totals = partial_groupby_agg(partials, "gram", {"n": ("n", "sum")},
                                 batch_size=65536)
    return top_k(totals, by="n", k=k, descending=True, tiebreak="gram")


def decontaminate(
    ds: "ray.data.Dataset",
    eval_ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    batch_size: int = 256,
    max_eval_grams: int = 50_000_000,
    emit: str = "scores",
) -> "ray.data.Dataset":
    """Benchmark decontamination (the public GPT-3/PaLM appendix method:
    flag training documents sharing word n-grams with an eval set).

    ``emit="filter"`` returns the ORIGINAL rows (all columns) of clean
    documents instead of the score table — the in-pipeline curation
    stage. Documents with fewer than ``n`` words have no grams, cannot
    be contaminated, and are KEPT in filter mode (they simply have no
    row in scores mode).

    Two-sided broadcast shape — the scale contract:

    * **Small side (eval/benchmark)**: distinct n-grams are reduced to a
      driver-side set (per-batch vectorized gram build + distinct, so
      only vocabulary-sized partials leave workers) and broadcast ONCE
      via ``ray.put``. Eval suites are small by nature; ``max_eval_grams``
      raises rather than silently degrade if someone passes a corpus.
    * **Big side (training)**: map-only scan, no shuffle. Per batch: one
      vectorized gram build (offsets + one ``binary_join_element_wise``,
      the :func:`ngram_counts` kernel), per-doc distinct, and ONE polars
      hash-``is_in`` against the broadcast set — exact string matching,
      no probabilistic filter, matching the SQL oracle verbatim.

    Output: one row per training doc with ≥1 gram —
    ``(id, n_grams, n_hit, overlap_frac, contaminated)`` where counts are
    over the doc's DISTINCT grams (the standard overlap definition).
    """
    import polars as pl

    def doc_grams(t: pa.Table) -> tuple[pa.Array, np.ndarray]:
        """Flat per-doc gram array + owning row index (batch-local)."""
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        arr = s.str.extract_all(WORD_PATTERN).to_arrow()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        offs = np.asarray(arr.offsets, dtype=np.int64)
        flat = arr.flatten()
        total = len(flat)
        if total < n:
            return pa.array([], type=pa.string()), np.empty(0, dtype=np.int64)
        lens = offs[1:] - offs[:-1]
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        starts = np.arange(total - n + 1)
        ok = doc_of[starts] == doc_of[starts + n - 1]
        idx = starts[ok]
        parts = [flat.take(pa.array(idx + j)) for j in range(n)]
        gram = pc.binary_join_element_wise(
            *parts, pa.scalar(" ", type=parts[0].type)
        )
        return gram, doc_of[idx]

    # ---- phase 1: eval-side distinct grams -> driver set -> ray.put
    def eval_grams(t: pa.Table) -> pa.Table:
        gram, _ = doc_grams(t)
        return pa.table({"gram": pc.unique(gram).cast(pa.string())})

    seen: set = set()
    partials = eval_ds.map_batches(eval_grams, batch_format="pyarrow",
                                   batch_size=batch_size)
    for part in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        seen.update(part["gram"].to_pylist())
        if len(seen) > max_eval_grams:
            raise ValueError(
                f"eval side exceeds max_eval_grams={max_eval_grams}: the "
                "broadcast-set contract assumes a benchmark-sized eval "
                "input; shard the eval set or raise the cap explicitly")
    ref = ray.put(pl.Series("eval", sorted(seen), dtype=pl.String))

    # ---- phase 2: training-side map-only overlap scan (actor pool —
    # the gram set is fetched from the object store once per actor)
    class Overlap:
        def __init__(self):
            self.eval_set = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            gram, doc_of = doc_grams(t)
            id_type = t.schema.field(id_col).type
            if len(gram) == 0:
                return pa.table(
                    {
                        id_col: pa.array([], id_type),
                        "n_grams": pa.array([], pa.int64()),
                        "n_hit": pa.array([], pa.int64()),
                        "overlap_frac": pa.array([], pa.float64()),
                        "contaminated": pa.array([], pa.bool_()),
                    }
                )
            df = pl.DataFrame(
                {"d": doc_of, "g": pl.Series(pl.from_arrow(gram))}
            ).unique()
            agg = (
                df.with_columns(pl.col("g").is_in(self.eval_set).alias("hit"))
                .group_by("d")
                .agg(
                    pl.len().cast(pl.Int64).alias("n_grams"),
                    pl.col("hit").sum().cast(pl.Int64).alias("n_hit"),
                )
                .with_columns(
                    (pl.col("n_hit") / pl.col("n_grams")).alias("overlap_frac"),
                    (pl.col("n_hit") > 0).alias("contaminated"),
                )
                .sort("d")
            )
            ids = t.column(id_col).combine_chunks().take(
                pa.array(agg["d"].to_numpy())
            )
            out = agg.to_arrow()
            return pa.table(
                {
                    id_col: ids,
                    "n_grams": out["n_grams"].cast(pa.int64()),
                    "n_hit": out["n_hit"].cast(pa.int64()),
                    "overlap_frac": out["overlap_frac"].cast(pa.float64()),
                    "contaminated": out["contaminated"].cast(pa.bool_()),
                }
            )

    class OverlapFilter:
        def __init__(self):
            self.eval_set = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            gram, doc_of = doc_grams(t)
            if len(gram) == 0:
                return t  # no grams in the batch: nothing can be dirty
            hit = pl.Series(pl.from_arrow(gram)).is_in(self.eval_set).to_numpy()
            dirty_rows = np.unique(doc_of[hit])
            keep = np.ones(t.num_rows, dtype=bool)
            keep[dirty_rows] = False
            return t.filter(pa.array(keep))

    if emit not in ("scores", "filter"):
        raise ValueError("emit must be 'scores' or 'filter'")
    cls = Overlap if emit == "scores" else OverlapFilter
    return ds.map_batches(cls, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=(1, 4))


def doc_frequency(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int | None = 20,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """Exact top-k words by DOCUMENT frequency (how many docs contain
    the word at least once) — the IDF / stopword-list building block
    beside :func:`top_words`' term frequency. ``k=None`` returns the
    FULL vocabulary-sized (word, df) table (the IDF join side). Per
    batch: one polars pass (lowercase → extract_all → per-list unique →
    explode → value_counts) emits vocabulary-sized (word, df) partials;
    combiner groupby + deterministic top-k head. Tokenization identical
    to the SQL oracle's split+filter+list_distinct."""
    import polars as pl

    from raycdc.ops import partial_groupby_agg, top_k

    def dfreq(t: pa.Table) -> pa.Table:
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        counts = (
            s.str.extract_all(WORD_PATTERN)
            .list.unique()
            .explode()
            .drop_nulls()
            .value_counts()
        )
        arr = counts.to_arrow()
        return pa.table(
            {"word": arr.column(0).cast(pa.string()),
             "df": arr.column(1).cast(pa.int64())}
        )

    partials = ds.map_batches(dfreq, batch_format="pyarrow", batch_size=batch_size)
    totals = partial_groupby_agg(partials, "word", {"df": ("df", "sum")},
                                 batch_size=65536)
    if k is None:
        return totals
    return top_k(totals, by="df", k=k, descending=True, tiebreak="word")


def word_heavy_hitters(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    frac: float = 0.002,
    m: int = 4096,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """EXACT frequency heavy hitters — all words with count ≥
    ``ceil(frac·N)`` (N = total corpus words) — found with the
    candidate/verify two-pass so no pass ever shuffles a token stream:

    1. **Candidate pass (Misra-Gries):** per batch, exact local counts
       truncated to ≤ ``m`` counters by subtracting the (m+1)-th largest
       (classic MG decrement). Total undercount across the corpus is
       ≤ N/(m+1), so every TRUE heavy hitter survives with merged count
       ≥ T − N/(m+1) — the candidate filter keeps a guaranteed superset
       while the counter table stays vocabulary-of-survivors-sized
       (≤ m per batch leaves each task). Batch word totals ride along as
       a NULL-word row so N needs no extra corpus pass.
    2. **Verify pass:** exact recount of ONLY the (tiny, broadcast)
       candidate set, combiner-grouped, filtered to ≥ T.

    The output is therefore EXACTLY the SQL ``GROUP BY word HAVING
    count(*) >= ceil(frac * N)`` — an approximate pass with an exact
    answer. Requires ``m ≥ 1/frac`` (else the superset guarantee
    fails; raises)."""
    import polars as pl

    import ray

    from raycdc.ops import partial_groupby_agg

    if m < 1.0 / frac:
        raise ValueError(f"m={m} too small for frac={frac}: need m >= 1/frac")

    def mg_partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        exploded = s.str.extract_all(WORD_PATTERN).explode().drop_nulls()
        total = len(exploded)
        counts = exploded.value_counts()
        arr = counts.to_arrow()
        words = arr.column(0).cast(pa.string())
        n = arr.column(1).cast(pa.int64()).to_numpy(zero_copy_only=False).copy()
        if len(n) > m:
            kth = np.partition(n, len(n) - m - 1)[len(n) - m - 1]
            keep = (n - kth) > 0
            words, n = words.filter(pa.array(keep)), n[keep] - kth
        return pa.table({
            "word": pa.concat_arrays([words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words,
                                      pa.array([None], pa.string())]),
            "n": pa.array(np.concatenate([n, [total]]), pa.int64()),
        })

    partials = ds.map_batches(mg_partial, batch_format="pyarrow", batch_size=batch_size)
    merged = partial_groupby_agg(partials, "word", {"n": ("n", "sum")},
                                 batch_size=65536).materialize()
    tot = merged.map_batches(
        lambda t: t.filter(pc.is_null(t["word"])), batch_format="pyarrow"
    ).take_all()
    N = int(tot[0]["n"]) if tot else 0
    T = int(np.ceil(frac * N)) if N else 1
    slack = N // (m + 1)
    floor = max(T - slack, 1)
    cand_tbl = merged.map_batches(
        lambda t: t.filter(pc.and_(pc.is_valid(t["word"]),
                                   pc.greater_equal(t["n"], pa.scalar(floor, pa.int64())))),
        batch_format="pyarrow",
    ).take_all()
    cand = ray.put(np.asarray(sorted(r["word"] for r in cand_tbl)))

    class Recount:
        def __init__(self):
            self.cand = ray.get(cand)

        def __call__(self, t: pa.Table) -> pa.Table:
            col = t.column(text_col).cast(pa.string()).combine_chunks()
            s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
            exploded = s.str.extract_all(WORD_PATTERN).explode().drop_nulls()
            counts = exploded.value_counts()
            arr = counts.to_arrow()
            words = arr.column(0).cast(pa.string()).combine_chunks()
            n = arr.column(1).cast(pa.int64())
            keep = pa.array(np.isin(words.to_numpy(zero_copy_only=False), self.cand))
            return pa.table({"word": words.filter(keep), "n": n.filter(keep)})

    exact = ds.map_batches(Recount, batch_format="pyarrow",
                           batch_size=batch_size, concurrency=(1, 4))
    totals = partial_groupby_agg(exact, "word", {"n": ("n", "sum")},
                                 batch_size=65536)
    return totals.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], pa.scalar(T, pa.int64()))),
        batch_format="pyarrow",
    )


def bm25_topk(
    ds: "ray.data.Dataset",
    terms: list[str],
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    ndigits: int = 6,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """BM25 ranked retrieval for a fixed term list — the search-scoring
    pipeline: per-doc term frequencies and lengths (one vectorized
    token pass), corpus df/N/avglen from two TINY aggregates broadcast
    back, Okapi BM25 scored per doc, deterministic top-k.

    Exactness contract: tf/df/len/N are exact integers and the score
    expression is evaluated in a FIXED order mirrored by the SQL
    oracle; only ln() may differ by an ulp between engines, so scores
    round to ``ndigits`` AND the ranking orders by the ROUNDED score
    (then id) — bit-stable top-k on both sides."""
    import polars as pl

    import ray

    from raycdc.ops import top_k

    terms = list(terms)

    def tf_len(t: pa.Table) -> pa.Table:
        col = t.column(text_col).cast(pa.string()).combine_chunks()
        s = pl.Series("w", pl.from_arrow(col)).str.to_lowercase()
        words = s.str.extract_all(WORD_PATTERN)
        out = {id_col: t.column(id_col), "_len": pa.array(
            words.list.len().to_numpy().astype(np.int64))}
        for i, term in enumerate(terms):
            tf = words.list.eval(pl.element().filter(pl.element() == term)).list.len()
            out[f"_tf{i}"] = pa.array(tf.to_numpy().astype(np.int64))
        return pa.table(out)

    docs = ds.map_batches(tf_len, batch_format="pyarrow", batch_size=batch_size)
    docs = docs.materialize()  # two consumers: corpus stats + scoring
    stats = {"N": 0, "sumlen": 0, **{f"df{i}": 0 for i in range(len(terms))}}
    for t in docs.iter_batches(batch_size=None, batch_format="pyarrow"):
        stats["N"] += t.num_rows
        stats["sumlen"] += int(pc.sum(t["_len"]).as_py() or 0)
        for i in range(len(terms)):
            stats[f"df{i}"] += int(
                pc.sum(pc.greater(t[f"_tf{i}"], 0).cast(pa.int8())).as_py() or 0)
    N, sumlen = float(stats["N"]), float(stats["sumlen"])
    avglen = sumlen / N if N else 1.0
    idf = [float(np.log((N - stats[f"df{i}"] + 0.5) / (stats[f"df{i}"] + 0.5) + 1.0))
           for i in range(len(terms))]
    ref = ray.put((idf, avglen))

    class Score:
        def __init__(self):
            self.idf, self.avglen = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ln = np.asarray(t["_len"], dtype=np.float64)
            norm = k1 * (1.0 - b + b * (ln / self.avglen))
            score = np.zeros(t.num_rows, dtype=np.float64)
            for i in range(len(terms)):  # fixed term order = SQL's + order
                tf = np.asarray(t[f"_tf{i}"], dtype=np.float64)
                score = score + self.idf[i] * ((tf * (k1 + 1.0)) / (tf + norm))
            return pa.table({
                id_col: t[id_col],
                "score": pa.array(np.round(score, ndigits), pa.float64()),
            })

    scored = docs.map_batches(Score, batch_format="pyarrow", concurrency=(1, 4))
    return top_k(scored, by="score", k=k, descending=True, tiebreak=id_col)
