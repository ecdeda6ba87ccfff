"""Tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files by wrapping the
program's public boundaries where their callers look them up:

- ``query.engine.parse_query`` / ``rank_documents_exact`` /
  ``rank_bm25_wand`` and ``query.sharded.rank_documents_exact`` are bound
  into those modules at import, so they are patched there;
- ``vbyte.decode`` is looked up on the module per call;
- ``QueryEngine``, ``DiskIndexReader``, ``ShardedQueryPool`` methods and
  ``pyarrow.parquet.ParquetFile.read_row_group`` (the reader's row-group
  point read) are patched on their classes;
- ``query.sharded.ray`` is replaced by a proxy whose ``get`` is timed,
  which is the pool's wait for its shard actors.

Spans are kept in memory as ``[name, start, end, parent, count]`` lists
and summarised when the run ends.  A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import time

from searchengine_ray.query.sharded import IndexShard

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        out, self.spans = self.spans, []
        return out


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if counter is not None:
            tracer.spans[i][COUNT] = counter(out, args, kwargs)
        return out

    return traced


def _row_group_bytes(out, args, kwargs) -> int:
    """On-disk (compressed) bytes of the column chunks a row-group read
    fetched."""
    pf, rg = args[0], args[1]
    cols = kwargs.get("columns", args[2] if len(args) > 2 else None)
    md = pf.metadata.row_group(rg)
    return sum(
        md.column(j).total_compressed_size for j in range(md.num_columns)
        if cols is None or md.column(j).path_in_schema in cols)


class _RayProxy:
    """Stands in for the ``ray`` module inside ``query.sharded``."""

    def __init__(self, ray_module, get):
        self._ray = ray_module
        self.get = get

    def __getattr__(self, name):
        return getattr(self._ray, name)


def boundaries():
    """(owner, attribute, span name, counter) for every wrapped boundary."""
    import pyarrow.parquet as pq
    from searchengine_ray import vbyte
    from searchengine_ray.query import engine, reader, sharded

    return [
        (engine, "parse_query", "parser", None),
        (engine, "rank_documents_exact", "ranked.exact", None),
        (engine, "rank_bm25_wand", "ranked.wand", None),
        (sharded, "rank_documents_exact", "ranked.exact", None),
        (engine.QueryEngine, "ranked_query", "engine.ranked", None),
        (engine.QueryEngine, "boolean_query", "engine.boolean", None),
        (reader.DiskIndexReader, "__init__", "reader.open", None),
        (reader.DiskIndexReader, "get_postings", "reader.get_postings",
         lambda out, a, k: len(out)),
        (reader.DiskIndexReader, "read_fragment_row", "reader.fragment_row",
         None),
        (pq.ParquetFile, "read_row_group", "reader.row_read",
         _row_group_bytes),
        (vbyte, "decode", "vbyte.decode", lambda out, a, k: out.size),
        (sharded.ShardedQueryPool, "ranked_many", "sharded.batch", None),
        (sharded.ShardedQueryPool, "_merge_ranked", "sharded.merge", None),
    ]


class Patches:
    """Installs the wrappers for one tracer; ``remove`` restores every
    original object exactly."""

    def __init__(self, tracer: Tracer):
        from searchengine_ray.query import sharded

        self._saved = []
        for owner, attr, name, counter in boundaries():
            orig = owner.__dict__[attr]
            if isinstance(orig, staticmethod):
                new = staticmethod(_wrap(tracer, name, orig.__func__, counter))
            else:
                new = _wrap(tracer, name, orig, counter)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        ray_mod = sharded.ray
        self._saved.append((sharded, "ray", ray_mod))
        sharded.ray = _RayProxy(
            ray_mod, _wrap(tracer, "sharded.actor_wait", ray_mod.get))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []


class TracedIndexShard(IndexShard):
    """An ``IndexShard`` that traces inside its actor process.  The serve
    workload puts it where ``ShardedQueryPool`` looks ``IndexShard`` up."""

    def __init__(self, index_dir, buckets):
        self._tracer = Tracer()
        self._patches = Patches(self._tracer)
        super().__init__(index_dir, buckets)

    def perfbench_trace(self, on: bool) -> None:
        if on and self._patches is None:
            self._patches = Patches(self._tracer)
        elif not on and self._patches is not None:
            self._patches.remove()
            self._patches = None

    def perfbench_spans(self) -> list[list]:
        return self._tracer.take()


# ---- summaries ----

def self_time(spans: list[list], children: list[list[int]], i: int) -> float:
    """Duration of span ``i`` minus the union of its children's
    intervals (clipped to the span)."""
    s, e = spans[i][START], spans[i][END]
    ivs = sorted((max(spans[c][START], s), min(spans[c][END], e))
                 for c in children[i])
    covered, cur_s, cur_e = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = a, b
        else:
            cur_e = max(cur_e, b)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (e - s) - covered


def summarize(span_lists: list[list[list]]) -> dict:
    """Sums over every span list (one list per process) by layer."""
    tot = dict.fromkeys((
        "get_postings_calls", "cache_hits", "fetch_self_s", "row_reads",
        "row_read_s", "bytes_read", "decode_calls", "decode_s",
        "values_decoded", "parser_s", "ast_eval_self_s", "score_self_s",
        "postings_scored", "wand_queries", "batches", "batch_s", "merge_s",
        "actor_wait_s"), 0)
    opens = []
    for spans in span_lists:
        children: list[list[int]] = [[] for _ in spans]
        for i, sp in enumerate(spans):
            if sp[PARENT] >= 0:
                children[sp[PARENT]].append(i)
        for i, sp in enumerate(spans):
            name, dur = sp[NAME], sp[END] - sp[START]
            if name == "reader.get_postings":
                tot["get_postings_calls"] += 1
                tot["cache_hits"] += not children[i]
                tot["fetch_self_s"] += self_time(spans, children, i)
                p = sp[PARENT]
                if p >= 0 and spans[p][NAME] == "ranked.exact":
                    tot["postings_scored"] += sp[COUNT]
            elif name == "reader.row_read":
                tot["row_reads"] += 1
                tot["row_read_s"] += dur
                tot["bytes_read"] += sp[COUNT]
            elif name == "vbyte.decode":
                tot["decode_calls"] += 1
                tot["decode_s"] += dur
                tot["values_decoded"] += sp[COUNT]
            elif name == "parser":
                tot["parser_s"] += dur
            elif name == "engine.boolean":
                tot["ast_eval_self_s"] += self_time(spans, children, i)
            elif name == "ranked.exact":
                tot["score_self_s"] += self_time(spans, children, i)
            elif name == "ranked.wand":
                tot["wand_queries"] += 1
            elif name == "sharded.batch":
                tot["batches"] += 1
                tot["batch_s"] += dur
            elif name == "sharded.merge":
                tot["merge_s"] += dur
            elif name == "sharded.actor_wait":
                tot["actor_wait_s"] += dur
            elif name == "reader.open":
                opens.append(dur)
    tot["reader_opens"] = opens
    return tot
