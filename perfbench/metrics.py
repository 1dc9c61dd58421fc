"""Metric definitions of the repository benchmark and their computation.

Every metric is reported on every workload.  End-to-end metrics come from
the untraced run (--trace 0); per-layer metrics from the traced run
(--trace 1), which measures the same workload untraced for the first half
of its window and traced (GxB_Stats_enable(1) plus the benchmark's spans)
for the second half.

Counts marked "count/op" are totals over the traced half divided by the
number of solves (pagerank, triangles) or reader queries (tenants) in it.
Counters are read through GxB_Stats_json and are never its "ns" fields,
which bill deferred work to whichever call forced it.
"""

import statistics

WORKLOADS = {
    "pagerank": "vector kernels, eWise fusion and per-call overhead of 20 "
                "PageRank iterations on a directed R-MAT scale-16 graph",
    "triangles": "masked SpGEMM on skewed rows (accumulator choice, "
                 "masked-dot model, transpose cache) on a symmetric R-MAT "
                 "scale-15 graph",
    "tenants": "two BFS readers and one setElement/serialize writer, each "
               "in its own 1-thread context: small calls, barriers and "
               "locks under concurrency",
}

# The highest of p50/75/90/95/99/99.9 with at least ten samples beyond it
# at the benchmark's run length, fixed per workload so that a run's tail
# metric is always the same percentile.
TAIL_PERCENTILE = {"pagerank": 75, "triangles": 95, "tenants": 99}

# name, unit, better, bound, what the issue calls it per workload, meaning
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "library time from GrB_init through build, first materialize and the "
     "first warm-up solve or query; median of the run's set-ups"),
    ("latency_ms_p50", "ms", "lower", 0.25,
     "median time of one solve (pagerank, triangles: solve_ms_p50) or one "
     "reader BFS query (tenants: query_ms_p50), result read back"),
    ("latency_ms_tail", "ms", "lower", 0.25,
     "the same at the workload's tail percentile (solve_ms_tail, "
     "query_ms_tail)"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "solves or reader queries completed per second of the closed-loop "
     "window (tenants: queries_per_s over both readers)"),
    ("ingest_edges_per_s", "edges/s", "higher", 0.25,
     "tenants: writer edges per second of setElement, wait, reduce and "
     "checkpoint time; pagerank, triangles: tuples per second of "
     "GrB_Matrix_build plus first materialize"),
    ("abstraction_tax", "ratio", "lower", 0.2,
     "latency_ms_p50 divided by the median of the hand-written "
     "single-threaded CSR loop on the exported graph"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "maximum resident set size of the process (getrusage)"),
    ("ok_frac", "frac", "higher", 0.01,
     "share of attempts (calls and output checks) that succeeded; the run "
     "fails outright on any mismatch"),
]

# name, unit, better, layer, end-to-end metric it should move, workloads
# (those after "->" are predicted not to move)
PER_LAYER = [
    ("algorithms.calls_per_solve", "count/op", "lower", "algorithms", "latency_ms_p50", "pagerank, triangles"),
    ("capi.nvals_ns", "ns", "lower", "capi", "ingest_edges_per_s, latency_ms_p50", "tenants -> pagerank, triangles"),
    ("capi.setElement_ns", "ns", "lower", "capi", "ingest_edges_per_s", "tenants"),
    ("exec.wait_ms", "ms", "lower", "exec", "ingest_edges_per_s", "tenants"),
    ("exec.queue.enqueued", "count/op", "lower", "exec", "latency_ms_p50", "pagerank"),
    ("exec.queue.high_water", "count", "lower", "exec", "latency_ms_p50", "pagerank"),
    ("exec.fusion.ops_fused", "count/op", "higher", "exec", "latency_ms_p50", "pagerank -> triangles"),
    ("exec.fusion.dead_writes", "count/op", "higher", "exec", "latency_ms_p50", "pagerank -> triangles"),
    ("exec.pool.busy", "count", "higher", "exec", "latency_ms_p50", "pagerank, triangles -> tenants"),
    ("exec.pool.parks", "count/op", "lower", "exec", "latency_ms_p50", "pagerank, triangles -> tenants"),
    ("exec.pool.steals", "count/op", "lower", "exec", "latency_ms_p50", "pagerank, triangles -> tenants"),
    ("exec.lock.contended", "count/op", "lower", "exec", "latency_ms_tail", "tenants -> pagerank, triangles"),
    ("exec.lock.wait_ns", "ns/op", "lower", "exec", "latency_ms_tail", "tenants -> pagerank, triangles"),
    ("containers.build_ms", "ms", "lower", "containers", "setup_s", "all"),
    ("containers.format.switches", "count/op", "lower", "containers", "latency_ms_p50, ingest_edges_per_s", "pagerank, tenants"),
    ("containers.format.csr_conversions", "count/op", "lower", "containers", "latency_ms_p50, ingest_edges_per_s", "pagerank, tenants"),
    ("containers.transpose_cache.hits", "count/op", "higher", "containers", "latency_ms_p50", "triangles"),
    ("containers.transpose_cache.misses", "count/op", "lower", "containers", "latency_ms_p50", "triangles"),
    ("containers.pending.high_water", "count", "lower", "containers", "ingest_edges_per_s", "tenants"),
    ("containers.mem_peak_bytes", "bytes", "lower", "containers", "peak_rss_mb", "all"),
    ("ops.spgemm.flops", "count/op", "lower", "ops", "latency_ms_p50", "triangles -> pagerank"),
    ("ops.spgemm.rows_hash", "count/op", "lower", "ops", "latency_ms_p50", "triangles -> pagerank"),
    ("ops.spgemm.rows_dense", "count/op", "lower", "ops", "latency_ms_p50", "triangles -> pagerank"),
    ("ops.arena.reuse_hits", "count/op", "higher", "ops", "latency_ms_p50", "triangles"),
    ("ops.arena.reuse_misses", "count/op", "lower", "ops", "latency_ms_p50", "triangles"),
] + [
    ("ops.calls." + op, "count/op", "lower", "ops", "latency_ms_p50", "pagerank, triangles")
    for op in ("GrB_vxm", "GrB_mxm", "GrB_eWiseMult", "GrB_eWiseAdd",
               "GrB_apply", "GrB_reduce", "GrB_assign", "GrB_select")
] + [
    ("ops.vxm_ms", "ms", "lower", "ops", "latency_ms_p50", "tenants"),
    ("ops.assign_ms", "ms", "lower", "ops", "latency_ms_p50", "tenants"),
    ("containers.nvals_ms", "ms", "lower", "containers", "latency_ms_p50", "tenants"),
    ("io.serialize_ms", "ms", "lower", "io", "ingest_edges_per_s", "tenants"),
    ("io.deserialize_ms", "ms", "lower", "io", "ingest_edges_per_s", "tenants"),
    ("io.bytes_per_entry", "bytes", "lower", "io", "ingest_edges_per_s", "tenants"),
    ("io.export_ms", "ms", "lower", "io", "none (benchmark-only)", "all"),
    ("obs.decision.records", "count/op", "lower", "obs", "none", "triangles"),
    ("obs.decision.mispredicts", "count/op", "lower", "obs", "none", "triangles"),
    ("obs.trace_overhead_frac", "frac", "lower", "obs", "none", "all"),
    ("baseline.hand_ms_p50", "ms", "lower", "baseline", "must not move between commits", "all"),
]

# Lock sites whose "contention" is an idle worker parking, not a caller
# waiting for a lock; they are reported as exec.pool.parks instead.
IDLE_LOCK_SITES = {"ThreadPool::park"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not xs:
        return 0.0, 0
    s = sorted(xs)
    rank = max(1, -(-len(s) * pct // 100))  # ceil
    return s[int(rank) - 1], len(s) - int(rank)


def end_to_end(rep):
    """Returns {name: (value, note)} for every end-to-end metric."""
    w = rep["workload"]
    lat = rep["lat_ms"]
    pct = TAIL_PERCENTILE[w]
    tail, beyond = percentile(lat, pct)
    p50 = median(lat)
    hand = median(rep["hand_ms"])
    if w == "tenants":
        ingest = rep["ingest_edges"] / rep["ingest_s"] if rep["ingest_s"] > 0 else 0.0
        ingest_note = "%d edges in %.3f s of writer loop" % (rep["ingest_edges"], rep["ingest_s"])
    else:
        b = median(rep["build_ms"])
        ingest = rep["build_edges"] / (b / 1e3) if b > 0 else 0.0
        ingest_note = "%d tuples, median of %d builds" % (rep["build_edges"], len(rep["build_ms"]))
    att = rep["attempted"]
    return {
        "setup_s": (median(rep["setup_s"]), "median of %d set-ups" % len(rep["setup_s"])),
        "latency_ms_p50": (p50, "n=%d" % len(lat)),
        "latency_ms_tail": (tail, "p%d, n=%d, %d samples beyond" % (pct, len(lat), beyond)),
        "ops_per_s": (rep["ops_per_s"], "%d in %.3f s less hand-loop time" % (len(lat), rep["window_s"])),
        "ingest_edges_per_s": (ingest, ingest_note),
        "abstraction_tax": (p50 / hand if hand > 0 else 0.0,
                            "hand median %.4f ms, n=%d" % (hand, len(rep["hand_ms"]))),
        "peak_rss_mb": (rep["peak_rss_kb"] / 1024.0, "getrusage ru_maxrss"),
        "ok_frac": ((att - rep["failed"]) / att if att else 0.0,
                    "%d of %d attempts" % (att - rep["failed"], att)),
    }


def _span_durations(spans):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append((s["end_ns"] - s["start_ns"]) / 1e6)
    return by_name


def per_layer(rep, spans):
    """Returns {name: (value, note)} for every per-layer metric."""
    w = rep["workload"]
    stats = rep["stats"]
    units = max(1, rep["traced_units"])
    g = stats["global"]
    ops = stats["ops"]
    durs = _span_durations(spans)

    def per_op(v):
        return v / units

    def calls(base, op_table):
        return sum(v["calls"] for k, v in op_table.items() if k.split("<")[0] == base)

    if w == "tenants":
        grb_calls = sum(
            v["calls"]
            for cid in rep["reader_ctx_ids"]
            for k, v in stats["contexts"].get(str(int(cid)), {}).get("ops", {}).items()
            if k.startswith("GrB_"))
    else:
        grb_calls = sum(v["calls"] for k, v in ops.items() if k.startswith("GrB_"))
    locks = {k: v for k, v in stats.get("locks", {}).items() if k not in IDLE_LOCK_SITES}
    pools = stats.get("pools", {}).values()
    masked_dot = stats.get("decisions", {}).get("sites", {}).get("masked_dot", {})
    set_ms = durs.get("capi.setElement", [])
    batch = rep.get("writer_batch", 0)
    traced = median(rep["traced_lat_ms"])
    untraced = median(rep["lat_ms"])

    m = {
        "algorithms.calls_per_solve": per_op(grb_calls),
        "capi.nvals_ns": median(rep["nvals_ns"]),
        "capi.setElement_ns": median(set_ms) * 1e6 / batch if batch else 0.0,
        "exec.wait_ms": median(durs.get("exec.wait", [])),
        "exec.queue.enqueued": per_op(g["queue.enqueued"]),
        "exec.queue.high_water": g["queue.high_water"],
        "exec.fusion.ops_fused": per_op(g["fusion.ops_fused"]),
        "exec.fusion.dead_writes": per_op(g["fusion.dead_writes_eliminated"]),
        "exec.pool.busy": sum(p["busy_high_water"] for p in pools),
        "exec.pool.parks": per_op(sum(p["parks"] for p in pools)),
        "exec.pool.steals": per_op(sum(p["steals"] for p in pools)),
        "exec.lock.contended": per_op(sum(v["contended"] for v in locks.values())),
        "exec.lock.wait_ns": per_op(sum(v["wait_ns"] for v in locks.values())),
        "containers.build_ms": median(rep["build_ms"]),
        "containers.format.switches": per_op(g["format.switches"]),
        "containers.format.csr_conversions": per_op(g["format.csr_conversions"]),
        "containers.transpose_cache.hits": per_op(g["format.transpose_cache_hits"]),
        "containers.transpose_cache.misses": per_op(g["format.transpose_cache_misses"]),
        "containers.pending.high_water": g["pending.high_water"],
        "containers.mem_peak_bytes": g["mem.peak_bytes"],
        "ops.spgemm.flops": per_op(g["spgemm.flops_estimated"]),
        "ops.spgemm.rows_hash": per_op(g["spgemm.rows_hash"]),
        "ops.spgemm.rows_dense": per_op(g["spgemm.rows_dense"]),
        "ops.arena.reuse_hits": per_op(g["arena.reuse_hits"]),
        "ops.arena.reuse_misses": per_op(g["arena.reuse_misses"]),
        "ops.vxm_ms": median(durs.get("ops.vxm", [])),
        "ops.assign_ms": median(durs.get("ops.assign", [])),
        "containers.nvals_ms": median(durs.get("containers.nvals", [])),
        "io.serialize_ms": median(durs.get("io.serialize", [])),
        "io.deserialize_ms": median(durs.get("io.deserialize", [])),
        "io.bytes_per_entry": median(rep.get("bytes_per_entry", [])),
        "io.export_ms": rep["export_ms"],
        "obs.decision.records": per_op(masked_dot.get("records", 0)),
        "obs.decision.mispredicts": per_op(masked_dot.get("mispredicts", 0)),
        "obs.trace_overhead_frac": traced / untraced - 1.0 if untraced > 0 else 0.0,
        "baseline.hand_ms_p50": median(rep["hand_ms"]),
    }
    for name, *_ in PER_LAYER:
        if name.startswith("ops.calls."):
            m[name] = per_op(calls(name[len("ops.calls."):], ops))
    note = "traced half: %d ops" % units
    return {k: (v, note) for k, v in m.items()}
