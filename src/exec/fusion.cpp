// Deferred-sequence fusion planner (see fusion.hpp).
//
// Plan shape: one linear walk of the drained batch.
//  * Dead-write elimination: the LAST killer (full_replace without
//    reading the target, not must_run) makes every earlier non-must_run
//    node dead — its only effect, writing the target, is overwritten
//    before anyone can observe it (reads force completion first, so a
//    mid-queue read never sees an elided state).  Dead pending-tuple
//    folds convert to drop_prefix so a later fold cannot resurrect the
//    killed tuples.
//  * Chain grouping: surviving contiguous runs of fusable kMap/kZip
//    nodes (length >= 2) execute as one fused pass group.  Because at
//    most one killer survives and every survivor before it is must_run
//    (never fusable), snapshot-source map heads can only open a group.
//  * Everything else runs eagerly, exactly as the pre-planner loop did.
#include "exec/fusion.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "containers/matrix.hpp"
#include "containers/vector.hpp"
#include "exec/object_base.hpp"
#include "obs/decision.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "ops/fused_exec.hpp"

namespace grb {
namespace {

// -1 = unresolved (consult GRB_FUSION on first use), else 0/1.
std::atomic<int> g_fusion{-1};

int resolve_fusion_from_env() {
  const char* env = std::getenv("GRB_FUSION");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0))
    return 0;
  return 1;
}

bool is_killer(const FuseNode& n) {
  return !n.reads_out && n.full_replace && !n.must_run &&
         n.kind != FuseNode::Kind::kFlush;
}

bool is_fusable(const FuseNode& n, bool is_vector) {
  if (n.must_run) return false;
  if (n.kind == FuseNode::Kind::kMap) return true;
  // Zip fusion is vector-only (matrix elementwise stays opaque).
  return n.kind == FuseNode::Kind::kZip && is_vector;
}

// The eager per-node execution the planner falls back to — identical to
// the historical complete() loop body, attribution included.  The scope
// replays the node's enqueue-time context so the execution is charged to
// its tenant, and flow_step closes the enqueue→exec arrow.
Info run_node_eager(Deferred& d) {
  obs::CurrentOpScope op_scope(d.op, d.ctx_id);
  if (obs::flight_enabled())
    obs::record(obs::EventKind::kDeferredExec, d.op, 0,
                {.ctx = d.ctx_id, .a = d.flow_id});
  uint64_t t0 = obs::telemetry_enabled() ? obs::now_ns() : 0;
  obs::flow_step(d.op, d.flow_id);
  Info info = d.fn();
  obs::deferred_return(d.op, t0, d.enqueued_ns, static_cast<int>(info) < 0);
  return info;
}

}  // namespace

bool fusion_enabled() {
  int v = g_fusion.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_fusion_from_env();
    g_fusion.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_fusion_enabled(bool on) {
  g_fusion.store(on ? 1 : 0, std::memory_order_relaxed);
}

Info fusion_execute_batch(ObjectBase* obj, std::vector<Deferred>& batch,
                          const char** failed_op) {
  auto run_eager_from = [&](size_t from) -> Info {
    for (size_t k = from; k < batch.size(); ++k) {
      Info info = run_node_eager(batch[k]);
      if (static_cast<int>(info) < 0) {
        *failed_op = batch[k].op;
        return info;
      }
    }
    return Info::kSuccess;
  };
  if (!fusion_enabled() || batch.size() < 2) return run_eager_from(0);

  auto* vec = dynamic_cast<Vector*>(obj);
  auto* mat = dynamic_cast<Matrix*>(obj);
  const bool is_vector = vec != nullptr;
  if (vec == nullptr && mat == nullptr) return run_eager_from(0);

  uint64_t plan_t0 = obs::trace_enabled() ? obs::now_ns() : 0;
  const size_t n = batch.size();
  constexpr size_t npos = ~size_t{0};

  // --- Dead-write elimination -------------------------------------------
  size_t last_killer = npos;
  for (size_t k = 0; k < n; ++k)
    if (is_killer(batch[k].node)) last_killer = k;
  std::vector<uint8_t> dead(n, 0);
  uint64_t dead_writes = 0;
  if (last_killer != npos) {
    for (size_t k = 0; k < last_killer; ++k) {
      if (!batch[k].node.must_run) {
        dead[k] = 1;
        ++dead_writes;
      }
    }
  }

  // --- Contiguous fusable runs ------------------------------------------
  struct Group {
    size_t b, e;  // [b, e)
  };
  std::vector<Group> groups;
  size_t run_start = npos;
  auto close_run = [&](size_t end) {
    if (run_start != npos && end - run_start >= 2)
      groups.push_back(Group{run_start, end});
    run_start = npos;
  };
  for (size_t k = 0; k < n; ++k) {
    const FuseNode& nd = batch[k].node;
    if (dead[k] != 0 || !is_fusable(nd, is_vector)) {
      close_run(k);
      continue;
    }
    // A map whose source is an input snapshot restarts the chain from
    // that snapshot; it may only open a group.
    if (nd.kind == FuseNode::Kind::kMap &&
        (nd.vsrc != nullptr || nd.msrc != nullptr))
      close_run(k);
    if (run_start == npos) run_start = k;
  }
  close_run(n);

  uint64_t chains = groups.size();
  uint64_t ops_fused = 0;
  for (const Group& g : groups) ops_fused += g.e - g.b;
  // Decision audit: one record per batch the planner actually rewrote
  // (chains found or writes killed) — predicted cost is the node count
  // the fused plan executes, the alternative the eager replay of the
  // full batch.  Measured after execution with the nodes that ran
  // fused, so a plan that predicted big fusion wins but mostly fell
  // back to eager shows up as a mispredict.
  obs::DecisionTicket plan_ticket;
  if (chains > 0 || dead_writes > 0) {
    obs::fusion_plan(chains, ops_fused, dead_writes);
    plan_ticket = obs::decision_record(
        obs::DecisionSite::kFusionPlan, "fused", "eager",
        static_cast<double>(n - dead_writes),
        static_cast<double>(n), "fusion.plan");
    if (obs::flight_enabled())
      obs::record(obs::EventKind::kFusionPlan, "fusion.plan",
                  static_cast<int32_t>(ops_fused));
    if (obs::trace_enabled()) obs::fusion_span("fusion.plan", plan_t0);
  }

  // --- Execute -----------------------------------------------------------
  size_t gi = 0;
  for (size_t k = 0; k < n; ++k) {
    if (dead[k] != 0) {
      // Dead writes are skipped wholesale (no execution, no telemetry);
      // a dead pending-tuple fold still discards its tuple prefix so a
      // later fold cannot resurrect what the killer erased.
      if (batch[k].node.kind == FuseNode::Kind::kFlush) {
        Info info = obj->drop_prefix(batch[k].node.flush_upto);
        if (static_cast<int>(info) < 0) {
          *failed_op = batch[k].op;
          return info;
        }
      }
      continue;
    }
    if (gi < groups.size() && groups[gi].b == k) {
      const Group& g = groups[gi++];
      if (obs::flight_enabled())
        obs::record(obs::EventKind::kFusionExec, batch[g.b].op,
                    static_cast<int32_t>(g.e - g.b),
                    {.ctx = batch[g.b].ctx_id, .a = batch[g.b].flow_id});
      uint64_t exec_t0 = obs::trace_enabled() ? obs::now_ns() : 0;
      Info info = is_vector
                      ? run_fused_vector_group(vec, batch, g.b, g.e)
                      : run_fused_matrix_group(mat, batch, g.b, g.e);
      if (obs::trace_enabled()) obs::fusion_span("fusion.exec", exec_t0);
      if (static_cast<int>(info) < 0) {
        *failed_op = batch[g.b].op;
        return info;
      }
      k = g.e - 1;
      continue;
    }
    Info info = run_node_eager(batch[k]);
    if (static_cast<int>(info) < 0) {
      *failed_op = batch[k].op;
      return info;
    }
  }
  obs::decision_measure(plan_ticket, n - dead_writes);
  return Info::kSuccess;
}

}  // namespace grb
