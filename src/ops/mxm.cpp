// GrB_mxm: C<M,r> = C (+) A*B over a semiring.
#include "containers/format.hpp"
#include "obs/decision.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "ops/mxm.hpp"

namespace grb {
namespace {

// The masked-dot kernel's merge-list work, exactly what the cost model
// estimates from average degrees: for each mask entry (i,j) the lengths
// of A(i,:) and B'(j,:), plus nnz(B) for the transpose of B.
uint64_t masked_dot_work(const MatrixData& a, const MatrixData& bt,
                         const MatrixData& mask) {
  uint64_t work = bt.nvals();
  for (Index i = 0; i < mask.nrows && i < a.nrows; ++i) {
    const uint64_t arow = a.ptr[i + 1] - a.ptr[i];
    for (size_t km = mask.ptr[i]; km < mask.ptr[i + 1]; ++km) {
      const Index j = mask.col[km];
      if (j < bt.nrows) work += arow + (bt.ptr[j + 1] - bt.ptr[j]);
    }
  }
  return work;
}

}  // namespace

Info mxm(Matrix* c, const Matrix* mask, const BinaryOp* accum,
         const Semiring* s, const Matrix* a, const Matrix* b,
         const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a, b}));
  if (s == nullptr || a == nullptr || b == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index br = d.tran1() ? b->ncols() : b->nrows();
  Index bc = d.tran1() ? b->nrows() : b->ncols();
  if (ac != br) return Info::kDimensionMismatch;
  if (ar != c->nrows() || bc != c->ncols()) return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->ytype(), b->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), s->mul()->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), s->mul()->ztype()));

  std::shared_ptr<const MatrixData> a_snap, b_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(b)->snapshot(&b_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0(), t1 = d.tran1();
  FuseNode node =
      product_node(mask == nullptr && accum == nullptr && !d.mask_comp());
  return defer_or_run(
      c,
      [c, a_snap, b_snap, m_snap, s, spec, t0, t1]() -> Info {
        std::shared_ptr<const MatrixData> av =
            t0 ? format_transpose_view(a_snap) : a_snap;
        std::shared_ptr<const MatrixData> bv =
            t1 ? format_transpose_view(b_snap) : b_snap;
        Context* ctx =
            exec_context(c->context(), av->nvals() + bv->nvals());
        // One symbolic pass per snapshot pair: the strategy cost model,
        // the adaptive engine and the flops telemetry all share it (and
        // the per-snapshot cache de-duplicates repeated calls on the
        // same inputs).  Computed lazily so a pinned masked-dot run
        // never pays the O(nvals(A)) scan.
        std::shared_ptr<const SpgemmRowCosts> costs;
        auto row_costs = [&]() -> const SpgemmRowCosts& {
          if (costs == nullptr) costs = spgemm_row_costs(av, bv);
          return *costs;
        };
        // Masked dot-product strategy: correct whenever the mask is
        // structural and not complemented (T is only ever read at
        // mask-true positions by the write-back).  The heuristic picks
        // it when the mask is sparse enough that per-position dots beat
        // the full Gustavson expansion.
        obs::DecisionTicket dot_ticket;
        bool run_dot = false;
        if (m_snap != nullptr && spec.mask_structure && !spec.mask_comp) {
          MxmStrategy strat = mxm_strategy();
          bool use_dot = strat == MxmStrategy::kMaskedDot;
          bool bt_ok = transpose_affordable(bv->ncols);
          if (strat == MxmStrategy::kAuto && bt_ok) {
            // Cost model: Gustavson expands every (i,k) of A into row k
            // of B; masked dot merges A(i,:) with B'(j,:) per mask entry.
            size_t avg_arow =
                av->nrows ? av->nvals() / av->nrows + 1 : 1;
            size_t avg_bcol =
                bv->ncols ? bv->nvals() / bv->ncols + 1 : 1;
            size_t flops_dot = m_snap->nvals() * (avg_arow + avg_bcol) +
                               bv->nvals();  // + transpose of B
            use_dot = flops_dot < row_costs().total;
            // Decision audit: the one genuinely adaptive branch here is
            // the auto heuristic — pinned strategies never had a choice.
            dot_ticket = obs::decision_record(
                obs::DecisionSite::kMaskedDot, use_dot ? "dot" : "saxpy",
                use_dot ? "saxpy" : "dot",
                static_cast<double>(use_dot ? flops_dot
                                            : row_costs().total),
                static_cast<double>(use_dot ? row_costs().total
                                            : flops_dot));
          }
          run_dot = use_dot && bt_ok;
        }
        std::shared_ptr<const MatrixData> bt;
        std::shared_ptr<MatrixData> t = with_semiring_runner(
            s, av->type, bv->type, [&](const auto& runner) {
              if (run_dot) {
                obs::ProfScope prof("dot");
                bt = format_transpose_view(bv);
                return mxm_masked_dot_kernel(ctx, *av, *bt, *m_snap,
                                             s->mul()->ztype(), runner);
              }
              return spgemm_mxm(ctx, *av, *bv, s->mul()->ztype(),
                                row_costs(), runner);
            });
        // Measured in the unit each side predicts: the merge-list work
        // the average-degree model estimates, or the symbolic flops.
        if (dot_ticket.seq != 0) {
          obs::decision_measure(dot_ticket,
                                run_dot
                                    ? masked_dot_work(*av, *bt, *m_snap)
                                    : row_costs().total);
        }
        if (obs::stats_enabled()) {
          // SpGEMM flop metric: every A(i,k) expands into row k of B
          // (multiply count of the Gustavson formulation) — the cached
          // symbolic total, not a second scan.
          obs::add_flops(row_costs().total);
        }
        // Hand the symbolic flop total to the format cost model: the
        // publish below re-evaluates c's storage format, and the
        // already-paid symbolic pass is a free density signal.
        if (costs != nullptr) format_hint_flops(costs->total);
        publish_product(c, ctx, std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      },
      std::move(node));
}

}  // namespace grb
