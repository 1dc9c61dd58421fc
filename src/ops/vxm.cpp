// GrB_vxm: w<m,r> = w (+) u^T * A over a semiring.
#include "obs/telemetry.hpp"
#include "ops/mxm.hpp"

namespace grb {

Info vxm(Vector* w, const Vector* mask, const BinaryOp* accum,
         const Semiring* s, const Vector* u, const Matrix* a,
         const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u, a}));
  if (s == nullptr || a == nullptr || u == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  // In vxm, INP1 is the matrix.
  Index ar = d.tran1() ? a->ncols() : a->nrows();
  Index ac = d.tran1() ? a->nrows() : a->ncols();
  if (ar != u->size() || ac != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->xtype(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->ytype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(w->type(), s->mul()->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), s->mul()->ztype()));

  std::shared_ptr<const MatrixData> a_snap;
  std::shared_ptr<const VectorData> u_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t1 = d.tran1();
  FuseNode node =
      product_node(mask == nullptr && accum == nullptr && !d.mask_comp());
  return defer_or_run(w, [w, a_snap, u_snap, m_snap, s, spec, t1]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t1 ? format_transpose_view(a_snap) : a_snap;
    size_t work = av->nvals() + u_snap->nvals();
    Context* ectx = exec_context(w->context(), work);
    // A hypersparse column dimension stays on the adaptive serial SPA,
    // which works within the byte budget.
    bool pull =
        ectx->effective_nthreads() > 1 && transpose_affordable(av->ncols);
    std::shared_ptr<VectorData> t = with_semiring_runner(
        s, u_snap->type, av->type, [&](const auto& runner) {
          if (pull) {
            // Parallel path: column dot products over A'.  Fold order
            // per output entry matches the serial SPA (ascending row
            // index), so the result is bitwise-identical to it.
            auto at = format_transpose_view(av);
            return dot_kernel<true>(ectx, *at, nullptr, *u_snap,
                                    s->mul()->ztype(), runner);
          }
          return vxm_spa(*u_snap, *av, s->mul()->ztype(), runner);
        });
    if (obs::stats_enabled()) obs::add_flops(av->nvals());
    publish_product(w, w->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  }, std::move(node));
}

}  // namespace grb
