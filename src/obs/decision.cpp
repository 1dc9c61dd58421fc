#include "obs/decision.hpp"

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unordered_map>

#include "obs/event_ring.hpp"

namespace grb {
namespace obs {

namespace {

// Decision events below this seq predate the last decision_reset and
// are hidden from the audit views.
std::atomic<uint64_t> g_floor{0};

// Explain renders at most this many records; the audit is a "last N
// decisions" window, the aggregates carry the long-run truth.  It is
// also the ring reservation the audit makes when the flight recorder is
// off.
constexpr uint64_t kExplainRecords = 256;

// Per-site aggregates.  The unit sums are in site-specific cost units,
// so mispredict *rates* and the aggregate predicted-vs-measured ratio
// survive ring wrap.
enum SiteField : int {
  kRecords, kMeasured, kMispredicts, kPredictedUnits, kMeasuredUnits,
  kSiteFields
};
std::atomic<uint64_t> g_sites[kDecisionSiteCount][kSiteFields] = {};

void site_add(DecisionSite site, SiteField f, uint64_t n) {
  g_sites[static_cast<uint8_t>(site)][f].fetch_add(n,
                                                   std::memory_order_relaxed);
}
template <SiteField F>
uint64_t site_count(const DecisionSite& site) {
  return g_sites[static_cast<uint8_t>(site)][F].load(
      std::memory_order_relaxed);
}
uint64_t site_total(SiteField f) {
  uint64_t n = 0;
  for (const auto& site : g_sites) n += site[f].load(std::memory_order_relaxed);
  return n;
}

constexpr const char* kSiteNames[kDecisionSiteCount] = {
    "exec_path",      "spgemm_accum",    "masked_dot",
    "format_adapt",   "transpose_cache", "fusion_plan",
};

// A measurement counts as mispredicted when the model's work estimate
// for the chosen strategy was off by more than 2x either way — the
// cost inputs, not the comparison, were wrong.  Both values must be
// positive: timing-only sites (units 0) never mispredict.
bool is_mispredict(double predicted, uint64_t units) {
  if (units == 0 || !(predicted > 0)) return false;
  double u = static_cast<double>(units);
  return u > 2.0 * predicted || 2.0 * u < predicted;
}

const char* str(uint64_t bits) {
  return reinterpret_cast<const char*>(static_cast<uintptr_t>(bits));
}
uint64_t bits(const char* p) { return reinterpret_cast<uintptr_t>(p); }
// The ring keeps the two costs of a record as floats in one word: seven
// significant digits, exact for integers below 2^24; the aggregates sum
// the doubles.
uint32_t float_bits(double v) {
  return std::bit_cast<uint32_t>(static_cast<float>(v));
}

uint64_t cost_units(double cost) {
  if (!(cost > 0)) return 0;
  return static_cast<uint64_t>(std::llround(cost));
}

}  // namespace

const char* decision_site_name(DecisionSite site) {
  uint8_t i = static_cast<uint8_t>(site);
  return i < kDecisionSiteCount ? kSiteNames[i] : "?";
}

DecisionTicket decision_record(DecisionSite site, const char* chosen,
                               const char* rejected, double predicted_cost,
                               double alternative_cost, const char* op) {
  DecisionTicket ticket;
  if (!decision_enabled()) return ticket;
  ticket.t0 = now_ns();
  ticket.seq = record(
      EventKind::kDecision, op != nullptr ? op : current_op(),
      static_cast<int32_t>(site),
      {.ts = ticket.t0,
       .ctx = current_ctx(),
       .a = bits(chosen),
       .b = bits(rejected),
       .c = float_bits(predicted_cost) |
            uint64_t{float_bits(alternative_cost)} << 32});
  site_add(site, kRecords, 1);
  site_add(site, kPredictedUnits, cost_units(predicted_cost));
  ticket.predicted = predicted_cost;
  ticket.site = site;
  return ticket;
}

void decision_measure(const DecisionTicket& ticket, uint64_t measured_units) {
  if (ticket.seq == 0 || !decision_enabled()) return;
  const uint64_t t1 = now_ns();
  const bool mp = is_mispredict(ticket.predicted, measured_units);
  site_add(ticket.site, kMeasured, 1);
  site_add(ticket.site, kMeasuredUnits, measured_units);
  if (mp) site_add(ticket.site, kMispredicts, 1);
  // The outcome is its own event, joined to the record by seq: the
  // record is never written twice, so a writer lapping the ring can
  // lose the pair but never mix two decisions into one row.
  record(EventKind::kDecisionMeasured, decision_site_name(ticket.site),
         mp ? 1 : 0,
         {.ts = t1, .a = ticket.seq, .b = t1 - ticket.t0, .c = measured_units});
}

void decision_set_enabled(bool on) {
  if (on) {
    ring_reserve(RingUser::kDecision, kExplainRecords);
    detail::g_flags.fetch_or(kDecisionFlag, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~kDecisionFlag, std::memory_order_relaxed);
    ring_reserve(RingUser::kDecision, 0);
  }
}

void decision_reset() {
  for (auto& site : g_sites)
    for (auto& c : site) c.store(0, std::memory_order_relaxed);
  g_floor.store(ring_head(), std::memory_order_relaxed);
}

int decision_snapshot(DecisionRecord* out, int max_records, const char* op,
                      uint64_t ctx) {
  // Newest first, so each outcome is seen before the record it joins.
  std::unordered_map<uint64_t, Event> outcomes;
  int n = 0;
  scan(g_floor.load(std::memory_order_relaxed), true, [&](const Event& e) {
    if (e.kind == EventKind::kDecisionMeasured) outcomes.emplace(e.f.a, e);
    if (e.kind != EventKind::kDecision) return true;
    DecisionRecord r;
    auto m = outcomes.find(e.seq + 1);
    if (m != outcomes.end()) {
      r.measured = true;
      r.mispredict = m->second.info != 0;
      r.measured_ns = m->second.f.b;
      r.measured_units = m->second.f.c;
      outcomes.erase(m);
    }
    if ((op != nullptr && op[0] != '\0' && std::strcmp(op, e.name) != 0) ||
        (ctx != 0 && e.f.ctx != ctx))
      return true;
    r.seq = e.seq + 1;
    r.ts_ns = e.f.ts;
    r.ctx = e.f.ctx;
    r.site = static_cast<DecisionSite>(e.info);
    r.op = e.name;
    r.chosen = str(e.f.a);
    r.rejected = str(e.f.b);
    r.predicted_cost = std::bit_cast<float>(static_cast<uint32_t>(e.f.c));
    r.alternative_cost = std::bit_cast<float>(static_cast<uint32_t>(e.f.c >> 32));
    out[n++] = r;
    return max_records <= 0 || n < max_records;
  });
  return n;
}

namespace {

uint64_t ring_slots(const Process&) { return ring_capacity(); }
uint64_t ring_recorded(const Process&) { return site_total(kRecords); }

constexpr auto kCounter = MetricKind::kCounter;

const Metric<DecisionSite> kSiteMetrics[] = {
    {"records", "grb_decision_records_total", "", kCounter,
     "Adaptive cost-model decisions recorded per site.", &site_count<kRecords>},
    {"measured", "grb_decision_measured_total", "", kCounter,
     "Decisions completed with a post-execution measurement.",
     &site_count<kMeasured>},
    {"mispredicts", "grb_decision_mispredicts_total", "", kCounter,
     "Measured decisions whose predicted work was off by more than 2x.",
     &site_count<kMispredicts>},
    {"predicted_units", "grb_decision_predicted_units_total", "", kCounter,
     "Predicted work of the chosen strategies, in site cost units.",
     &site_count<kPredictedUnits>},
    {"measured_units", "grb_decision_measured_units_total", "", kCounter,
     "Measured work of the chosen strategies, in site cost units.",
     &site_count<kMeasuredUnits>},
};

const Metric<Process> kRingMetrics[] = {
    {"ring_capacity", "grb_decision_ring_capacity", "", MetricKind::kGauge,
     "Event-ring slots the decision records share.", &ring_slots},
    {"recorded", "grb_decision_ring_recorded_total", "", kCounter,
     "Decisions written to the ring since the last reset.", &ring_recorded},
};

}  // namespace

std::string decision_explain(const char* op, uint64_t ctx) {
  std::string text;
  char line[256];
  const uint64_t total_records = site_total(kRecords);
  if (!decision_enabled() && total_records == 0) {
    return "decision audit disabled: enable with GxB_Stats_enable(true) "
           "or GRB_DECISIONS=1\n";
  }
  std::snprintf(line, sizeof line,
                "decision audit: %" PRIu64 " recorded, %" PRIu64
                " measured, %" PRIu64 " mispredicted (ring capacity %" PRIu64
                ")\n",
                total_records, site_total(kMeasured), site_total(kMispredicts),
                ring_capacity());
  text.append(line);
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    const auto site = static_cast<DecisionSite>(i);
    if (site_count<kRecords>(site) == 0) continue;
    std::snprintf(line, sizeof line, "  site %-15s", kSiteNames[i]);
    text.append(line);
    for (const Metric<DecisionSite>& m : kSiteMetrics)
      text.append(" ").append(m.name).append("=").append(
          std::to_string(m.read(site)));
    text.push_back('\n');
  }
  DecisionRecord rows[kExplainRecords];
  int n = decision_snapshot(rows, static_cast<int>(kExplainRecords), op, ctx);
  if (n == 0) {
    text.append(total_records == 0
                    ? "  no decisions recorded yet\n"
                    : "  no ring records match the filter\n");
    return text;
  }
  std::snprintf(line, sizeof line, "  newest %d record(s)%s%s:\n", n,
                (op != nullptr && op[0] != '\0') ? " for op " : "",
                (op != nullptr && op[0] != '\0') ? op : "");
  text.append(line);
  for (int i = 0; i < n; ++i) {
    const DecisionRecord& r = rows[i];
    std::snprintf(line, sizeof line,
                  "  [#%" PRIu64 "] %s %s ctx=%" PRIu64
                  ": chose %s over %s (predicted %g vs %g units)",
                  r.seq, r.op, decision_site_name(r.site), r.ctx, r.chosen,
                  r.rejected, r.predicted_cost, r.alternative_cost);
    text.append(line);
    if (r.measured) {
      std::snprintf(line, sizeof line,
                    "; measured %" PRIu64 " ns, %" PRIu64 " units%s",
                    r.measured_ns, r.measured_units,
                    r.mispredict ? " MISPREDICT" : "");
      text.append(line);
    }
    text.push_back('\n');
  }
  return text;
}

MetricTable<DecisionSite> decision_site_metrics() { return kSiteMetrics; }
MetricTable<Process> decision_ring_metrics() { return kRingMetrics; }

void decision_env_activate() {
  const char* v = std::getenv("GRB_DECISIONS");
  if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0)
    decision_set_enabled(true);
}

}  // namespace obs
}  // namespace grb
