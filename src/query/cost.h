#ifndef ESDB_QUERY_COST_H_
#define ESDB_QUERY_COST_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "query/ast.h"
#include "query/plan.h"
#include "storage/index_spec.h"
#include "storage/segment.h"

namespace esdb {

// Aggregated view of the per-segment column sketches
// (storage/column_stats.h) across every snapshot a query pinned — one
// snapshot per target shard. ColumnStats pointers are borrowed from
// the snapshots, which outlive the cost pass: the query holds them for
// its whole run.
class StatsView {
 public:
  // Collects sketches from the hot segments of `snapshots`. Cold
  // segments contribute doc counts only (pinning them just to plan
  // would defeat tiering); their docs read as "unknown", which the
  // estimators treat as unselective.
  static StatsView Collect(const std::vector<SegmentSnapshot>& snapshots);

  uint64_t total_docs() const { return total_docs_; }
  // True when at least one segment contributed sketches.
  bool has_stats() const { return !segments_.empty(); }

  // Estimated fraction of all docs matching `column` == <one value>.
  // Returns 1.0 when nothing is known about the column's data —
  // unknown selectivity must never make a predicate look selective.
  double EqFraction(const std::string& column) const;
  // Estimated fraction of all docs whose encoded value falls in
  // [lo, hi) (Value::EncodeSortable byte order).
  double RangeFraction(const std::string& column, std::string_view lo,
                       std::string_view hi) const;

 private:
  struct SegmentStats {
    const ColumnStats* stats = nullptr;  // borrowed from the snapshot
    uint64_t num_docs = 0;
  };
  std::vector<SegmentStats> segments_;
  uint64_t total_docs_ = 0;  // across ALL segments, sketched or not
  uint64_t stats_docs_ = 0;  // docs covered by sketches
};

// Outcome of the transform pass, rendered by EXPLAIN and surfaced
// through ExecStats::plans_costed.
struct CostDecision {
  // Comma-joined names of the transforms that rewrote the plan
  // ("index-topk", "stats-only", "demote-filter"), or "none".
  std::string transform = "none";
};

// Statistics-driven transform pass over the rule-based physical plan
// (ORCA-style: the RBO output is treated as the initial expression and
// rewritten by independent, result-preserving transforms):
//
//  1. demote-filter — an unselective single-column index leaf under an
//     AND is demoted to a doc-value filter over the selective anchor's
//     candidates (cheaper than materializing its posting union);
//  2. index-topk — ORDER BY <col> LIMIT k over a composite index whose
//     next-after-equality column is <col> walks the index in key order
//     and stops after offset+limit live matches (kIndexTopK);
//  3. stats-only — unfiltered or equality-prefix COUNT/MIN/MAX are
//     answered from segment sketches / index bounds (kStatsOnly)
//     without touching postings.
//
// All transforms preserve results byte-for-byte; only access paths and
// early-termination behaviour change. Requires `*plan` non-null.
CostDecision ApplyCostTransforms(const Query& query, const IndexSpec& spec,
                                 const StatsView& stats,
                                 std::unique_ptr<PlanNode>* plan);

// Estimated fraction of docs matched by `plan` given `stats`; exposed
// for tests and EXPLAIN (estimated rows = fraction * total_docs).
double EstimatePlanFraction(const StatsView& stats, const IndexSpec& spec,
                            const PlanNode& plan);

}  // namespace esdb

#endif  // ESDB_QUERY_COST_H_
