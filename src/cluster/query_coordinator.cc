#include "cluster/query_coordinator.h"

#include <algorithm>
#include <memory>

#include "query/cost.h"
#include "query/normalize.h"

namespace esdb {

bool ExtractTenant(const Expr& where, TenantId* out) {
  if (where.kind == Expr::Kind::kPred) {
    const Predicate& p = where.pred;
    if (p.column == kFieldTenantId && p.op == PredOp::kEq &&
        p.args.size() == 1 && p.args[0].is_int()) {
      *out = p.args[0].as_int();
      return true;
    }
    return false;
  }
  if (where.kind == Expr::Kind::kAnd) {
    for (const auto& c : where.children) {
      if (ExtractTenant(*c, out)) return true;
    }
  }
  return false;
}

std::vector<ShardId> RouteQuery(const Query& query,
                                const RoutingPolicy& routing) {
  // Tenant-scoped queries touch only the consecutive run the routing
  // policy names; others broadcast.
  TenantId tenant = 0;
  if (query.where != nullptr && ExtractTenant(*query.where, &tenant)) {
    return routing.RouteRead(tenant);
  }
  std::vector<ShardId> all(routing.num_shards());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

namespace {

// Two-phase path for row queries: merges row ids + sort keys from
// every shard and fetches raw documents only for the global winners.
Result<QueryResult> RunTwoPhase(const Query& query, const PlanNode& plan,
                                const std::vector<ShardId>& targets,
                                const std::vector<SegmentSnapshot>& snapshots,
                                const CoordinatorInputs& inputs,
                                ExecStats* stats) {
  const size_t fan_out = targets.size();
  std::vector<std::vector<RowRef>> shard_refs(fan_out);
  std::vector<Status> statuses(fan_out, Status::OK());
  std::vector<ExecStats> shard_stats(fan_out);
  std::vector<uint64_t> shard_matched(fan_out, 0);
  std::vector<uint8_t> shard_exact(fan_out, 1);
  RunPerOrdinal(inputs.pool, fan_out, [&](size_t ordinal) {
    bool exact = true;
    auto refs = ExecuteQueryPhase(query, plan, *snapshots[ordinal],
                                  uint32_t(ordinal), &shard_stats[ordinal],
                                  &shard_matched[ordinal], &exact,
                                  inputs.cache, targets[ordinal], inputs.exec);
    shard_exact[ordinal] = exact ? 1 : 0;
    if (refs.ok()) {
      shard_refs[ordinal] = std::move(*refs);
    } else {
      statuses[ordinal] = refs.status();
    }
  });
  uint64_t total_matched = 0;
  bool total_matched_exact = true;
  size_t total_refs = 0;
  for (size_t ordinal = 0; ordinal < fan_out; ++ordinal) {
    if (!statuses[ordinal].ok()) return statuses[ordinal];
    stats->Add(shard_stats[ordinal]);
    total_matched += shard_matched[ordinal];
    total_matched_exact = total_matched_exact && shard_exact[ordinal] != 0;
    total_refs += shard_refs[ordinal].size();
  }
  std::vector<RowRef> all_refs;
  all_refs.reserve(total_refs);
  for (std::vector<RowRef>& refs : shard_refs) {
    for (RowRef& ref : refs) all_refs.push_back(std::move(ref));
  }
  if (!query.order_by.empty()) SortRowRefs(query, &all_refs);
  // Global offset + limit trim BEFORE any document is fetched.
  if (query.offset > 0) {
    const size_t skip = std::min(size_t(query.offset), all_refs.size());
    all_refs.erase(all_refs.begin(), all_refs.begin() + long(skip));
  }
  if (query.limit >= 0 && int64_t(all_refs.size()) > query.limit) {
    all_refs.resize(size_t(query.limit));
  }
  QueryResult result;
  result.total_matched = total_matched;
  result.total_matched_exact = total_matched_exact;
  ESDB_ASSIGN_OR_RETURN(
      result.rows,
      ExecuteFetchPhase(query, snapshots, all_refs, stats, inputs.exec));
  ProjectRows(query, &result.rows);
  return result;
}

// Single-phase path (aggregates, group-bys, or two-phase disabled).
Result<QueryResult> RunSinglePhase(
    const Query& query, const PlanNode& plan,
    const std::vector<ShardId>& targets,
    const std::vector<SegmentSnapshot>& snapshots,
    const CoordinatorInputs& inputs, ExecStats* stats) {
  const size_t fan_out = targets.size();
  std::vector<QueryResult> shard_results(fan_out);
  std::vector<Status> statuses(fan_out, Status::OK());
  std::vector<ExecStats> shard_stats(fan_out);
  RunPerOrdinal(inputs.pool, fan_out, [&](size_t ordinal) {
    auto r = ExecuteOnShard(query, plan, *snapshots[ordinal],
                            &shard_stats[ordinal], inputs.cache,
                            targets[ordinal], inputs.exec);
    if (r.ok()) {
      shard_results[ordinal] = std::move(*r);
    } else {
      statuses[ordinal] = r.status();
    }
  });
  for (size_t ordinal = 0; ordinal < fan_out; ++ordinal) {
    if (!statuses[ordinal].ok()) return statuses[ordinal];
    stats->Add(shard_stats[ordinal]);
  }
  return AggregateResults(query, std::move(shard_results));
}

}  // namespace

Result<QueryResult> CoordinateQuery(const Query& query,
                                    const std::vector<ShardId>& targets,
                                    const CoordinatorInputs& inputs,
                                    ExecStats* stats) {
  // Xdriver4ES pipeline + RBO, once per query (plans are shard-
  // agnostic).
  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
  }
  std::unique_ptr<PlanNode> plan =
      PlanWhere(normalized.get(), *inputs.spec, *inputs.planner);

  // Snapshots are taken serially up front (one lock-free epoch load
  // per shard); the subqueries and the fetch phase run against these
  // immutable segment epochs — serially, or as pool tasks — and stay
  // valid even if a concurrent refresh or cutover publishes new
  // epochs mid-query. Each task writes only its own ordinal's slots;
  // merging happens afterwards in target order, so parallel results
  // are byte-identical to serial ones.
  std::vector<SegmentSnapshot> snapshots;
  snapshots.reserve(targets.size());
  for (ShardId shard : targets) snapshots.push_back(inputs.snapshot(shard));

  // Cost-based transform pass (query/cost.h): rewrites the rule-based
  // plan against the pinned snapshots' column sketches, so the
  // statistics describe exactly the data the query will read.
  if (inputs.planner->use_cost_model) {
    const StatsView stats_view = StatsView::Collect(snapshots);
    ApplyCostTransforms(query, *inputs.spec, stats_view, &plan);
    ++stats->plans_costed;
  }

  if (inputs.two_phase && query.agg == AggFunc::kNone &&
      query.group_by.empty()) {
    return RunTwoPhase(query, *plan, targets, snapshots, inputs, stats);
  }
  return RunSinglePhase(query, *plan, targets, snapshots, inputs, stats);
}

}  // namespace esdb
