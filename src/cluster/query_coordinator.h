#ifndef ESDB_CLUSTER_QUERY_COORDINATOR_H_
#define ESDB_CLUSTER_QUERY_COORDINATOR_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/filter_cache.h"
#include "query/optimizer.h"
#include "routing/router.h"
#include "storage/index_spec.h"
#include "storage/segment.h"

namespace esdb {

// The one query coordinator (Section 3.2's "query result aggregator")
// behind both facades, Esdb and DistributedEsdb. Its pipeline:
//
//   route -> normalize -> plan -> pin snapshots -> [cost pass]
//         -> fan-out -> merge
//
// Row queries run two-phase (query-then-fetch): every target shard
// returns row refs + sort keys, the coordinator sorts them globally,
// trims the global OFFSET/LIMIT, and fetches stored documents only
// for the winners. Aggregates and GROUP BY run single-phase
// (ExecuteOnShard + AggregateResults). Every stage after the pin reads
// only the snapshots pinned up front, so a refresh, merge, failover or
// migration cutover that lands mid-query never splits one query
// across two epochs of a shard. See DESIGN.md "Query coordinator".

// Finds the tenant_id equality that scopes a query (a top-level
// predicate, possibly nested under ANDs) — the common shape of
// seller-facing queries. Returns false when the query is not
// tenant-scoped.
bool ExtractTenant(const Expr& where, TenantId* out);

// Route step: the shards `routing` names for the query's tenant, or
// every shard when the query is not tenant-scoped.
std::vector<ShardId> RouteQuery(const Query& query,
                                const RoutingPolicy& routing);

// What a facade lends the coordinator for one query.
struct CoordinatorInputs {
  const IndexSpec* spec = nullptr;
  // use_cost_model runs ApplyCostTransforms over the pinned
  // snapshots' sketches.
  const PlannerOptions* planner = nullptr;
  // Pins one target shard's searchable state. Called once per target,
  // serially and in target order, before any shard executes.
  std::function<SegmentSnapshot(ShardId)> snapshot;
  // Row queries run query-then-fetch; false runs them single-phase.
  bool two_phase = true;
  // Per-segment candidate cache; null disables it. Keyed on the
  // target ShardId, so it must only be shared by callers whose shard
  // ids name stable stores.
  FilterCache* cache = nullptr;
  // Per-shard subquery pool; null runs the fan-out in the caller.
  ThreadPool* pool = nullptr;
  ExecOptions exec;
};

// Runs normalize -> plan -> pin -> cost -> fan-out -> merge for
// `query` over `targets` (normally RouteQuery's answer). Executor
// counters accumulate into `*stats`, also on error. Results are
// byte-identical with and without a pool: merge order is fixed by
// target ordinal.
[[nodiscard]] Result<QueryResult> CoordinateQuery(
    const Query& query, const std::vector<ShardId>& targets,
    const CoordinatorInputs& inputs, ExecStats* stats);

}  // namespace esdb

#endif  // ESDB_CLUSTER_QUERY_COORDINATOR_H_
