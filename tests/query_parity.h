// Shared by the parity tests: the random query stream spanning the
// planner's query classes, the answer comparisons, and the per-shard
// composition the cluster's answers must equal byte for byte.

#ifndef ESDB_TESTS_QUERY_PARITY_H_
#define ESDB_TESTS_QUERY_PARITY_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/distributed.h"
#include "cluster/query_coordinator.h"
#include "query/executor.h"
#include "query/normalize.h"
#include "query/parser.h"

namespace esdb {

// Number of random queries: ESDB_FUZZ_ITERS when set, else `fallback`.
inline int FuzzIters(int fallback) {
  if (const char* env = std::getenv("ESDB_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// One random query from the planner's query classes: tenant-scoped
// rows with optional sort and page, cross-shard conjunctions,
// whole-index ORDER BY, aggregates, GROUP BY, disjunctions and text
// predicates. Fields: tenant_id 1-6, status 0-4, amount 0-99,
// group 0-9, created_time, record_id, title.
inline std::string RandomQuery(std::mt19937& rng) {
  auto pick = [&](int n) { return int(rng() % uint32_t(n)); };
  std::ostringstream sql;
  switch (pick(6)) {
    case 0: {  // tenant-scoped rows, optional sort + page
      sql << "SELECT * FROM t WHERE tenant_id = " << 1 + pick(6);
      if (pick(2)) sql << " AND status = " << pick(5);
      if (pick(2)) sql << " AND amount >= " << pick(100);
      if (pick(3)) {
        sql << " ORDER BY " << (pick(2) ? "created_time" : "record_id");
        if (pick(2)) sql << " DESC";
      }
      sql << " LIMIT " << 1 + pick(30);
      if (pick(2)) sql << " OFFSET " << pick(10);
      break;
    }
    case 1: {  // cross-shard conjunction (no tenant)
      sql << "SELECT * FROM t WHERE status = " << pick(5)
          << " AND amount BETWEEN " << pick(50) << " AND " << 50 + pick(50)
          << " LIMIT " << 1 + pick(25);
      break;
    }
    case 2: {  // whole-index ORDER BY pushdown
      sql << "SELECT * FROM t";
      if (pick(2)) sql << " WHERE amount >= " << pick(100);
      sql << " ORDER BY created_time";
      if (pick(2)) sql << " DESC";
      sql << " LIMIT " << 1 + pick(20);
      if (pick(2)) sql << " OFFSET " << pick(8);
      break;
    }
    case 3: {  // aggregates: stats-only candidates and not
      const char* kAggs[] = {"COUNT(*)", "MIN(created_time)",
                             "MAX(created_time)", "MIN(amount)",
                             "MAX(amount)", "SUM(amount)", "AVG(amount)"};
      sql << "SELECT " << kAggs[pick(7)] << " FROM t";
      switch (pick(3)) {
        case 0:
          break;
        case 1:
          sql << " WHERE tenant_id = " << 1 + pick(6);
          break;
        case 2:
          sql << " WHERE tenant_id = " << 1 + pick(6)
              << " AND created_time >= " << pick(200);
          break;
      }
      break;
    }
    case 4: {  // GROUP BY
      const char* kAggs[] = {"COUNT(*)", "MIN(amount)", "SUM(amount)"};
      sql << "SELECT group, " << kAggs[pick(3)] << " FROM t";
      if (pick(2)) sql << " WHERE tenant_id = " << 1 + pick(6);
      sql << " GROUP BY group";
      break;
    }
    default: {  // disjunctions and text predicates
      if (pick(2)) {
        sql << "SELECT * FROM t WHERE tenant_id = " << 1 + pick(4)
            << " AND (status = " << pick(5) << " OR group = " << pick(10)
            << ") LIMIT " << 1 + pick(20);
      } else {
        sql << "SELECT * FROM t WHERE title LIKE 'alpha%' AND amount < "
            << 1 + pick(100) << " LIMIT " << 1 + pick(20);
      }
      break;
    }
  }
  return sql.str();
}

inline void ExpectParity(const QueryResult& costed, const QueryResult& forced,
                  const std::string& label) {
  ASSERT_EQ(costed.rows.size(), forced.rows.size()) << label;
  for (size_t i = 0; i < costed.rows.size(); ++i) {
    ASSERT_EQ(costed.rows[i], forced.rows[i]) << label << " row " << i;
  }
  EXPECT_EQ(costed.agg_count, forced.agg_count) << label;
  EXPECT_EQ(costed.agg_sum, forced.agg_sum) << label;
  ASSERT_EQ(costed.agg_min.has_value(), forced.agg_min.has_value()) << label;
  if (forced.agg_min) {
    EXPECT_EQ(*costed.agg_min, *forced.agg_min) << label;
  }
  ASSERT_EQ(costed.agg_max.has_value(), forced.agg_max.has_value()) << label;
  if (forced.agg_max) {
    EXPECT_EQ(*costed.agg_max, *forced.agg_max) << label;
  }
  ASSERT_EQ(costed.groups.size(), forced.groups.size()) << label;
  auto it = costed.groups.begin();
  for (const auto& [key, stats] : forced.groups) {
    ASSERT_TRUE(it->first == key) << label;
    EXPECT_EQ(it->second.count, stats.count) << label;
    EXPECT_EQ(it->second.sum, stats.sum) << label;
    ASSERT_EQ(it->second.min.has_value(), stats.min.has_value()) << label;
    ASSERT_EQ(it->second.max.has_value(), stats.max.has_value()) << label;
    if (stats.min) {
      EXPECT_EQ(*it->second.min, *stats.min) << label;
    }
    if (stats.max) {
      EXPECT_EQ(*it->second.max, *stats.max) << label;
    }
    ++it;
  }
  // An early-terminating plan may undercount, but never overcount,
  // and must say it stopped early.
  if (costed.total_matched_exact && forced.total_matched_exact) {
    EXPECT_EQ(costed.total_matched, forced.total_matched) << label;
  } else {
    EXPECT_LE(costed.total_matched, forced.total_matched) << label;
  }
}

// Byte-for-byte equality, total_matched and its exact flag included.
inline void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                            const std::string& label) {
  ExpectParity(a, b, label);
  EXPECT_EQ(a.total_matched, b.total_matched) << label;
  EXPECT_EQ(a.total_matched_exact, b.total_matched_exact) << label;
}

// The cluster query loop the coordinator replaced: per target shard,
// ExecuteOnShard over the primary's current snapshot (rule-based plan,
// no cost pass, no filter cache), then AggregateResults.
inline Result<QueryResult> ComposedClusterAnswer(
    DistributedEsdb& db, const DistributedEsdb::Options& options,
    const RoutingPolicy& routing, const std::string& sql) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
  }
  const std::unique_ptr<PlanNode> plan =
      PlanWhere(normalized.get(), options.spec, options.planner);
  ExecStats stats;
  std::vector<QueryResult> shard_results;
  for (ShardId shard : RouteQuery(query, routing)) {
    const SegmentSnapshot snapshot =
        db.MigrationSource(shard)->primary()->Snapshot();
    ESDB_ASSIGN_OR_RETURN(QueryResult r,
                          ExecuteOnShard(query, *plan, *snapshot, &stats));
    shard_results.push_back(std::move(r));
  }
  return AggregateResults(query, std::move(shard_results));
}

}  // namespace esdb

#endif  // ESDB_TESTS_QUERY_PARITY_H_
