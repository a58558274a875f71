// Tests for the cost-based optimizer (query/cost.h): per-segment
// column sketches, LIMIT/ORDER-BY pushdown into the sorted-key
// composite index (kIndexTopK), and stats-answered aggregates
// (kStatsOnly). The acceptance gates from the optimizer experiment:
// pushdown must skip index entries (>= 5x fewer postings considered on
// the top tenant's shard) and MIN/MAX/COUNT must report stats-only
// answers — both with results identical to the unoptimized plans.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/esdb.h"
#include "storage/column_stats.h"
#include "storage/index_spec.h"
#include "storage/segment.h"

namespace esdb {
namespace {

PlannerOptions RulesOnly() {
  PlannerOptions p;
  p.use_cost_model = false;
  return p;
}

void ExpectSameRows(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]) << "row " << i;
  }
}

// Skewed corpus: tenant 1 owns ~70% of 1200 rows, two segment
// generations per shard.
class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options options;
    options.num_shards = 4;
    options.routing = RoutingKind::kHash;
    options.store.refresh_doc_count = 0;
    db_ = std::make_unique<Esdb>(std::move(options));
    for (int64_t i = 0; i < 1200; ++i) {
      Document doc;
      const int64_t tenant = (i % 10 < 7) ? 1 : 2 + (i % 4);
      doc.Set(kFieldTenantId, Value(tenant));
      doc.Set(kFieldRecordId, Value(i));
      doc.Set(kFieldCreatedTime, Value(i));
      doc.Set("status", Value(int64_t(i % 5)));
      doc.Set("amount", Value(int64_t((i * 37) % 100)));
      ASSERT_TRUE(db_->Insert(std::move(doc)).ok());
      if (i == 600) db_->RefreshAll();
    }
    db_->RefreshAll();
  }

  std::unique_ptr<Esdb> db_;
};

TEST_F(CostModelTest, OrderByLimitPushdownSkipsPostings) {
  const std::string sql =
      "SELECT * FROM t WHERE tenant_id = 1 ORDER BY created_time LIMIT 10";
  auto costed = db_->ExecuteSql(sql);
  ASSERT_TRUE(costed.ok());
  const ExecStats costed_stats = db_->last_stats();

  auto baseline = db_->ExecuteSqlWithPlanner(sql, RulesOnly());
  ASSERT_TRUE(baseline.ok());
  const ExecStats baseline_stats = db_->last_stats();

  ExpectSameRows(*costed, *baseline);
  EXPECT_GT(costed_stats.plans_costed, 0u);
  EXPECT_GT(costed_stats.rows_skipped_by_pushdown, 0u);
  // Early termination: the pushdown stopped after ~cap matches instead
  // of reading the tenant's whole posting range.
  EXPECT_GE(baseline_stats.postings_considered,
            5 * costed_stats.postings_considered);
  // The skipped tail was never counted: total_matched is a lower
  // bound and says so.
  EXPECT_FALSE(costed->total_matched_exact);
  EXPECT_TRUE(baseline->total_matched_exact);
  EXPECT_EQ(baseline->total_matched, 840u);
  EXPECT_LE(costed->total_matched, baseline->total_matched);
  EXPECT_EQ(baseline_stats.rows_skipped_by_pushdown, 0u);
}

TEST_F(CostModelTest, DescendingPushdownMatchesBaseline) {
  const std::string sql =
      "SELECT * FROM t WHERE tenant_id = 1 "
      "ORDER BY created_time DESC LIMIT 7 OFFSET 3";
  auto costed = db_->ExecuteSql(sql);
  ASSERT_TRUE(costed.ok());
  const ExecStats costed_stats = db_->last_stats();
  auto baseline = db_->ExecuteSqlWithPlanner(sql, RulesOnly());
  ASSERT_TRUE(baseline.ok());
  ExpectSameRows(*costed, *baseline);
  EXPECT_GT(costed_stats.rows_skipped_by_pushdown, 0u);
}

// The walk reads the entry it stops on without evaluating it. When
// that entry is the segment's last live match, the count must still
// come out exact or be flagged as a lower bound.
TEST(CostModelPushdown, StopEntryOnLastMatchIsNotCounted) {
  Esdb::Options options;
  options.num_shards = 1;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  Esdb db(std::move(options));
  for (int64_t i = 0; i < 11; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i));
    ASSERT_TRUE(db.Insert(std::move(doc)).ok());
  }
  db.RefreshAll();
  auto count = db.ExecuteSql("SELECT COUNT(*) FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->agg_count, 11u);

  for (const char* dir : {"", " DESC"}) {
    for (int64_t limit = 1; limit <= 12; ++limit) {
      const std::string sql =
          std::string("SELECT * FROM t WHERE tenant_id = 1 "
                      "ORDER BY created_time") +
          dir + " LIMIT " + std::to_string(limit);
      SCOPED_TRACE(sql);
      auto costed = db.ExecuteSql(sql);
      ASSERT_TRUE(costed.ok());
      const ExecStats stats = db.last_stats();
      auto baseline = db.ExecuteSqlWithPlanner(sql, RulesOnly());
      ASSERT_TRUE(baseline.ok());
      ExpectSameRows(*costed, *baseline);
      if (costed->total_matched_exact) {
        EXPECT_EQ(costed->total_matched, count->agg_count);
      } else {
        EXPECT_LE(costed->total_matched, count->agg_count);
      }
      if (limit == 10) {
        // The walk stops on the 11th entry, the last match.
        EXPECT_EQ(stats.rows_skipped_by_pushdown, 1u);
        EXPECT_FALSE(costed->total_matched_exact);
      }
    }
  }
}

TEST_F(CostModelTest, StatsOnlyCountWholeTable) {
  auto costed = db_->ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(costed.ok());
  const ExecStats costed_stats = db_->last_stats();
  auto baseline =
      db_->ExecuteSqlWithPlanner("SELECT COUNT(*) FROM t", RulesOnly());
  ASSERT_TRUE(baseline.ok());

  EXPECT_EQ(costed->agg_count, 1200u);
  EXPECT_EQ(costed->agg_count, baseline->agg_count);
  EXPECT_EQ(costed->total_matched, baseline->total_matched);
  EXPECT_TRUE(costed->total_matched_exact);
  EXPECT_GT(costed_stats.stats_only_answers, 0u);
  // Stats-only answers never open a posting list.
  EXPECT_EQ(costed_stats.postings_considered, 0u);
}

TEST_F(CostModelTest, StatsOnlyMinMaxMatchesScanByteForByte) {
  for (const char* agg : {"MIN", "MAX"}) {
    for (const char* col : {"created_time", "amount"}) {
      const std::string sql = std::string("SELECT ") + agg + "(" + col +
                              ") FROM t WHERE tenant_id = 1";
      SCOPED_TRACE(sql);
      auto costed = db_->ExecuteSql(sql);
      ASSERT_TRUE(costed.ok());
      const ExecStats costed_stats = db_->last_stats();
      auto baseline = db_->ExecuteSqlWithPlanner(sql, RulesOnly());
      ASSERT_TRUE(baseline.ok());
      ASSERT_EQ(costed->agg_min.has_value(), baseline->agg_min.has_value());
      ASSERT_EQ(costed->agg_max.has_value(), baseline->agg_max.has_value());
      if (baseline->agg_min) {
        EXPECT_EQ(*costed->agg_min, *baseline->agg_min);
      }
      if (baseline->agg_max) {
        EXPECT_EQ(*costed->agg_max, *baseline->agg_max);
      }
      EXPECT_EQ(costed->agg_count, baseline->agg_count);
      if (std::string(col) == "created_time") {
        // (tenant_id, created_time) is the default composite: the
        // answer comes from index bounds / stats, not postings.
        EXPECT_GT(costed_stats.stats_only_answers, 0u);
      }
    }
  }
}

TEST_F(CostModelTest, StatsOnlyFallsBackUnderTombstones) {
  // Delete tenant 1's maximum-created_time row; stats-only must not
  // serve the stale sketch bound (the executor falls back to the
  // scanning child on any tombstoned segment).
  ASSERT_TRUE(db_->Delete(1, 1196, 1196).ok());
  db_->RefreshAll();
  const std::string sql =
      "SELECT MAX(created_time) FROM t WHERE tenant_id = 1";
  auto costed = db_->ExecuteSql(sql);
  ASSERT_TRUE(costed.ok());
  auto baseline = db_->ExecuteSqlWithPlanner(sql, RulesOnly());
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(costed->agg_max.has_value());
  EXPECT_EQ(*costed->agg_max, *baseline->agg_max);
  EXPECT_NE(*costed->agg_max, Value(int64_t(1196)));
}

TEST_F(CostModelTest, ExplainNamesTransformAndCardinality) {
  auto topk = db_->ExplainSql(
      "SELECT * FROM t WHERE tenant_id = 1 ORDER BY created_time LIMIT 10");
  ASSERT_TRUE(topk.ok());
  EXPECT_NE(topk->find("IndexTopK"), std::string::npos) << *topk;
  EXPECT_NE(topk->find("transform:  index-topk"), std::string::npos) << *topk;
  EXPECT_NE(topk->find("cardinality: est="), std::string::npos) << *topk;

  auto stats = db_->ExplainSql(
      "SELECT MIN(created_time) FROM t WHERE tenant_id = 1");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("StatsOnly"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("transform:  stats-only"), std::string::npos)
      << *stats;

  auto plain = db_->ExplainSql("SELECT * FROM t WHERE status = 2 LIMIT 5");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(plain->find("transform:"), std::string::npos) << *plain;
}

// --- sketch serialization --------------------------------------------

TEST(ColumnStatsTest, SegmentEncodeRoundTripsSketches) {
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  SegmentBuilder builder(&spec);
  for (int64_t i = 0; i < 200; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1 + i % 3)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i * 10));
    doc.Set("amount", Value(double(i) * 0.5));
    builder.Add(doc);
  }
  std::unique_ptr<Segment> seg = std::move(builder).Build(1);
  ASSERT_NE(seg->column_stats(), nullptr);
  const ColumnSketch* amount = seg->column_stats()->Find("amount");
  ASSERT_NE(amount, nullptr);
  EXPECT_EQ(amount->non_null, 200u);
  EXPECT_EQ(amount->min, Value(0.0));
  EXPECT_EQ(amount->max, Value(99.5));

  // Decode must carry the stats trailer, not rebuild-or-drop it:
  // encode(decode(encode(x))) is byte-identical.
  const std::string bytes = seg->Encode();
  auto decoded = Segment::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_NE((*decoded)->column_stats(), nullptr);
  std::string a, b;
  seg->column_stats()->EncodeTo(&a);
  (*decoded)->column_stats()->EncodeTo(&b);
  EXPECT_EQ(a, b);
  EXPECT_EQ((*decoded)->Encode(), bytes);
}

TEST(ColumnStatsTest, SketchFractionsAreSane) {
  const IndexSpec spec = IndexSpec::TransactionLogDefault();
  SegmentBuilder builder(&spec);
  for (int64_t i = 0; i < 100; ++i) {
    Document doc;
    doc.Set(kFieldTenantId, Value(int64_t(1)));
    doc.Set(kFieldRecordId, Value(i));
    doc.Set(kFieldCreatedTime, Value(i));
    doc.Set("status", Value(i % 4));  // 4 distinct values
    builder.Add(doc);
  }
  std::unique_ptr<Segment> seg = std::move(builder).Build(1);
  const ColumnSketch* status = seg->column_stats()->Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->distinct_exact);
  EXPECT_EQ(status->distinct, 4u);
  EXPECT_NEAR(status->EqFraction(), 0.25, 1e-9);
  // A range covering everything estimates ~1; a disjoint range is 0.
  const std::string lo = Value(int64_t(0)).EncodeSortable();
  const std::string hi = Value(int64_t(100)).EncodeSortable();
  EXPECT_NEAR(status->RangeFraction(lo, hi), 1.0, 1e-9);
  const std::string far_lo = Value(int64_t(50)).EncodeSortable();
  const std::string far_hi = Value(int64_t(60)).EncodeSortable();
  EXPECT_EQ(status->RangeFraction(far_lo, far_hi), 0.0);
}

}  // namespace
}  // namespace esdb
