// Cross-facade parity: the same seeded documents (several frozen
// segment generations, tombstone overlays from deletes) loaded into an
// Esdb and into a 4-node DistributedEsdb with the same shard count and
// routing must answer every query of the plan-parity fuzzer's classes
// identically. Both facades run through the one query coordinator; the
// cluster runs rule-based plans only, so it is compared against the
// costed Esdb (total_matched equal wherever both are exact) and
// against the rules-only Esdb (byte for byte, exact flag included).
//
// The seed is printed via SCOPED_TRACE on failure; ESDB_FUZZ_ITERS
// overrides the number of random queries.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cluster/distributed.h"
#include "cluster/esdb.h"
#include "query_parity.h"

namespace esdb {
namespace {

constexpr uint32_t kShards = 8;

class CrossFacadeParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Esdb::Options single;
    single.num_shards = kShards;
    single.routing = RoutingKind::kHash;
    single.store.refresh_doc_count = 0;
    // Same extra composite as the plan-parity fuzzer: the whole-index
    // ORDER BY pushdown on the costed Esdb side.
    single.spec.composite_indexes.push_back({"created_time"});
    DistributedEsdb::Options cluster;
    cluster.num_shards = kShards;
    cluster.routing = RoutingKind::kHash;
    cluster.store = single.store;
    cluster.spec = single.spec;
    esdb_ = std::make_unique<Esdb>(std::move(single));
    cluster_ = std::make_unique<DistributedEsdb>(std::move(cluster));
    for (NodeId node = 1; node <= 4; ++node) {
      ASSERT_TRUE(cluster_->AddNode(node).ok());
    }

    std::mt19937 rng(kSeed);
    const char* kTitles[] = {"alpha beta", "beta gamma", "delta ray",
                             "alpha delta", "epsilon"};
    std::vector<WriteOp> live;
    int64_t next_record = 0;
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 200; ++i) {
        const int64_t id = next_record++;
        const uint32_t skew = rng() % 100;
        const int64_t tenant = skew < 60 ? 1 : skew < 80 ? 2 : 3 + skew % 4;
        WriteOp op;
        op.type = OpType::kInsert;
        op.doc.Set(kFieldTenantId, Value(tenant));
        op.doc.Set(kFieldRecordId, Value(id));
        // Duplicated created_time values exercise ORDER BY tie order.
        op.doc.Set(kFieldCreatedTime, Value(id / 3));
        op.doc.Set("status", Value(int64_t(rng() % 5)));
        op.doc.Set("amount", Value(int64_t(rng() % 100)));
        op.doc.Set("group", Value(int64_t(rng() % 10)));
        op.doc.Set("title", Value(std::string(kTitles[rng() % 5])));
        Apply(op);
        live.push_back(std::move(op));
      }
      RefreshBoth();
      for (int d = 0; d < 20 && !live.empty(); ++d) {
        const size_t pick = rng() % live.size();
        WriteOp erase = live[pick];
        erase.type = OpType::kDelete;
        live.erase(live.begin() + ptrdiff_t(pick));
        Apply(erase);
      }
      RefreshBoth();
    }
  }

  void Apply(const WriteOp& op) {
    ASSERT_TRUE(esdb_->Apply(op).ok());
    ASSERT_TRUE(cluster_->Apply(op).ok());
  }

  void RefreshBoth() {
    esdb_->RefreshAll();
    cluster_->RefreshAll();
  }

  static constexpr uint32_t kSeed = 20261019;
  std::unique_ptr<Esdb> esdb_;
  std::unique_ptr<DistributedEsdb> cluster_;
};

TEST_F(CrossFacadeParityTest, SameDocsSameAnswers) {
  ASSERT_EQ(esdb_->TotalDocs(), cluster_->TotalDocs());
  PlannerOptions rules_only;
  rules_only.use_cost_model = false;
  std::mt19937 rng(kSeed);
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    const std::string sql = RandomQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(kSeed) + " iter=" +
                 std::to_string(i) + " sql=" + sql);
    auto cluster = cluster_->ExecuteSql(sql);
    ASSERT_TRUE(cluster.ok()) << cluster.status().message();
    for (const bool batch : {false, true}) {
      esdb_->SetBatchExecution(batch);
      const std::string engine = batch ? " batch" : " row";
      auto costed = esdb_->ExecuteSql(sql);
      ASSERT_TRUE(costed.ok()) << costed.status().message();
      ExpectParity(*costed, *cluster, "costed esdb" + engine);
      auto rules = esdb_->ExecuteSqlWithPlanner(sql, rules_only);
      ASSERT_TRUE(rules.ok()) << rules.status().message();
      ExpectIdentical(*rules, *cluster, "rules-only esdb" + engine);
    }
  }
}

}  // namespace
}  // namespace esdb
