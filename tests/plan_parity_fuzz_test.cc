// Plan-choice parity fuzzer: for a randomized skewed corpus (several
// frozen segment generations, tombstone overlays from deletes) and a
// randomized query stream spanning the planner's query classes, the
// cost-model-chosen plan must return results identical to every
// forced access path — rules-only, composite index off, scan-list
// off — under both the row and the vectorized batch engine. The cost
// pass is a physical rewrite; any visible difference is a bug.
//
// The seed is printed via SCOPED_TRACE on failure; ESDB_FUZZ_ITERS
// overrides the number of random queries.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cluster/esdb.h"
#include "query_parity.h"

namespace esdb {
namespace {

// Documents carry only int and string values, never explicit nulls:
// comparison predicates reject nulls while the keyword index stores
// them, so explicit nulls are outside the index<->filter equivalence
// both the rule planner's scan-list deferral and the cost pass assume.
std::unique_ptr<Esdb> BuildCorpus(std::mt19937* rng) {
  Esdb::Options options;
  options.num_shards = 4;
  options.routing = RoutingKind::kHash;
  options.store.refresh_doc_count = 0;
  // A single-column composite on created_time: exercises the
  // whole-index LIMIT/ORDER-BY pushdown (no leading equality).
  options.spec.composite_indexes.push_back({"created_time"});
  auto db = std::make_unique<Esdb>(std::move(options));

  const char* kTitles[] = {"alpha beta", "beta gamma", "delta ray",
                           "alpha delta", "epsilon"};
  std::vector<std::array<int64_t, 3>> routing_keys;  // tenant, record, ctime
  int64_t next_record = 0;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 200; ++i) {
      const int64_t id = next_record++;
      const uint32_t skew = (*rng)() % 100;
      const int64_t tenant = skew < 60 ? 1 : skew < 80 ? 2 : 3 + skew % 4;
      // Duplicated created_time values: ORDER BY ties exercise the
      // stable-order / superset-of-winners guarantees.
      const int64_t ctime = id / 3;
      Document doc;
      doc.Set(kFieldTenantId, Value(tenant));
      doc.Set(kFieldRecordId, Value(id));
      doc.Set(kFieldCreatedTime, Value(ctime));
      doc.Set("status", Value(int64_t((*rng)() % 5)));
      doc.Set("amount", Value(int64_t((*rng)() % 100)));
      doc.Set("group", Value(int64_t((*rng)() % 10)));
      doc.Set("title", Value(std::string(kTitles[(*rng)() % 5])));
      EXPECT_TRUE(db->Insert(std::move(doc)).ok());
      routing_keys.push_back({tenant, id, ctime});
    }
    db->RefreshAll();
    // Tombstone overlays over the already-frozen segments.
    for (int d = 0; d < 20 && !routing_keys.empty(); ++d) {
      const size_t pick = (*rng)() % routing_keys.size();
      const auto key = routing_keys[pick];
      routing_keys.erase(routing_keys.begin() + ptrdiff_t(pick));
      EXPECT_TRUE(db->Delete(key[0], key[1], key[2]).ok());
    }
    db->RefreshAll();
  }
  return db;
}

TEST(PlanParityFuzz, CostedPlanMatchesEveryForcedPath) {
  const uint32_t seed = 20260808;
  std::mt19937 rng(seed);
  auto db = BuildCorpus(&rng);

  PlannerOptions costed;  // composite + scan-list + cost model
  PlannerOptions rules_only = costed;
  rules_only.use_cost_model = false;
  PlannerOptions no_composite = rules_only;
  no_composite.use_composite_index = false;
  PlannerOptions no_scan_list = rules_only;
  no_scan_list.use_scan_list = false;
  const struct {
    const char* name;
    const PlannerOptions* options;
  } kForced[] = {{"rules-only", &rules_only},
                 {"no-composite", &no_composite},
                 {"no-scan-list", &no_scan_list}};

  const int iters = FuzzIters(120);
  for (int i = 0; i < iters; ++i) {
    const std::string sql = RandomQuery(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " iter=" +
                 std::to_string(i) + " sql=" + sql);
    for (const bool batch : {false, true}) {
      db->SetBatchExecution(batch);
      auto reference = db->ExecuteSqlWithPlanner(sql, costed);
      ASSERT_TRUE(reference.ok()) << reference.status().message();
      for (const auto& forced : kForced) {
        auto result = db->ExecuteSqlWithPlanner(sql, *forced.options);
        ASSERT_TRUE(result.ok()) << result.status().message();
        ExpectParity(*reference, *result,
                     std::string(forced.name) + (batch ? " batch" : " row"));
      }
    }
  }
}

}  // namespace
}  // namespace esdb
