// Tests of the benchmark's own machinery: the statistics helpers, and
// that every oracle accepts the engine's real answers and rejects a
// deliberately corrupted one (a dropped row, a wrong count, an
// unsorted top-k, a perturbed sum). Exits nonzero on the first
// failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "cluster/esdb.h"
#include "oracle.h"
#include "stats.h"
#include "workload/generator.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::CheckAnswer;
using perfbench::Corpus;
using perfbench::Filter;
using perfbench::QueryClass;
using perfbench::QuerySpec;

void TestPercentiles() {
  using perfbench::Percentile;
  using perfbench::PercentileReportable;
  using perfbench::Samples;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(101 - i));
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile({7}, 0.5) == 7);

  // Median alone under 40 samples.
  EXPECT(PercentileReportable(1, 0.5));
  EXPECT(PercentileReportable(39, 0.5));
  EXPECT(!PercentileReportable(39, 0.9));
  EXPECT(PercentileReportable(100, 0.9));  // 10 samples beyond p90
  EXPECT(!PercentileReportable(99, 0.9));  // only 9 beyond
  // p99 needs ten samples beyond it: n >= 1000.
  EXPECT(perfbench::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(!PercentileReportable(999, 0.99));
  EXPECT(PercentileReportable(1000, 0.99));
  EXPECT(perfbench::MinSamplesFor(0.99) == 1000);
  EXPECT(perfbench::MinSamplesFor(0.5) == 1);

  Samples s;
  for (int i = 0; i < 999; ++i) s.Add(i);
  EXPECT(std::isnan(s.Tail(0.99)));
  s.Add(999);
  EXPECT(s.Tail(0.99) == 989);
  EXPECT(s.Describe("us").find("(n=1000)") != std::string::npos);
  Samples few;
  few.Add(3);
  few.Add(1);
  EXPECT(few.Describe("us") == "p50=1 us (n=2)");
}

// A small engine plus the oracle's copy of the same documents.
struct Fixture {
  esdb::Esdb db;
  Corpus corpus;
  explicit Fixture(esdb::Esdb::Options options) : db(std::move(options)) {
    esdb::WorkloadGenerator::Options g;
    g.num_tenants = 50;
    g.seed = 5;
    esdb::WorkloadGenerator gen(g);
    for (int i = 0; i < 3000; ++i) {
      esdb::Document doc =
          gen.NextDocument(1700000000LL * 1000000 + int64_t(i) * 5000000);
      corpus.Add(perfbench::RowFromDocument(doc));
      if (!db.Insert(std::move(doc)).ok()) std::abort();
    }
    db.RefreshAll();
  }
  esdb::QueryResult Run(const QuerySpec& spec) {
    auto r = db.ExecuteSql(spec.Sql());
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", spec.Sql().c_str());
      std::abort();
    }
    return std::move(*r);
  }
};

esdb::Esdb::Options SmallOptions() {
  esdb::Esdb::Options o;
  o.num_shards = 4;
  return o;
}

void TestRowOracle(Fixture& f) {
  QuerySpec spec;
  spec.cls = QueryClass::kHot;
  spec.tenant = 1;
  spec.t_lo = 1700000000LL * 1000000;
  spec.t_hi = spec.t_lo + 3000LL * 5000000;
  spec.filters.push_back(Filter{Filter::kQuantityLe, 8, 0});
  spec.limit = 20;
  esdb::QueryResult good = f.Run(spec);
  EXPECT(good.rows.size() == 20);
  EXPECT(CheckAnswer(spec, f.corpus, good).empty());

  // A dropped row.
  esdb::QueryResult dropped = good;
  dropped.rows.erase(dropped.rows.begin() + 3);
  EXPECT(!CheckAnswer(spec, f.corpus, dropped).empty());

  // An unsorted top-k.
  esdb::QueryResult unsorted = good;
  std::swap(unsorted.rows[0], unsorted.rows[5]);
  EXPECT(!CheckAnswer(spec, f.corpus, unsorted).empty());

  // A wrong match count: more than match, or fewer than were returned.
  uint64_t total = 0;
  perfbench::ExpectedRows(spec, f.corpus, &total);
  esdb::QueryResult overcounted = good;
  overcounted.total_matched = total + 1;
  EXPECT(!CheckAnswer(spec, f.corpus, overcounted).empty());
  esdb::QueryResult undercounted = good;
  undercounted.total_matched = good.rows.size() - 1;
  EXPECT(!CheckAnswer(spec, f.corpus, undercounted).empty());

  // A row that does not satisfy the filter (right record id, wrong value).
  esdb::QueryResult bad_row = good;
  bad_row.rows[2].Set("quantity", esdb::Value(int64_t(10)));
  EXPECT(!CheckAnswer(spec, f.corpus, bad_row).empty());

  // A row of another tenant swapped in.
  QuerySpec topk;
  topk.cls = QueryClass::kTopK;
  topk.tenant = 2;
  topk.limit = 10;
  esdb::QueryResult top = f.Run(topk);
  EXPECT(CheckAnswer(topk, f.corpus, top).empty());
  esdb::QueryResult foreign = top;
  foreign.rows[9] = good.rows[0];
  EXPECT(!CheckAnswer(topk, f.corpus, foreign).empty());
}

void TestAggOracle(Fixture& f) {
  QuerySpec spec;
  spec.cls = QueryClass::kAgg;
  spec.filters.push_back(Filter{Filter::kStatus, 2, 0});
  spec.limit = -1;
  esdb::QueryResult good = f.Run(spec);
  EXPECT(good.groups.size() > 5);
  EXPECT(CheckAnswer(spec, f.corpus, good).empty());

  // A perturbed sum.
  esdb::QueryResult perturbed = good;
  perturbed.groups.begin()->second.sum += 0.01;
  EXPECT(!CheckAnswer(spec, f.corpus, perturbed).empty());
  // Rounding-level differences stay within tolerance.
  esdb::QueryResult rounded = good;
  double& sum = rounded.groups.begin()->second.sum;
  sum = std::nextafter(sum, 1e300);
  EXPECT(CheckAnswer(spec, f.corpus, rounded).empty());

  // A wrong group count.
  esdb::QueryResult miscounted = good;
  miscounted.groups.begin()->second.count -= 1;
  EXPECT(!CheckAnswer(spec, f.corpus, miscounted).empty());

  // A dropped group.
  esdb::QueryResult dropped = good;
  dropped.groups.erase(dropped.groups.begin());
  EXPECT(!CheckAnswer(spec, f.corpus, dropped).empty());
}

void TestCountOracle(Fixture& f) {
  // The write tally: per-tenant and total counts.
  for (int64_t tenant : {0, 1, 7, 49}) {
    QuerySpec spec;
    spec.cls = QueryClass::kCount;
    spec.tenant = tenant;
    esdb::QueryResult good = f.Run(spec);
    EXPECT(CheckAnswer(spec, f.corpus, good).empty());
    esdb::QueryResult wrong = good;
    wrong.agg_count += 1;
    EXPECT(!CheckAnswer(spec, f.corpus, wrong).empty());
  }
  QuerySpec all;
  all.cls = QueryClass::kCount;
  EXPECT(f.Run(all).agg_count == 3000);
}

void TestAnswerComparison(Fixture& f) {
  QuerySpec spec;
  spec.cls = QueryClass::kTopK;
  spec.tenant = 3;
  spec.limit = 10;
  const esdb::QueryResult a = f.Run(spec);
  esdb::QueryResult b = a;
  EXPECT(perfbench::CanonicalAnswer(a) == perfbench::CanonicalAnswer(b));
  EXPECT(perfbench::CompareAnswers(a, b).empty());
  b.rows.pop_back();
  EXPECT(perfbench::CanonicalAnswer(a) != perfbench::CanonicalAnswer(b));
  EXPECT(!perfbench::CompareAnswers(a, b).empty());

  // The batch engine gives the row engine's bytes.
  QuerySpec agg;
  agg.cls = QueryClass::kAgg;
  agg.filters.push_back(Filter{Filter::kChannel, 3, 0});
  agg.limit = -1;
  f.db.SetBatchExecution(false);
  const std::string row = perfbench::CanonicalAnswer(f.Run(agg));
  f.db.SetBatchExecution(true);
  const std::string batch = perfbench::CanonicalAnswer(f.Run(agg));
  f.db.SetBatchExecution(false);
  EXPECT(row == batch);
}

}  // namespace

int main() {
  TestPercentiles();
  Fixture f(SmallOptions());
  TestRowOracle(f);
  TestAggOracle(f);
  TestCountOracle(f);
  TestAnswerComparison(f);
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
