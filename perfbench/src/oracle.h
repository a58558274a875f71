#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Answer oracles that do not use the engine: the benchmark keeps its
// own copy of every generated document and evaluates each checked
// query by brute force over that copy.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "document/document.h"
#include "query/executor.h"

namespace perfbench {

// The columns the query classes filter, group or sort on.
struct DocRow {
  int64_t tenant = 0;
  int64_t record = 0;
  int64_t ctime = 0;
  int64_t status = 0;
  int64_t flag = 0;
  int64_t group = 0;
  int64_t quantity = 0;
  int64_t region = 0;
  int64_t channel = 0;
  double amount = 0;
};

// Reads the columns above out of a generated (or returned) document.
DocRow RowFromDocument(const esdb::Document& doc);

// The benchmark's own copy of what it wrote, plus the write tally
// (per-tenant and total counts the client keeps itself).
class Corpus {
 public:
  void Add(const DocRow& row);
  size_t size() const { return rows_.size(); }
  const std::vector<DocRow>& rows() const { return rows_; }
  // Indices into rows(), in insertion order.
  const std::vector<uint32_t>& TenantRows(int64_t tenant) const;
  uint64_t TenantCount(int64_t tenant) const {
    return TenantRows(tenant).size();
  }

 private:
  std::vector<DocRow> rows_;
  std::unordered_map<int64_t, std::vector<uint32_t>> by_tenant_;
};

// One extra filter of the Section 6.3 query template (the same eight
// kinds workload/generator.cc samples from).
struct Filter {
  enum Kind {
    kStatus,
    kFlag,
    kGroup,
    kAmountGe,
    kQuantityLe,
    kRegionIn,
    kChannel,
    kStatusOneOrGroup,
  };
  Kind kind = kStatus;
  int64_t a = 0;
  int64_t b = 0;
};

enum class QueryClass { kHot, kTail, kTopK, kAgg, kCount };
inline constexpr int kNumQueryClasses = 4;  // hot, tail, topk, agg
const char* ClassName(QueryClass c);

// A query in structured form: rendered to SQL for the engine,
// evaluated directly by the oracle.
//  - hot/tail: tenant + created_time window + filters,
//    ORDER BY created_time DESC LIMIT `limit`;
//  - topk: tenant only, ORDER BY created_time DESC LIMIT `limit`;
//  - agg: broadcast SUM(amount) with filters, GROUP BY region;
//  - count: COUNT(*) of one tenant, or of everything when tenant == 0.
struct QuerySpec {
  QueryClass cls = QueryClass::kHot;
  int64_t tenant = 0;
  int64_t t_lo = 0;  // inclusive, micros (hot/tail)
  int64_t t_hi = 0;  // inclusive, micros (hot/tail)
  std::vector<Filter> filters;
  int64_t limit = 100;

  std::string Sql() const;
  bool Matches(const DocRow& row) const;
  bool TenantScoped() const { return tenant != 0; }
};

// Brute-force answers over the corpus copy.
std::vector<DocRow> ExpectedRows(const QuerySpec& spec, const Corpus& corpus,
                                 uint64_t* total_matched);
struct ExpectedGroup {
  uint64_t count = 0;
  double sum = 0;
};
std::map<int64_t, ExpectedGroup> ExpectedGroups(const QuerySpec& spec,
                                                const Corpus& corpus);
uint64_t ExpectedCount(const QuerySpec& spec, const Corpus& corpus);

// Relative tolerance for float sums: the engine adds per-segment
// partial sums in its own order, so only the rounding may differ.
inline constexpr double kSumRelTolerance = 1e-9;

// Checks an engine answer against the oracle; returns "" when it
// agrees, or a description of the first disagreement.
//  - row classes: top-k order and membership against the brute-force
//    answer, every returned row satisfies the filter, and total_matched
//    lies between the number of rows returned and the true match count;
//  - agg: the group keys, exact group counts, sums within tolerance;
//  - count: the exact count.
std::string CheckAnswer(const QuerySpec& spec, const Corpus& corpus,
                        const esdb::QueryResult& result);

// Canonical byte form of an answer: rows, match count, aggregates and
// groups. Two answers are byte-identical iff their forms are equal.
std::string CanonicalAnswer(const esdb::QueryResult& result);

// Same rows in the same order, the same aggregates and groups, with
// sums compared within kSumRelTolerance. total_matched is not compared:
// it may legitimately become a lower bound when the access path changes
// (demotion to the cold tier), and the top-k pushdown can undercount it
// (see the benchmark README). Returns "" when equal.
std::string CompareAnswers(const esdb::QueryResult& a,
                           const esdb::QueryResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
