#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>

#include "cluster/distributed.h"
#include "cluster/esdb.h"
#include "oracle.h"
#include "query/cost.h"
#include "query/normalize.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "stats.h"
#include "storage/block_cache.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using esdb::Document;
using esdb::QueryResult;
using esdb::Result;
using esdb::Status;

// --- Input make-up shared by every workload ---------------------------

constexpr uint64_t kNumTenants = 100000;
// created_time of document i is kEpochMicros + i * kDocStepMicros:
// unique per document (so every top-k answer is unique) and on whole
// seconds (so the SQL datetime literals are exact).
constexpr int64_t kEpochMicros = 1700000000LL * 1000000;
constexpr int64_t kDocStepMicros = 5LL * 1000000;
constexpr int64_t kWindowMicros = 86400LL * 1000000;  // one day
constexpr int kSetupRepeats = 3;
constexpr int kNumHotTenants = 10;
constexpr int kNumRankedTenants = 100;
// Tenants of popularity rank >= this are "long tail" (one shard each).
constexpr uint64_t kTailMinRank = 1000;
// Every kCheckEvery-th query of each class is checked by the oracle.
constexpr uint64_t kCheckEvery = 4;

// The shape of one workload; every count is fixed, nothing depends on
// wall time except how many whole rounds fit in the timed phase.
struct Shape {
  double theta = 1.0;
  size_t preload_docs = 0;
  size_t preload_refresh_every = 0;  // docs between preload RefreshAll calls
  bool balance = false;              // RunBalanceCycle after refreshes
  size_t round_docs = 0;             // timed-phase docs per round
  size_t balance_every_rounds = 0;
  size_t migrate_every_rounds = 0;   // cluster_rw only
  std::array<int, kNumQueryClasses> round_queries{};  // hot, tail, topk, agg
  size_t warmup_rounds = 0;
  // Timed rounds per second of --seconds: the timed phase runs a fixed
  // number of rounds, calibrated to last about --seconds on a 4-vCPU
  // x86 VM, so every run of a seed does the same work (and a growing
  // corpus ends at the same size) however fast the engine is.
  double rounds_per_second = 0;
  // Read-only timed phase: the write metrics come from the preloads.
  bool write_metrics_from_setup = false;
  bool tiering = false;
  size_t block_cache_bytes = 0;
  bool cluster = false;
  uint32_t cluster_nodes = 0;
};

Shape ShapeOf(const std::string& workload) {
  Shape s;
  if (workload == "ingest_skew") {
    s.preload_docs = 8000;
    s.preload_refresh_every = 2000;
    s.balance = true;
    s.round_docs = 2000;
    s.balance_every_rounds = 1;
    s.round_queries = {12, 12, 12, 2};
    s.rounds_per_second = 2.7;
  } else if (workload == "query_mix") {
    s.preload_docs = 24000;
    s.preload_refresh_every = 2000;
    s.balance = true;
    s.round_queries = {4, 4, 2, 1};
    s.warmup_rounds = 20;
    s.rounds_per_second = 120;
    s.write_metrics_from_setup = true;
  } else if (workload == "cluster_rw") {
    s.cluster = true;
    s.cluster_nodes = 4;
    s.preload_docs = 16000;
    s.preload_refresh_every = 2000;
    s.round_docs = 2000;
    s.migrate_every_rounds = 5;
    s.round_queries = {12, 12, 8, 8};
    s.rounds_per_second = 1.75;
  } else if (workload == "cold_tail") {
    s.theta = 0.8;
    s.preload_docs = 16000;
    s.preload_refresh_every = 2000;
    s.round_queries = {8, 40, 20, 1};
    s.warmup_rounds = 2;
    s.rounds_per_second = 6;
    s.write_metrics_from_setup = true;
    s.tiering = true;
    // About two thirds of the ~18.6 MB of blocks the demoted corpus
    // decodes to when every shard is queried.
    s.block_cache_bytes = 12u << 20;
  }
  return s;
}

// --- Inputs ------------------------------------------------------------

class DocSource {
 public:
  DocSource(uint64_t seed, double theta)
      : gen_(MakeOptions(seed, theta)) {}

  Document Next() {
    const int64_t t = kEpochMicros + int64_t(produced_) * kDocStepMicros;
    ++produced_;
    return gen_.NextDocument(t);
  }
  // created_time the next document will carry.
  int64_t NextTime() const {
    return kEpochMicros + int64_t(produced_) * kDocStepMicros;
  }
  int64_t HotTenant(int i) const { return gen_.TenantForRank(uint64_t(i)); }

 private:
  static esdb::WorkloadGenerator::Options MakeOptions(uint64_t seed,
                                                      double theta) {
    esdb::WorkloadGenerator::Options o;
    o.num_tenants = kNumTenants;
    o.theta = theta;
    o.seed = seed;
    return o;
  }

  esdb::WorkloadGenerator gen_;
  uint64_t produced_ = 0;
};

// Builds query specs from the seed and the corpus written so far.
class QuerySource {
 public:
  // `ranked` holds the kNumRankedTenants most popular tenants, hottest
  // first.
  QuerySource(uint64_t seed, const Corpus* corpus, std::vector<int64_t> ranked)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 17),
        corpus_(corpus),
        ranked_(std::move(ranked)) {}

  QuerySpec Make(QueryClass cls) {
    QuerySpec q;
    q.cls = cls;
    switch (cls) {
      case QueryClass::kHot:
        q.tenant = ranked_[next_hot_++ % kNumHotTenants];
        Window(&q);
        AddTemplateFilters(&q);
        q.limit = 100;
        break;
      case QueryClass::kTail:
        q.tenant = TailTenant();
        Window(&q);
        AddTemplateFilters(&q);
        q.limit = 100;
        break;
      case QueryClass::kTopK:
        // Torso tenants (ranks 10..99): enough rows for the pushdown to
        // skip most of them, and a cost that varies smoothly with rank.
        q.tenant = ranked_[kNumHotTenants + Uniform(kNumRankedTenants - kNumHotTenants)];
        q.limit = 10;
        break;
      case QueryClass::kAgg:
        // One filter kind, so every agg query has the same selectivity.
        q.filters.push_back(Filter{Filter::kStatus, int64_t(Uniform(5)), 0});
        q.limit = -1;
        break;
      case QueryClass::kCount:
        break;
    }
    return q;
  }

  const DocRow& RandomRow() {
    return corpus_->rows()[Uniform(corpus_->size())];
  }

 private:
  uint64_t Uniform(uint64_t n) { return rng_() % n; }

  int64_t TailTenant() {
    const int64_t min_tenant = int64_t(kTailMinRank) + 1;  // rank r -> r + 1
    for (int tries = 0; tries < 1000; ++tries) {
      const int64_t t = RandomRow().tenant;
      if (t >= min_tenant) return t;
    }
    return min_tenant;
  }

  // One-day window ending on a whole second inside the written range.
  void Window(QuerySpec* q) {
    const int64_t first = corpus_->rows().front().ctime;
    const int64_t last = corpus_->rows().back().ctime;
    int64_t hi = last;
    const int64_t slack = (last - first - kWindowMicros) / 1000000;
    if (slack > 0) hi -= int64_t(Uniform(uint64_t(slack) + 1)) * 1000000;
    q->t_hi = hi;
    q->t_lo = hi - kWindowMicros;
  }

  // 1..8 of the template's eight extra filters, without replacement,
  // with the generator's parameter ranges.
  void AddTemplateFilters(QuerySpec* q) {
    std::vector<int> pool = {0, 1, 2, 3, 4, 5, 6, 7};
    const uint64_t extra = 1 + Uniform(8);
    for (uint64_t i = 0; i < extra; ++i) {
      const size_t pick = Uniform(pool.size());
      Filter f;
      f.kind = Filter::Kind(pool[pick]);
      pool.erase(pool.begin() + long(pick));
      switch (f.kind) {
        case Filter::kStatus:
          f.a = int64_t(Uniform(5));
          break;
        case Filter::kFlag:
          f.a = int64_t(Uniform(2));
          break;
        case Filter::kGroup:
        case Filter::kStatusOneOrGroup:
          f.a = int64_t(Uniform(1000));
          break;
        case Filter::kAmountGe:
          f.a = int64_t(Uniform(500));
          break;
        case Filter::kQuantityLe:
          f.a = int64_t(1 + Uniform(10));
          break;
        case Filter::kRegionIn:
          f.a = int64_t(Uniform(32));
          f.b = int64_t(Uniform(32));
          break;
        case Filter::kChannel:
          f.a = int64_t(Uniform(8));
          break;
      }
      q->filters.push_back(f);
    }
  }

  std::mt19937_64 rng_;
  const Corpus* corpus_;
  std::vector<int64_t> ranked_;
  size_t next_hot_ = 0;
};

// --- Per-run state -------------------------------------------------------

constexpr std::array<const char*, 7> kStages = {
    "parse", "normalize", "plan", "cost", "shard_exec", "fetch", "merge"};
enum Stage { kParse, kNormalize, kPlan, kCost, kShardExec, kFetch, kMerge };

// Span names, built once.
struct SpanNames {
  std::array<std::array<std::string, kStages.size()>, kNumQueryClasses> stage;
  std::array<std::string, kNumQueryClasses> total;
  SpanNames() {
    for (int c = 0; c < kNumQueryClasses; ++c) {
      const std::string cls = ClassName(QueryClass(c));
      total[size_t(c)] = "query.total." + cls;
      for (size_t s = 0; s < kStages.size(); ++s) {
        stage[size_t(c)][s] = std::string("query.") + kStages[s] + "_us." + cls;
      }
    }
  }
};
const SpanNames& Names() {
  static const SpanNames names;
  return names;
}

// Work counters of one traced query.
struct QueryWork {
  esdb::ExecStats stats;
  size_t fanout = 0;
};

struct ClassWork {
  uint64_t queries = 0;
  uint64_t postings = 0;
  uint64_t docs_filtered = 0;
  uint64_t rows_materialized = 0;
  uint64_t rows_skipped = 0;
  uint64_t stats_only = 0;
  uint64_t batches = 0;
  uint64_t matched = 0;
  uint64_t examined = 0;
};

struct Memory {
  size_t resident = 0;
  size_t translog = 0;
  size_t cold = 0;
  size_t cache_charge = 0;
  size_t live_docs = 0;
  size_t segments = 0;
  uint32_t shards = 0;
};

class Run {
 public:
  Run(const RunConfig& config, Outcome* outcome)
      : cfg(config), out(outcome) {}

  void Count(const std::string& op, const Status& st) {
    OpCount& c = ops[op];
    c.op = op;
    ++c.attempted;
    if (!st.ok()) {
      ++c.failed;
      if (failures_shown_++ < 5) {
        std::fprintf(stderr, "%s failed: %s\n", op.c_str(),
                     st.ToString().c_str());
      }
    }
  }
  void Mismatch(const std::string& what) {
    out->correct = false;
    if (out->errors.size() < 8) out->errors.push_back(what);
  }

  const RunConfig cfg;
  Outcome* out;
  Tracer tracer;
  std::map<std::string, OpCount> ops;

  // End-to-end samples.
  Samples setup_s;
  Samples ack_us;
  Samples lag_ms;
  std::array<Samples, kNumQueryClasses> query_us;
  Samples query_all_us;
  int64_t write_ns = 0;
  uint64_t write_docs = 0;
  int64_t query_ns = 0;

  // Per-layer counters of the traced timed phase.
  std::array<ClassWork, kNumQueryClasses> work{};
  uint64_t fanout_sum = 0;
  uint64_t fanout_queries = 0;
  uint64_t merges = 0;
  uint64_t repl_bytes = 0;
  uint64_t repl_segments = 0;
  uint64_t repl_rounds = 0;
  uint64_t migrations = 0;
  uint64_t migration_bytes = 0;
  Samples cold_miss_us;
  Samples cold_hit_us;
  bool timed = false;    // inside the timed phase
  bool tracing = false;  // traced composition on (timed phase of --trace 1)

 private:
  int failures_shown_ = 0;
};

// --- Engines -----------------------------------------------------------

// Uniform surface over the two facades. With tracing on, each call is
// composed from the layers' public functions, with a span around each.
class Target {
 public:
  virtual ~Target() = default;
  virtual Status Insert(Document doc, Run& run) = 0;
  virtual void RefreshAll(Run& run) = 0;
  virtual Result<QueryResult> Query(const QuerySpec& spec,
                                    const std::string& sql, Run& run,
                                    QueryWork* work) = 0;
  virtual Result<QueryResult> FacadeQuery(const std::string& sql) = 0;
  virtual Memory MemoryNow() = 0;
  virtual size_t Rules() = 0;
  virtual uint64_t FilterCacheHits() { return 0; }
  virtual uint64_t FilterCacheMisses() { return 0; }
  virtual esdb::BlockCache* block_cache() { return nullptr; }
};

class EsdbTarget : public Target {
 public:
  explicit EsdbTarget(esdb::Esdb::Options options)
      : options_(options), db_(std::move(options)) {}

  esdb::Esdb& db() { return db_; }

  Status Insert(Document doc, Run& run) override {
    if (!run.tracing) return db_.Insert(std::move(doc));
    // Esdb::Apply without replicas, step by step.
    esdb::WriteOp op{esdb::OpType::kInsert, std::move(doc)};
    const esdb::RouteKey key{op.tenant_id(), op.record_id(), op.created_time()};
    esdb::ShardId shard;
    {
      Tracer::Scope s(&run.tracer, "routing.route_write_ns");
      shard = db_.routing().RouteWrite(key);
    }
    db_.monitor()->RecordWrite(key.tenant);
    if (db_.tier_admission() != nullptr) db_.tier_admission()->RecordWrite(shard);
    Tracer::Scope s(&run.tracer, "storage.apply_us");
    auto seq = db_.shard(shard)->Apply(op);
    return seq.ok() ? Status::OK() : seq.status();
  }

  void RefreshAll(Run& run) override {
    if (!run.tracing) {
      db_.RefreshAll();
      return;
    }
    // Esdb::RefreshAll with serial maintenance and no replicas.
    Tracer::Scope all(&run.tracer, "refresh_all");
    for (uint32_t i = 0; i < db_.num_shards(); ++i) {
      esdb::ShardStore* store = db_.shard(esdb::ShardId(i));
      {
        Tracer::Scope s(&run.tracer, "storage.refresh");
        store->Refresh();
      }
      bool merged;
      {
        Tracer::Scope s(&run.tracer, "storage.merge");
        merged = store->MaybeMerge();
      }
      if (merged && run.timed) ++run.merges;
    }
  }

  Result<QueryResult> FacadeQuery(const std::string& sql) override {
    return db_.ExecuteSql(sql);
  }

  // Esdb::ExecuteWithPlanner (serial fan-out), stage by stage.
  Result<QueryResult> Query(const QuerySpec& spec, const std::string& sql,
                            Run& run, QueryWork* work) override {
    if (!run.tracing) return db_.ExecuteSql(sql);
    const size_t c = size_t(spec.cls);
    const auto& names = Names().stage[c];
    Tracer& t = run.tracer;
    t.NewRequest();
    Tracer::Scope total(&t, Names().total[c]);
    esdb::Query query;
    {
      Tracer::Scope s(&t, names[kParse]);
      auto parsed = esdb::ParseSql(sql);
      if (!parsed.ok()) return parsed.status();
      query = std::move(*parsed);
    }
    std::unique_ptr<esdb::Expr> normalized;
    {
      Tracer::Scope s(&t, names[kNormalize]);
      if (query.where != nullptr) {
        normalized = esdb::NormalizeForPlanning(query.where->Clone());
      }
    }
    std::vector<esdb::ShardId> targets;
    std::unique_ptr<esdb::PlanNode> plan;
    std::vector<esdb::SegmentSnapshot> snapshots;
    {
      Tracer::Scope s(&t, names[kPlan]);
      if (spec.TenantScoped()) {
        targets = db_.routing().RouteRead(spec.tenant);
      } else {
        targets.resize(db_.num_shards());
        for (uint32_t i = 0; i < db_.num_shards(); ++i) targets[i] = i;
      }
      if (db_.tier_admission() != nullptr) {
        for (esdb::ShardId sh : targets) db_.tier_admission()->RecordQuery(sh);
      }
      plan = esdb::PlanWhere(normalized.get(), db_.spec(), options_.planner);
      snapshots.reserve(targets.size());
      for (esdb::ShardId sh : targets) {
        snapshots.push_back(db_.shard(sh)->Snapshot());
      }
    }
    work->fanout = targets.size();
    esdb::ExecStats& stats = work->stats;
    if (options_.planner.use_cost_model) {
      Tracer::Scope s(&t, names[kCost]);
      const esdb::StatsView view = esdb::StatsView::Collect(snapshots);
      esdb::ApplyCostTransforms(query, db_.spec(), view, &plan);
      ++stats.plans_costed;
    }
    esdb::FilterCache* cache =
        options_.use_filter_cache ? db_.filter_cache() : nullptr;
    esdb::ExecOptions exec;
    exec.batch_execution = db_.batch_execution();
    const size_t n = targets.size();

    if (options_.two_phase_queries && query.agg == esdb::AggFunc::kNone &&
        query.group_by.empty()) {
      std::vector<std::vector<esdb::RowRef>> shard_refs(n);
      uint64_t total_matched = 0;
      bool exact = true;
      {
        Tracer::Scope s(&t, names[kShardExec]);
        for (size_t i = 0; i < n; ++i) {
          esdb::ExecStats shard_stats;
          uint64_t matched = 0;
          bool shard_exact = true;
          auto refs = esdb::ExecuteQueryPhase(
              query, *plan, *snapshots[i], uint32_t(i), &shard_stats,
              &matched, &shard_exact, cache, targets[i], exec);
          if (!refs.ok()) return refs.status();
          stats.Add(shard_stats);
          total_matched += matched;
          exact = exact && shard_exact;
          shard_refs[i] = std::move(*refs);
        }
      }
      std::vector<esdb::RowRef> all_refs;
      {
        Tracer::Scope s(&t, names[kMerge]);
        for (auto& refs : shard_refs) {
          for (auto& ref : refs) all_refs.push_back(std::move(ref));
        }
        if (!query.order_by.empty()) esdb::SortRowRefs(query, &all_refs);
        if (query.offset > 0) {
          const size_t skip = std::min(size_t(query.offset), all_refs.size());
          all_refs.erase(all_refs.begin(), all_refs.begin() + long(skip));
        }
        if (query.limit >= 0 && int64_t(all_refs.size()) > query.limit) {
          all_refs.resize(size_t(query.limit));
        }
      }
      QueryResult result;
      result.total_matched = total_matched;
      result.total_matched_exact = exact;
      {
        Tracer::Scope s(&t, names[kFetch]);
        auto fetched =
            esdb::ExecuteFetchPhase(query, snapshots, all_refs, &stats, exec);
        if (!fetched.ok()) return fetched.status();
        result.rows = std::move(*fetched);
        esdb::ProjectRows(query, &result.rows);
      }
      return result;
    }

    std::vector<QueryResult> shard_results(n);
    {
      Tracer::Scope s(&t, names[kShardExec]);
      for (size_t i = 0; i < n; ++i) {
        esdb::ExecStats shard_stats;
        auto r = esdb::ExecuteOnShard(query, *plan, *snapshots[i],
                                      &shard_stats, cache, targets[i], exec);
        if (!r.ok()) return r.status();
        stats.Add(shard_stats);
        shard_results[i] = std::move(*r);
      }
    }
    Tracer::Scope s(&t, names[kMerge]);
    return esdb::AggregateResults(query, std::move(shard_results));
  }

  Memory MemoryNow() override {
    Memory m;
    const esdb::ShardSizeBreakdown b = db_.SizeBreakdownTotal();
    m.resident = b.resident_bytes;
    m.translog = b.translog_bytes;
    m.cold = b.cold_bytes;
    m.live_docs = db_.TotalDocs();
    m.shards = db_.num_shards();
    for (uint32_t i = 0; i < db_.num_shards(); ++i) {
      m.segments += db_.shard(esdb::ShardId(i))->num_segments();
    }
    if (db_.block_cache() != nullptr) {
      m.cache_charge = db_.block_cache()->stats().charged_bytes;
    }
    return m;
  }

  size_t Rules() override {
    return db_.dynamic_routing() == nullptr ? 0
                                            : db_.dynamic_routing()->rules().size();
  }
  uint64_t FilterCacheHits() override { return db_.filter_cache()->hits(); }
  uint64_t FilterCacheMisses() override { return db_.filter_cache()->misses(); }
  esdb::BlockCache* block_cache() override { return db_.block_cache(); }

 private:
  const esdb::Esdb::Options options_;
  esdb::Esdb db_;
};

class ClusterTarget : public Target {
 public:
  explicit ClusterTarget(esdb::DistributedEsdb::Options options)
      : options_(options), db_(std::move(options)) {}

  esdb::DistributedEsdb& db() { return db_; }

  Status Insert(Document doc, Run& run) override {
    if (!run.tracing) return db_.Insert(std::move(doc));
    // The cluster write path (route, primary apply, migration
    // mirroring) has no public step below the facade.
    Tracer::Scope s(&run.tracer, "storage.apply_us");
    return db_.Insert(std::move(doc));
  }

  void RefreshAll(Run& run) override {
    if (!run.tracing) {
      db_.RefreshAll();
      return;
    }
    // Replication runs inside RefreshAll; its counters are read
    // around the call from the same pinned shards.
    std::vector<std::shared_ptr<esdb::ReplicatedShard>> shards;
    std::vector<esdb::ReplicationStats> before;
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      shards.push_back(db_.MigrationSource(esdb::ShardId(i)));
      before.push_back(shards.back()->stats());
    }
    {
      Tracer::Scope s(&run.tracer, "cluster.refresh_ms");
      db_.RefreshAll();
    }
    if (!run.timed) return;
    for (size_t i = 0; i < shards.size(); ++i) {
      const esdb::ReplicationStats after = shards[i]->stats();
      run.repl_bytes += after.bytes_copied - before[i].bytes_copied;
      run.repl_segments += after.segments_copied - before[i].segments_copied;
      run.repl_rounds += after.rounds - before[i].rounds;
    }
  }

  Result<QueryResult> FacadeQuery(const std::string& sql) override {
    return db_.ExecuteSql(sql);
  }

  // DistributedEsdb::ExecuteSql, stage by stage.
  Result<QueryResult> Query(const QuerySpec& spec, const std::string& sql,
                            Run& run, QueryWork* work) override {
    if (!run.tracing) return db_.ExecuteSql(sql);
    const size_t c = size_t(spec.cls);
    const auto& names = Names().stage[c];
    Tracer& t = run.tracer;
    t.NewRequest();
    Tracer::Scope total(&t, Names().total[c]);
    esdb::Query query;
    {
      Tracer::Scope s(&t, names[kParse]);
      auto parsed = esdb::ParseSql(sql);
      if (!parsed.ok()) return parsed.status();
      query = std::move(*parsed);
    }
    std::unique_ptr<esdb::Expr> normalized;
    {
      Tracer::Scope s(&t, names[kNormalize]);
      if (query.where != nullptr) {
        normalized = esdb::NormalizeForPlanning(query.where->Clone());
      }
    }
    std::vector<esdb::ShardId> targets;
    std::unique_ptr<esdb::PlanNode> plan;
    {
      Tracer::Scope s(&t, names[kPlan]);
      if (spec.TenantScoped()) {
        targets = db_.dynamic_routing()->RouteRead(spec.tenant);
      } else {
        targets.resize(options_.num_shards);
        for (uint32_t i = 0; i < options_.num_shards; ++i) targets[i] = i;
      }
      plan = esdb::PlanWhere(normalized.get(), options_.spec, options_.planner);
    }
    work->fanout = targets.size();
    std::vector<QueryResult> shard_results;
    shard_results.reserve(targets.size());
    {
      Tracer::Scope s(&t, names[kShardExec]);
      for (esdb::ShardId shard : targets) {
        const auto pinned = db_.MigrationSource(shard);
        auto r = esdb::ExecuteOnShard(query, *plan,
                                      *pinned->primary()->Snapshot(),
                                      &work->stats);
        if (!r.ok()) return r.status();
        shard_results.push_back(std::move(*r));
      }
    }
    Tracer::Scope s(&t, names[kMerge]);
    return esdb::AggregateResults(query, std::move(shard_results));
  }

  Memory MemoryNow() override {
    Memory m;
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      const auto shard = db_.MigrationSource(esdb::ShardId(i));
      const esdb::ShardSizeBreakdown b = shard->primary()->SizeBreakdown();
      m.resident += b.resident_bytes;
      m.translog += b.translog_bytes;
      m.cold += b.cold_bytes;
      m.segments += shard->primary()->num_segments();
    }
    m.live_docs = db_.TotalDocs();
    m.shards = options_.num_shards;
    return m;
  }

  size_t Rules() override {
    return db_.dynamic_routing() == nullptr ? 0
                                            : db_.dynamic_routing()->rules().size();
  }

 private:
  const esdb::DistributedEsdb::Options options_;
  esdb::DistributedEsdb db_;
};

// --- Phases ------------------------------------------------------------

double Seconds(int64_t ns) { return double(ns) / 1e9; }

// Checks one answer against the oracle; counts a mismatch.
void Verify(const QuerySpec& spec, const Corpus& corpus,
            const QueryResult& result, Run& run) {
  const std::string err = CheckAnswer(spec, corpus, result);
  if (!err.empty()) {
    run.Mismatch(std::string(ClassName(spec.cls)) + " query `" + spec.Sql() +
                 "`: " + err);
  }
  run.Count(std::string("oracle.") + ClassName(spec.cls), Status::OK());
}

// Writes `n` docs one at a time, then runs RefreshAll. With `record`,
// adds ack latencies, visibility lags and write time to the run.
void WriteRound(Target& target, DocSource& docs, Corpus& corpus, size_t n,
                   Run& run, bool record) {
  std::vector<Document> batch;
  std::vector<DocRow> rows;
  batch.reserve(n);
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(docs.Next());
    rows.push_back(RowFromDocument(batch.back()));
  }
  std::vector<int64_t> acked_at;
  acked_at.reserve(n);
  if (run.tracing) run.tracer.NewRequest();
  int64_t busy = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    const Status st = target.Insert(std::move(batch[i]), run);
    const int64_t t1 = NowNs();
    busy += t1 - t0;
    run.Count("insert", st);
    if (!st.ok()) continue;
    corpus.Add(rows[i]);
    acked_at.push_back(t1);
    if (record) run.ack_us.Add(double(t1 - t0) / 1e3);
  }
  const int64_t r0 = NowNs();
  target.RefreshAll(run);
  const int64_t r1 = NowNs();
  busy += r1 - r0;
  run.Count("refresh", Status::OK());
  if (record) {
    for (int64_t a : acked_at) run.lag_ms.Add(double(r1 - a) / 1e6);
    run.write_ns += busy;
    run.write_docs += acked_at.size();
  }
}

// Visibility probe: a tenant's COUNT(*) (or the total, tenant 0) must
// equal the client's own tally right after a refresh.
void Probe(Target& target, const Corpus& corpus, int64_t tenant, Run& run) {
  QuerySpec spec;
  spec.cls = QueryClass::kCount;
  spec.tenant = tenant;
  auto r = target.FacadeQuery(spec.Sql());
  run.Count("probe", r.status());
  if (r.ok()) Verify(spec, corpus, *r, run);
}

// Runs one query; checks every kCheckEvery-th answer of its class.
void RunQuery(Target& target, const QuerySpec& spec, const Corpus& corpus,
                 Run& run, bool record, uint64_t* seen) {
  const size_t c = size_t(spec.cls);
  const std::string sql = spec.Sql();
  QueryWork work;
  esdb::BlockCache* cache = target.block_cache();
  const uint64_t misses_before = cache != nullptr ? cache->stats().misses : 0;
  const int64_t t0 = NowNs();
  auto r = target.Query(spec, sql, run, &work);
  const int64_t t1 = NowNs();
  run.Count(std::string("query.") + ClassName(spec.cls), r.status());
  if (!r.ok()) return;
  const double us = double(t1 - t0) / 1e3;
  if (record) {
    run.query_us[c].Add(us);
    run.query_all_us.Add(us);
    run.query_ns += t1 - t0;
  }
  if (++seen[c] % kCheckEvery == 1) Verify(spec, corpus, *r, run);
  if (run.tracing) {
    // The composed path must give the facade's answer byte for byte.
    auto facade = target.FacadeQuery(sql);
    if (!facade.ok() || CanonicalAnswer(*facade) != CanonicalAnswer(*r)) {
      run.Mismatch(std::string("traced composition differs from ExecuteSql: ") +
                   sql);
    }
    if (record) {
      ClassWork& w = run.work[c];
      ++w.queries;
      w.postings += work.stats.postings_considered;
      w.docs_filtered += work.stats.docs_filtered;
      w.rows_materialized += work.stats.rows_materialized;
      w.rows_skipped += work.stats.rows_skipped_by_pushdown;
      w.stats_only += work.stats.stats_only_answers;
      w.batches += work.stats.batches_evaluated;
      uint64_t matched = r->total_matched;
      for (const auto& [key, g] : r->groups) matched += g.count;
      w.matched += matched;
      w.examined += work.stats.docs_filtered > 0 ? work.stats.docs_filtered
                                                 : work.stats.postings_considered;
      if (spec.TenantScoped()) {
        run.fanout_sum += work.fanout;
        ++run.fanout_queries;
      }
      if (cache != nullptr) {
        (cache->stats().misses > misses_before ? run.cold_miss_us
                                               : run.cold_hit_us)
            .Add(us);
      }
    }
  }
}

// The round's queries, classes interleaved in a fixed order.
std::vector<QuerySpec> MakeRoundQueries(QuerySource& qs, const Shape& shape) {
  std::vector<QuerySpec> specs;
  std::array<int, kNumQueryClasses> left = shape.round_queries;
  bool any = true;
  while (any) {
    any = false;
    for (int c = 0; c < kNumQueryClasses; ++c) {
      if (left[size_t(c)] == 0) continue;
      --left[size_t(c)];
      any = true;
      specs.push_back(qs.Make(QueryClass(c)));
    }
  }
  return specs;
}

// Per-tenant and total counts against the client's tally.
void CheckTally(Target& target, const Corpus& corpus, DocSource& docs,
                QuerySource& qs, Run& run) {
  Probe(target, corpus, 0, run);
  for (int i = 0; i < kNumHotTenants; ++i) {
    Probe(target, corpus, docs.HotTenant(i), run);
  }
  for (int i = 0; i < 20; ++i) Probe(target, corpus, qs.RandomRow().tenant, run);
}

void AddMetric(Outcome* out, const std::string& name, double value,
               const std::string& unit) {
  out->metrics.push_back(Metric{name, value, unit});
}

void Note(Outcome* out, const std::string& line) { out->notes.push_back(line); }

// --- Workload runner -------------------------------------------------------

esdb::Esdb::Options EsdbOptions(const Shape& shape) {
  esdb::Esdb::Options o;  // defaults, except the fields named here
  if (shape.tiering) {
    o.tiering.enabled = true;
    o.tiering.block_cache_bytes = shape.block_cache_bytes;
    // Every shard classifies cold at the set-up tiering cycle.
    o.tiering.admission.cold_threshold = UINT64_MAX;
  }
  return o;
}

class Workload {
 public:
  Workload(const RunConfig& cfg, Outcome* out)
      : run_(cfg, out), shape_(ShapeOf(cfg.workload)) {}

  void Execute() {
    Setup();
    Warmup();
    Timed();
    Finish();
  }

 private:
  // Builds the starting state kSetupRepeats times from the same seed
  // and keeps the last; set-up time is the median.
  void Setup() {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      target_.reset();
      eng_ = nullptr;
      cluster_ = nullptr;
      corpus_ = std::make_unique<Corpus>();
      docs_ = std::make_unique<DocSource>(run_.cfg.seed, shape_.theta);
      const int64_t t0 = NowNs();
      int64_t paused = 0;
      BuildOnce(&paused);
      run_.setup_s.Add(Seconds(NowNs() - t0 - paused));
    }
    const std::vector<int64_t> ranked = RankedTenants();
    queries_ = std::make_unique<QuerySource>(run_.cfg.seed, corpus_.get(), ranked);
  }

  std::vector<int64_t> RankedTenants() const {
    std::vector<int64_t> ranked;
    for (int i = 0; i < kNumRankedTenants; ++i) ranked.push_back(docs_->HotTenant(i));
    return ranked;
  }

  void BuildOnce(int64_t* paused) {
    const bool record = shape_.write_metrics_from_setup;
    Run& run = run_;
    if (shape_.cluster) {
      auto t = std::make_unique<ClusterTarget>(esdb::DistributedEsdb::Options{});
      for (uint32_t n = 1; n <= shape_.cluster_nodes; ++n) {
        run.Count("add_node", t->db().AddNode(esdb::NodeId(n)));
      }
      cluster_ = t.get();
      target_ = std::move(t);
    } else {
      auto t = std::make_unique<EsdbTarget>(EsdbOptions(shape_));
      eng_ = t.get();
      target_ = std::move(t);
    }
    // The preload is never traced: tracing covers the timed phase.
    size_t written = 0;
    while (written < shape_.preload_docs) {
      const size_t n = std::min(shape_.preload_refresh_every,
                                shape_.preload_docs - written);
      WriteRound(*target_, *docs_, *corpus_, n, run, record);
      written += n;
      if (shape_.balance) {
        const int64_t b0 = NowNs();
        eng_->db().RunBalanceCycle(docs_->NextTime());
        if (record) run.write_ns += NowNs() - b0;
        run.Count("balance", Status::OK());
      }
    }
    if (shape_.tiering) Demote(paused);
  }

  // Demotes every shard to the cold tier, and checks that a fixed
  // query sample answers the same before and after.
  void Demote(int64_t* paused) {
    const int64_t p0 = NowNs();
    const std::vector<int64_t> ranked = RankedTenants();
    QuerySource sample_source(run_.cfg.seed + 7, corpus_.get(), ranked);
    std::vector<QuerySpec> sample;
    for (int i = 0; i < 4; ++i) {
      for (const QuerySpec& q : MakeRoundQueries(sample_source, shape_)) {
        sample.push_back(q);
      }
    }
    std::vector<Result<QueryResult>> before;
    for (const QuerySpec& q : sample) before.push_back(eng_->db().ExecuteSql(q.Sql()));
    *paused += NowNs() - p0;

    // One cycle classifies every shard cold (the admission threshold
    // is unreachable) and its merge pass rewrites every segment.
    const size_t cold = eng_->db().RunTieringCycle();
    run_.Count("tiering_cycle", cold == eng_->db().num_shards()
                                    ? Status::OK()
                                    : Status::Internal("shards left hot"));

    const int64_t p1 = NowNs();
    for (size_t i = 0; i < sample.size(); ++i) {
      auto after = eng_->db().ExecuteSql(sample[i].Sql());
      run_.Count("property.demotion", after.status());
      if (!before[i].ok() || !after.ok()) continue;
      const std::string diff = CompareAnswers(*before[i], *after);
      if (!diff.empty()) {
        run_.Mismatch("demotion changed the answer of `" + sample[i].Sql() +
                      "`: " + diff);
      }
    }
    *paused += NowNs() - p1;
  }

  void Warmup() {
    uint64_t seen[kNumQueryClasses] = {};
    for (size_t r = 0; r < shape_.warmup_rounds; ++r) {
      for (const QuerySpec& q : MakeRoundQueries(*queries_, shape_)) {
        RunQuery(*target_, q, *corpus_, run_, /*record=*/false, seen);
      }
    }
  }

  // Fewest rounds that give every reported percentile enough samples.
  size_t MinRounds() const {
    int per_round = 0;
    int least = 1 << 30;
    for (int n : shape_.round_queries) {
      per_round += n;
      if (n > 0) least = std::min(least, n);
    }
    size_t rounds = (MinSamplesFor(0.99) + size_t(per_round) - 1) / size_t(per_round);
    rounds = std::max(rounds, (size_t(40) + size_t(least) - 1) / size_t(least));
    if (shape_.round_docs > 0) {
      rounds = std::max(rounds, (MinSamplesFor(0.99) + shape_.round_docs - 1) /
                                    shape_.round_docs);
    }
    return rounds;
  }

  void Timed() {
    Run& run = run_;
    run.timed = true;
    run.tracing = run.cfg.trace;
    const bool traced = run.tracing;
    const uint64_t fc_hits0 = target_->FilterCacheHits();
    const uint64_t fc_misses0 = target_->FilterCacheMisses();
    esdb::BlockCache::Stats cache0;
    if (target_->block_cache() != nullptr) cache0 = target_->block_cache()->stats();

    const size_t rounds = std::max(
        MinRounds(), size_t(std::llround(run.cfg.seconds * shape_.rounds_per_second)));
    const int64_t wall0 = NowNs();
    uint64_t seen[kNumQueryClasses] = {};
    size_t round = 0;
    for (; round < rounds; ++round) {
      // Hard stop well inside the per-run limit of 180 s, for a machine
      // much slower than the one the rounds were calibrated on.
      if (Seconds(NowNs() - wall0) > 120) break;
      if (shape_.round_docs > 0) {
        WriteRound(*target_, *docs_, *corpus_, shape_.round_docs, run,
                   /*record=*/true);
        // Visibility probe: one tenant written this round.
        Probe(*target_, *corpus_, corpus_->rows().back().tenant, run);
        if (shape_.balance_every_rounds > 0 &&
            (round + 1) % shape_.balance_every_rounds == 0) {
          const int64_t b0 = NowNs();
          {
            std::unique_ptr<Tracer::Scope> span;
            if (traced) span = std::make_unique<Tracer::Scope>(&run.tracer, "balancer.cycle_us");
            eng_->db().RunBalanceCycle(docs_->NextTime());
          }
          run.write_ns += NowNs() - b0;
          run.Count("balance", Status::OK());
        }
        if (shape_.migrate_every_rounds > 0 &&
            (round + 1) % shape_.migrate_every_rounds == 0) {
          run.write_ns += Migrate(round / shape_.migrate_every_rounds);
        }
      }
      for (const QuerySpec& q : MakeRoundQueries(*queries_, shape_)) {
        RunQuery(*target_, q, *corpus_, run, /*record=*/true, seen);
      }
    }
    run.timed = false;
    run.tracing = false;
    rounds_ = round;
    if (target_->block_cache() != nullptr) {
      const esdb::BlockCache::Stats c1 = target_->block_cache()->stats();
      cache_hits_ = c1.hits - cache0.hits;
      cache_misses_ = c1.misses - cache0.misses;
      cache_evictions_ = c1.evictions - cache0.evictions;
    }
    fc_hits_ = target_->FilterCacheHits() - fc_hits0;
    fc_misses_ = target_->FilterCacheMisses() - fc_misses0;
  }

  // The n-th explicit migration: shard 7n mod 64 (a stride that visits
  // every shard) moves its primary to the next node. Returns the time
  // it took.
  int64_t Migrate(size_t n) {
    Run& run = run_;
    esdb::DistributedEsdb& db = cluster_->db();
    const uint32_t shards = esdb::DistributedEsdb::Options{}.num_shards;
    const esdb::ShardId shard = esdb::ShardId((n * 7) % shards);
    const esdb::NodeId from = db.PrimaryNodeOf(shard);
    const esdb::NodeId to = esdb::NodeId(from % shape_.cluster_nodes + 1);
    const uint64_t bytes0 = db.migrator()->stats().bytes_copied;
    const int64_t t0 = NowNs();
    Status st;
    {
      std::unique_ptr<Tracer::Scope> span;
      if (run.tracing) span = std::make_unique<Tracer::Scope>(&run.tracer, "cluster.migration_ms");
      st = db.StartMigration(shard, to);
      if (st.ok() && db.DriveMigrations() != 1) {
        st = Status::Internal("migration did not cut over");
      }
    }
    const int64_t t = NowNs() - t0;
    run.Count("migration", st);
    if (st.ok() && db.PrimaryNodeOf(shard) != to) {
      run.Mismatch("shard " + std::to_string(shard) + " did not move to node " +
                   std::to_string(to));
    }
    ++run.migrations;
    run.migration_bytes += db.migrator()->stats().bytes_copied - bytes0;
    return t;
  }

  // Row engine against batch engine on a query sample (query_mix).
  void EngineParity() {
    const std::vector<int64_t> ranked = RankedTenants();
    QuerySource sample_source(run_.cfg.seed + 11, corpus_.get(), ranked);
    esdb::Esdb& db = eng_->db();
    const bool original = db.batch_execution();
    for (int r = 0; r < 4; ++r) {
      for (const QuerySpec& q : MakeRoundQueries(sample_source, shape_)) {
        const std::string sql = q.Sql();
        db.SetBatchExecution(false);
        auto row = db.ExecuteSql(sql);
        db.SetBatchExecution(true);
        auto batch = db.ExecuteSql(sql);
        const Status st = !row.ok() ? row.status() : batch.status();
        run_.Count("property.engine_parity", st);
        if (row.ok() && batch.ok() &&
            CanonicalAnswer(*row) != CanonicalAnswer(*batch)) {
          run_.Mismatch("row and batch engines differ on `" + sql + "`");
        }
      }
    }
    db.SetBatchExecution(original);
  }

  void Finish() {
    CheckTally(*target_, *corpus_, *docs_, *queries_, run_);
    if (run_.cfg.workload == "query_mix") EngineParity();
    Outcome* out = run_.out;
    for (auto& [name, c] : run_.ops) out->ops.push_back(c);
    if (run_.cfg.trace) {
      LayerMetrics();
    } else {
      EndToEndMetrics();
    }
  }

  void EndToEndMetrics() {
    Run& r = run_;
    Outcome* out = r.out;
    const Memory m = target_->MemoryNow();
    AddMetric(out, "setup_s", r.setup_s.Median(), "s");
    AddMetric(out, "ingest_docs_per_s", double(r.write_docs) / Seconds(r.write_ns), "1/s");
    AddMetric(out, "write_ack_p50_us", r.ack_us.Median(), "us");
    AddMetric(out, "write_ack_p99_us", r.ack_us.Tail(0.99), "us");
    AddMetric(out, "visible_lag_p50_ms", r.lag_ms.Median(), "ms");
    AddMetric(out, "query_qps", double(r.query_all_us.size()) / Seconds(r.query_ns), "1/s");
    AddMetric(out, "query_hot_p50_us", r.query_us[0].Median(), "us");
    AddMetric(out, "query_tail_p50_us", r.query_us[1].Median(), "us");
    AddMetric(out, "query_topk_p50_us", r.query_us[2].Median(), "us");
    AddMetric(out, "query_agg_p50_us", r.query_us[3].Median(), "us");
    AddMetric(out, "query_p99_us", r.query_all_us.Tail(0.99), "us");
    AddMetric(out, "memory_bytes_per_doc",
              double(m.resident + m.translog + m.cache_charge) / double(m.live_docs), "B");

    Note(out, "setup_s: " + r.setup_s.Describe("s"));
    Note(out, "write_ack: " + r.ack_us.Describe("us"));
    Note(out, "visible_lag: " + r.lag_ms.Describe("ms"));
    for (int c = 0; c < kNumQueryClasses; ++c) {
      Note(out, std::string("query.") + ClassName(QueryClass(c)) + ": " +
                    r.query_us[size_t(c)].Describe("us"));
    }
    Note(out, "query.all: " + r.query_all_us.Describe("us"));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "timed rounds=%zu docs_written=%llu live_docs=%zu "
                  "write_time=%.3fs query_time=%.3fs",
                  rounds_, (unsigned long long)r.write_docs, m.live_docs,
                  Seconds(r.write_ns), Seconds(r.query_ns));
    Note(out, buf);
  }

  void LayerMetrics() {
    Run& r = run_;
    Outcome* out = r.out;
    const auto totals = r.tracer.Aggregate();
    auto mean_of = [&](const std::string& name, double scale) {
      auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return double(it->second.total_ns) / double(it->second.count) / scale;
    };
    auto total_of = [&](const std::string& name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : double(it->second.total_ns);
    };
    auto self_of = [&](const std::string& name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : double(it->second.self_ns);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const Memory m = target_->MemoryNow();
    const double docs = double(r.write_docs);
    const double live = double(m.live_docs);

    AddMetric(out, "routing.route_write_ns", mean_of("routing.route_write_ns", 1), "ns");
    AddMetric(out, "routing.read_fanout", ratio(double(r.fanout_sum), double(r.fanout_queries)), "shards/query");
    AddMetric(out, "routing.rules", double(target_->Rules()), "count");
    AddMetric(out, "balancer.cycle_us", mean_of("balancer.cycle_us", 1e3), "us");
    AddMetric(out, "storage.apply_us", mean_of("storage.apply_us", 1e3), "us");
    AddMetric(out, "storage.refresh_us_per_doc", ratio(total_of("storage.refresh") / 1e3, docs), "us");
    AddMetric(out, "storage.merge_us_per_doc", ratio(total_of("storage.merge") / 1e3, docs), "us");
    AddMetric(out, "storage.merges", double(r.merges), "count");
    AddMetric(out, "storage.segments_per_shard", ratio(double(m.segments), double(m.shards)), "count");
    AddMetric(out, "storage.resident_bytes_per_doc", ratio(double(m.resident), live), "B");
    AddMetric(out, "storage.translog_bytes_per_doc", ratio(double(m.translog), live), "B");
    AddMetric(out, "storage.cold_bytes_per_doc", ratio(double(m.cold), live), "B");
    AddMetric(out, "storage.block_cache_hit_ratio",
              ratio(double(cache_hits_), double(cache_hits_ + cache_misses_)), "ratio");
    AddMetric(out, "storage.block_cache_evictions", double(cache_evictions_), "count");
    AddMetric(out, "storage.cold_miss_query_us", r.cold_miss_us.empty() ? 0 : r.cold_miss_us.Median(), "us");
    AddMetric(out, "storage.cold_hit_query_us", r.cold_hit_us.empty() ? 0 : r.cold_hit_us.Median(), "us");

    for (int c = 0; c < kNumQueryClasses; ++c) {
      const ClassWork& w = r.work[size_t(c)];
      const double q = double(w.queries);
      const std::string cls = ClassName(QueryClass(c));
      double stage_self = 0;
      for (size_t s = 0; s < kStages.size(); ++s) {
        const double self = self_of(Names().stage[size_t(c)][s]);
        stage_self += self;
        // Aggregates are single-phase everywhere: no fetch to report.
        if (QueryClass(c) == QueryClass::kAgg && s == kFetch) continue;
        AddMetric(out, Names().stage[size_t(c)][s], ratio(self / 1e3, q), "us");
      }
      AddMetric(out, "query.postings." + cls, ratio(double(w.postings), q), "count/query");
      AddMetric(out, "query.docs_filtered." + cls, ratio(double(w.docs_filtered), q), "count/query");
      AddMetric(out, "query.rows_materialized." + cls, ratio(double(w.rows_materialized), q), "count/query");
      AddMetric(out, "query.rows_skipped_by_pushdown." + cls, ratio(double(w.rows_skipped), q), "count/query");
      AddMetric(out, "query.stats_only_answers." + cls, ratio(double(w.stats_only), q), "count/query");
      AddMetric(out, "query.batches." + cls, ratio(double(w.batches), q), "count/query");
      AddMetric(out, "query.match_per_examined." + cls, ratio(double(w.matched), double(w.examined)), "ratio");
      const double whole = total_of(Names().total[size_t(c)]);
      if (w.queries > 0) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "query.%s: traced mean %.2f us over %llu queries; stage "
                      "self times cover %.1f%%",
                      cls.c_str(), whole / 1e3 / q, (unsigned long long)w.queries,
                      100.0 * ratio(stage_self, whole));
        Note(out, buf);
      }
    }
    AddMetric(out, "query.filter_cache_hit_ratio",
              ratio(double(fc_hits_), double(fc_hits_ + fc_misses_)), "ratio");
    AddMetric(out, "replication.bytes_copied_per_doc", ratio(double(r.repl_bytes), docs), "B");
    AddMetric(out, "replication.segments_copied_per_round",
              ratio(double(r.repl_segments), double(r.repl_rounds)), "count");
    AddMetric(out, "cluster.refresh_ms", mean_of("cluster.refresh_ms", 1e6), "ms");
    AddMetric(out, "cluster.migration_ms", mean_of("cluster.migration_ms", 1e6), "ms");
    AddMetric(out, "cluster.migration_bytes_per_shard",
              ratio(double(r.migration_bytes), double(r.migrations)), "B");

    // Throughput under tracing, for the overhead comparison.
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "traced throughput: query_qps=%.1f ingest_docs_per_s=%.1f "
                  "(%zu spans)",
                  ratio(double(r.query_all_us.size()), Seconds(r.query_ns)),
                  ratio(docs, Seconds(r.write_ns)), r.tracer.num_spans());
    Note(out, buf);
    if (!r.cfg.trace_path.empty()) {
      if (!r.tracer.WriteJsonLines(r.cfg.trace_path)) {
        Note(out, "could not write spans to " + r.cfg.trace_path);
      } else {
        Note(out, "spans written to " + r.cfg.trace_path);
      }
    }
  }

  Run run_;
  const Shape shape_;
  std::unique_ptr<Target> target_;
  EsdbTarget* eng_ = nullptr;
  ClusterTarget* cluster_ = nullptr;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<DocSource> docs_;
  std::unique_ptr<QuerySource> queries_;
  size_t rounds_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t fc_hits_ = 0;
  uint64_t fc_misses_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest_skew", "query_mix",
                                                 "cluster_rw", "cold_tail"};
  return names;
}

bool RunWorkload(const RunConfig& config, Outcome* outcome) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return false;
  }
  Workload(config, outcome).Execute();
  return true;
}

}  // namespace perfbench
