#include "cluster/esdb.h"

#include "cluster/query_coordinator.h"
#include "query/cost.h"
#include "query/dsl.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "storage/block_cache.h"

namespace esdb {

Esdb::Esdb(Options options)
    : options_(std::move(options)),
      batch_execution_(options_.batch_execution),
      balancer_(options_.balancer),
      filter_cache_(options_.filter_cache) {
  switch (options_.routing) {
    case RoutingKind::kHash:
      routing_ = std::make_unique<HashRouting>(options_.num_shards);
      break;
    case RoutingKind::kDoubleHash:
      routing_ = std::make_unique<DoubleHashRouting>(
          options_.num_shards, options_.double_hash_offset);
      break;
    case RoutingKind::kDynamic: {
      auto dynamic =
          std::make_unique<DynamicSecondaryHashing>(options_.num_shards);
      dynamic_ = dynamic.get();
      routing_ = std::move(dynamic);
      break;
    }
  }
  if (options_.tiering.enabled) {
    BlockCache::Options cache_options;
    cache_options.capacity_bytes = options_.tiering.block_cache_bytes;
    block_cache_ = std::make_shared<BlockCache>(cache_options);
    tier_admission_ = std::make_unique<TierAdmission>(
        options_.num_shards, options_.tiering.admission);
    // Every store (primary AND replica) shares the one cache; the
    // stores constructed below copy these options.
    options_.store.tier.enabled = true;
    options_.store.tier.spill_dir = options_.tiering.spill_dir;
    options_.store.tier.cache = block_cache_;
  }
  if (options_.with_replicas) {
    replicated_.reserve(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      replicated_.push_back(std::make_unique<ReplicatedShard>(
          &options_.spec, options_.store, options_.replication));
    }
  } else {
    shards_.reserve(options_.num_shards);
    for (uint32_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(
          std::make_unique<ShardStore>(&options_.spec, options_.store));
    }
  }
  if (options_.query_threads > 0) {
    query_pool_ = std::make_shared<ThreadPool>(options_.query_threads);
  }
  if (options_.maintenance_threads > 0) {
    maintenance_pool_ =
        std::make_shared<ThreadPool>(options_.maintenance_threads);
  }
}

void Esdb::SetQueryThreads(uint32_t n) {
  options_.query_threads = n;
  // In-flight queries hold their own shared_ptr to the old pool; it
  // drains and dies when the last of them finishes. Build the new
  // pool outside the lock: pool construction spawns threads.
  std::shared_ptr<ThreadPool> next =
      n > 0 ? std::make_shared<ThreadPool>(n) : nullptr;
  MutexLock lock(&pool_mu_);
  query_pool_ = std::move(next);
}

void Esdb::SetMaintenanceThreads(uint32_t n) {
  options_.maintenance_threads = n;
  std::shared_ptr<ThreadPool> next =
      n > 0 ? std::make_shared<ThreadPool>(n) : nullptr;
  MutexLock lock(&pool_mu_);
  maintenance_pool_ = std::move(next);
}

uint32_t Esdb::last_subqueries() const {
  MutexLock lock(&stats_mu_);
  return last_subqueries_;
}

ExecStats Esdb::last_stats() const {
  MutexLock lock(&stats_mu_);
  return last_stats_;
}

ShardStore* Esdb::Primary(ShardId id) {
  return options_.with_replicas ? replicated_[id]->primary()
                                : shards_[id].get();
}

const ShardStore* Esdb::Primary(ShardId id) const {
  return options_.with_replicas ? replicated_[id]->primary()
                                : shards_[id].get();
}

Status Esdb::Apply(const WriteOp& op) {
  if (!op.doc.Has(kFieldTenantId) || !op.doc.Has(kFieldRecordId) ||
      !op.doc.Has(kFieldCreatedTime)) {
    return Status::InvalidArgument(
        "write requires tenant_id, record_id and created_time");
  }
  const RouteKey key{op.tenant_id(), op.record_id(), op.created_time()};
  const ShardId shard = routing_->RouteWrite(key);
  monitor_.RecordWrite(key.tenant);
  if (tier_admission_ != nullptr) tier_admission_->RecordWrite(shard);
  if (options_.with_replicas) {
    auto seq = replicated_[shard]->Apply(op);
    return seq.ok() ? Status::OK() : seq.status();
  }
  auto seq = shards_[shard]->Apply(op);
  return seq.ok() ? Status::OK() : seq.status();
}

Status Esdb::Delete(TenantId tenant, RecordId record, Micros created_time) {
  WriteOp op;
  op.type = OpType::kDelete;
  op.doc.Set(kFieldTenantId, Value(tenant));
  op.doc.Set(kFieldRecordId, Value(record));
  op.doc.Set(kFieldCreatedTime, Value(int64_t(created_time)));
  return Apply(op);
}

void Esdb::RefreshAll() {
  // One refresh+merge task per shard. Each shard's new segment epoch
  // is published atomically, so queries may run concurrently — they
  // see each shard's pre- or post-refresh epoch, never a torn list.
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(&pool_mu_);
    pool = maintenance_pool_;
  }
  RunPerOrdinal(pool.get(), options_.num_shards, [&](size_t i) {
    if (options_.with_replicas) {
      // ReplicatedShard::Refresh also runs the replication round.
      (void)replicated_[i]->Refresh();
    } else {
      shards_[i]->Refresh();
      shards_[i]->MaybeMerge();
    }
  });
}

Result<QueryResult> Esdb::ExecuteSql(std::string_view sql) {
  if (IsDmlStatement(sql)) {
    return Status::InvalidArgument(
        "DML statement; use ExecuteDmlSql for UPDATE/DELETE");
  }
  return ExecuteSqlWithPlanner(sql, options_.planner);
}

Result<std::string> Esdb::ExplainSql(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  std::string out = "parsed:     " + query.ToString() + "\n";

  std::unique_ptr<Expr> normalized;
  if (query.where != nullptr) {
    normalized = NormalizeForPlanning(query.where->Clone());
    out += "normalized: " + normalized->ToString() + "\n";
  }
  {
    auto dsl = SqlToDsl(sql);
    if (!dsl.ok()) return dsl.status();
    out += "es-dsl:     " + *dsl + "\n";
  }

  const std::vector<ShardId> target_shards = RouteQuery(query, *routing_);
  TenantId tenant = 0;
  if (query.where != nullptr && ExtractTenant(*query.where, &tenant)) {
    out += "fan-out:    tenant " + std::to_string(tenant) + " -> " +
           std::to_string(target_shards.size()) +
           " shard(s), starting at shard " +
           std::to_string(target_shards.front()) + "\n";
  } else {
    out += "fan-out:    broadcast to all " +
           std::to_string(options_.num_shards) + " shards\n";
  }

  std::unique_ptr<PlanNode> plan =
      PlanWhere(normalized.get(), options_.spec, options_.planner);
  CostDecision decision;
  double estimated_rows = 0;
  bool costed = false;
  if (options_.planner.use_cost_model) {
    // Same stats the query itself would plan against: the pinned
    // snapshots of every target shard.
    std::vector<SegmentSnapshot> snapshots;
    snapshots.reserve(target_shards.size());
    for (ShardId shard : target_shards) {
      snapshots.push_back(Primary(shard)->Snapshot());
    }
    const StatsView stats = StatsView::Collect(snapshots);
    decision = ApplyCostTransforms(query, options_.spec, stats, &plan);
    estimated_rows = EstimatePlanFraction(stats, options_.spec, *plan) *
                     double(stats.total_docs());
    costed = true;
  }
  out += "plan:\n" + plan->ToString(1) + "\n";
  if (costed) {
    out += "transform:  " + decision.transform + "\n";
    // Estimated vs actual cardinality — EXPLAIN here runs the query
    // (reads only) so misestimates are visible at a glance. A '+'
    // marks an early-terminated count (actual is a lower bound).
    ESDB_ASSIGN_OR_RETURN(QueryResult result,
                          ExecuteWithPlanner(query, options_.planner));
    out += "cardinality: est=" +
           std::to_string(int64_t(estimated_rows + 0.5)) +
           " actual=" + std::to_string(result.total_matched) +
           (result.total_matched_exact ? "" : "+") + "\n";
  }
  return out;
}

Result<uint64_t> Esdb::ExecuteDmlSql(std::string_view sql) {
  ESDB_ASSIGN_OR_RETURN(DmlStatement statement, ParseDml(sql));
  return ExecuteDml(statement);
}

Result<uint64_t> Esdb::ExecuteDml(const DmlStatement& statement) {
  if (statement.kind == DmlStatement::Kind::kInsert) {
    for (const Document& row : statement.rows) {
      WriteOp op;
      op.type = OpType::kInsert;
      op.doc = row;
      ESDB_RETURN_IF_ERROR(Apply(op));
    }
    return uint64_t(statement.rows.size());
  }
  // UPDATE/DELETE: select the affected rows (full documents, no
  // limit).
  Query select;
  select.table = statement.table;
  if (statement.where != nullptr) select.where = statement.where->Clone();
  ESDB_ASSIGN_OR_RETURN(QueryResult affected, Execute(select));

  for (Document& row : affected.rows) {
    WriteOp op;
    if (statement.kind == DmlStatement::Kind::kDelete) {
      op.type = OpType::kDelete;
      op.doc.Set(kFieldTenantId, row.Get(kFieldTenantId));
      op.doc.Set(kFieldRecordId, row.Get(kFieldRecordId));
      op.doc.Set(kFieldCreatedTime, row.Get(kFieldCreatedTime));
    } else {
      op.type = OpType::kUpdate;
      const Value old_tenant = row.Get(kFieldTenantId);
      const Value old_record = row.Get(kFieldRecordId);
      const Value old_created = row.Get(kFieldCreatedTime);
      op.doc = std::move(row);
      for (const auto& [column, value] : statement.set) {
        op.doc.Set(column, value);
      }
      // SET may have touched a routing column (tenant_id, record_id,
      // created_time), re-routing the upsert to a different shard —
      // or, for record_id, to a different upsert key. The old version
      // would then stay live where it is; delete it via its ORIGINAL
      // routing key before applying the re-routed write.
      if (!(old_tenant == op.doc.Get(kFieldTenantId)) ||
          !(old_record == op.doc.Get(kFieldRecordId)) ||
          !(old_created == op.doc.Get(kFieldCreatedTime))) {
        WriteOp erase_old;
        erase_old.type = OpType::kDelete;
        erase_old.doc.Set(kFieldTenantId, old_tenant);
        erase_old.doc.Set(kFieldRecordId, old_record);
        erase_old.doc.Set(kFieldCreatedTime, old_created);
        ESDB_RETURN_IF_ERROR(Apply(erase_old));
      }
    }
    ESDB_RETURN_IF_ERROR(Apply(op));
  }
  return uint64_t(affected.rows.size());
}

Result<QueryResult> Esdb::Execute(const Query& query) {
  return ExecuteWithPlanner(query, options_.planner);
}

Result<QueryResult> Esdb::ExecuteSqlWithPlanner(
    std::string_view sql, const PlannerOptions& planner) {
  ESDB_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return ExecuteWithPlanner(query, planner);
}

Result<QueryResult> Esdb::ExecuteWithPlanner(const Query& query,
                                             const PlannerOptions& planner) {
  const std::vector<ShardId> target_shards = RouteQuery(query, *routing_);
  if (tier_admission_ != nullptr) {
    for (ShardId s : target_shards) tier_admission_->RecordQuery(s);
  }

  // Adaptive parallelism: a tenant-scoped query resolving to one or
  // two shards runs inline in the calling thread even when a pool is
  // configured — the handoff/join overhead exceeds the win at that
  // fan-out, and the hot skewed tenant issues exactly these queries.
  // Broad fan-outs pin the subquery pool for the whole query:
  // SetQueryThreads swaps the pool through a mutex-guarded
  // shared_ptr, so a concurrent resize can never destroy the pool
  // while our tasks are on it.
  constexpr size_t kInlineFanOut = 2;
  std::shared_ptr<ThreadPool> pool;
  if (target_shards.size() > kInlineFanOut) {
    MutexLock lock(&pool_mu_);
    pool = query_pool_;
  }

  CoordinatorInputs inputs;
  inputs.spec = &options_.spec;
  inputs.planner = &planner;
  inputs.snapshot = [this](ShardId shard) {
    return Primary(shard)->Snapshot();
  };
  inputs.two_phase = options_.two_phase_queries;
  inputs.cache = options_.use_filter_cache ? &filter_cache_ : nullptr;
  inputs.pool = pool.get();
  // Engine choice is sampled once per query so a concurrent
  // SetBatchExecution cannot split one query across engines.
  inputs.exec.batch_execution = batch_execution();

  // Executor counters accumulate locally and publish under the stats
  // mutex on every exit, keeping concurrent client queries race-free.
  ExecStats exec_stats;
  Result<QueryResult> result =
      CoordinateQuery(query, target_shards, inputs, &exec_stats);
  MutexLock lock(&stats_mu_);
  last_subqueries_ = uint32_t(target_shards.size());
  last_stats_ = exec_stats;
  return result;
}

size_t Esdb::RunBalanceCycle(Micros effective_time) {
  if (dynamic_ == nullptr) {
    monitor_.Drain();
    return 0;
  }
  const std::vector<RuleProposal> proposals =
      balancer_.OnWindow(monitor_.Drain(), dynamic_->rules());
  for (const RuleProposal& p : proposals) {
    dynamic_->mutable_rules()->Update(effective_time, p.offset, p.tenant);
  }
  return proposals.size();
}

size_t Esdb::RunTieringCycle() {
  if (tier_admission_ == nullptr) return 0;
  const std::vector<bool> cold = tier_admission_->ClassifyAndDecay();
  size_t num_cold = 0;
  // Transitions ride the merge pass, one task per shard (same fan-out
  // discipline as RefreshAll); the classification flip itself is just
  // an atomic store, visible to the shard's next merge either way.
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(&pool_mu_);
    pool = maintenance_pool_;
  }
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    if (cold[i]) ++num_cold;
    Primary(ShardId(i))->SetTierCold(cold[i]);
  }
  RunPerOrdinal(pool.get(), options_.num_shards,
                [&](size_t i) { Primary(ShardId(i))->MaybeMerge(); });
  return num_cold;
}

ShardSizeBreakdown Esdb::SizeBreakdownTotal() const {
  ShardSizeBreakdown total;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const ShardSizeBreakdown b = Primary(ShardId(i))->SizeBreakdown();
    total.resident_bytes += b.resident_bytes;
    total.translog_bytes += b.translog_bytes;
    total.cold_bytes += b.cold_bytes;
  }
  return total;
}

size_t Esdb::InitializeRulesFromStorage(Micros effective_time) {
  if (dynamic_ == nullptr) return 0;
  // Storage proportion per tenant, summed across shards: refreshed
  // segments PLUS the write buffer, so tenants that are hot right now
  // but not yet refreshed are weighted too.
  std::map<TenantId, uint64_t> storage;
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const SegmentSnapshot snapshot = Primary(ShardId(i))->Snapshot();
    for (const SegmentView& raw : *snapshot) {
      auto pinned = raw.Pinned();
      if (!pinned.ok()) continue;  // unreadable cold segment: skip
      const SegmentView& view = *pinned;
      const DocValues::Column* col = view->doc_values().Find(kFieldTenantId);
      if (col == nullptr) continue;
      const PostingList live = view.LiveDocs();
      for (DocId id : live.ids()) {
        const Value& v = col->Get(id);
        if (v.is_int()) storage[v.as_int()] += 1;
      }
    }
    for (const auto& [tenant, count] :
         Primary(ShardId(i))->BufferedTenantCounts()) {
      storage[tenant] += count;
    }
  }
  const std::vector<RuleProposal> proposals =
      balancer_.InitializeFromStorage(storage);
  for (const RuleProposal& p : proposals) {
    dynamic_->mutable_rules()->Update(effective_time, p.offset, p.tenant);
  }
  return proposals.size();
}

Status Esdb::InstallShard(ShardId id, std::unique_ptr<ShardStore> store) {
  if (options_.with_replicas) {
    return Status::FailedPrecondition(
        "InstallShard requires a replica-less cluster");
  }
  if (id >= options_.num_shards) {
    return Status::InvalidArgument("shard id out of range");
  }
  shards_[id] = std::move(store);
  filter_cache_.Clear();  // cached candidates may refer to the old store
  return Status::OK();
}

std::vector<size_t> Esdb::ShardDocCounts() const {
  std::vector<size_t> out(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    out[i] = Primary(ShardId(i))->num_live_docs() +
             Primary(ShardId(i))->buffered_docs();
  }
  return out;
}

size_t Esdb::TotalDocs() const {
  size_t n = 0;
  for (size_t c : ShardDocCounts()) n += c;
  return n;
}

ReplicationStats Esdb::TotalReplicationStats() const {
  ReplicationStats total;
  for (const auto& shard : replicated_) total.Add(shard->stats());
  return total;
}

}  // namespace esdb
