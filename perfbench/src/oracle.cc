#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "query/datetime.h"

namespace perfbench {

namespace {

int64_t IntField(const esdb::Document& doc, const char* field) {
  const esdb::Value& v = doc.Get(field);
  return v.is_int() ? v.as_int() : INT64_MIN;
}

std::string Num(int64_t v) { return std::to_string(v); }

bool SumsClose(double a, double b) {
  return std::fabs(a - b) <=
         kSumRelTolerance * std::max(std::fabs(a), std::fabs(b)) + 1e-9;
}

std::string RowsDiffer(size_t at, int64_t want, int64_t got) {
  return "row " + std::to_string(at) + ": expected record " + Num(want) +
         ", got " + Num(got);
}

}  // namespace

DocRow RowFromDocument(const esdb::Document& doc) {
  DocRow r;
  r.tenant = IntField(doc, esdb::kFieldTenantId);
  r.record = IntField(doc, esdb::kFieldRecordId);
  r.ctime = IntField(doc, esdb::kFieldCreatedTime);
  r.status = IntField(doc, "status");
  r.flag = IntField(doc, "flag");
  r.group = IntField(doc, "group");
  r.quantity = IntField(doc, "quantity");
  r.region = IntField(doc, "region");
  r.channel = IntField(doc, "channel");
  const esdb::Value& amount = doc.Get("amount");
  r.amount = amount.is_numeric() ? amount.NumericValue() : std::nan("");
  return r;
}

void Corpus::Add(const DocRow& row) {
  by_tenant_[row.tenant].push_back(uint32_t(rows_.size()));
  rows_.push_back(row);
}

const std::vector<uint32_t>& Corpus::TenantRows(int64_t tenant) const {
  static const std::vector<uint32_t> kEmpty;
  auto it = by_tenant_.find(tenant);
  return it == by_tenant_.end() ? kEmpty : it->second;
}

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kHot:
      return "hot";
    case QueryClass::kTail:
      return "tail";
    case QueryClass::kTopK:
      return "topk";
    case QueryClass::kAgg:
      return "agg";
    case QueryClass::kCount:
      return "count";
  }
  return "?";
}

std::string QuerySpec::Sql() const {
  std::string where;
  auto add = [&](const std::string& clause) {
    where += where.empty() ? " WHERE " : " AND ";
    where += clause;
  };
  if (tenant != 0) add("tenant_id = " + Num(tenant));
  if (cls == QueryClass::kHot || cls == QueryClass::kTail) {
    add("created_time BETWEEN '" + esdb::FormatDateTime(t_lo) + "' AND '" +
        esdb::FormatDateTime(t_hi) + "'");
  }
  for (const Filter& f : filters) {
    switch (f.kind) {
      case Filter::kStatus:
        add("status = " + Num(f.a));
        break;
      case Filter::kFlag:
        add("flag = " + Num(f.a));
        break;
      case Filter::kGroup:
        add("group = " + Num(f.a));
        break;
      case Filter::kAmountGe:
        add("amount >= " + Num(f.a));
        break;
      case Filter::kQuantityLe:
        add("quantity <= " + Num(f.a));
        break;
      case Filter::kRegionIn:
        add("region IN (" + Num(f.a) + ", " + Num(f.b) + ")");
        break;
      case Filter::kChannel:
        add("channel = " + Num(f.a));
        break;
      case Filter::kStatusOneOrGroup:
        add("(status = 1 OR group = " + Num(f.a) + ")");
        break;
    }
  }
  switch (cls) {
    case QueryClass::kHot:
    case QueryClass::kTail:
    case QueryClass::kTopK:
      return "SELECT * FROM transaction_logs" + where +
             " ORDER BY created_time DESC LIMIT " + Num(limit);
    case QueryClass::kAgg:
      return "SELECT SUM(amount) FROM transaction_logs" + where +
             " GROUP BY region";
    case QueryClass::kCount:
      return "SELECT COUNT(*) FROM transaction_logs" + where;
  }
  return "";
}

bool QuerySpec::Matches(const DocRow& row) const {
  if (tenant != 0 && row.tenant != tenant) return false;
  if ((cls == QueryClass::kHot || cls == QueryClass::kTail) &&
      (row.ctime < t_lo || row.ctime > t_hi)) {
    return false;
  }
  for (const Filter& f : filters) {
    bool ok = false;
    switch (f.kind) {
      case Filter::kStatus:
        ok = row.status == f.a;
        break;
      case Filter::kFlag:
        ok = row.flag == f.a;
        break;
      case Filter::kGroup:
        ok = row.group == f.a;
        break;
      case Filter::kAmountGe:
        ok = row.amount >= double(f.a);
        break;
      case Filter::kQuantityLe:
        ok = row.quantity <= f.a;
        break;
      case Filter::kRegionIn:
        ok = row.region == f.a || row.region == f.b;
        break;
      case Filter::kChannel:
        ok = row.channel == f.a;
        break;
      case Filter::kStatusOneOrGroup:
        ok = row.status == 1 || row.group == f.a;
        break;
    }
    if (!ok) return false;
  }
  return true;
}

std::vector<DocRow> ExpectedRows(const QuerySpec& spec, const Corpus& corpus,
                                 uint64_t* total_matched) {
  std::vector<DocRow> matched;
  auto consider = [&](const DocRow& row) {
    if (spec.Matches(row)) matched.push_back(row);
  };
  if (spec.TenantScoped()) {
    for (uint32_t i : corpus.TenantRows(spec.tenant)) consider(corpus.rows()[i]);
  } else {
    for (const DocRow& row : corpus.rows()) consider(row);
  }
  *total_matched = matched.size();
  // created_time is unique per generated document, so the order is
  // total and the top-k answer is unique.
  std::sort(matched.begin(), matched.end(),
            [](const DocRow& a, const DocRow& b) { return a.ctime > b.ctime; });
  if (spec.limit >= 0 && int64_t(matched.size()) > spec.limit) {
    matched.resize(size_t(spec.limit));
  }
  return matched;
}

std::map<int64_t, ExpectedGroup> ExpectedGroups(const QuerySpec& spec,
                                                const Corpus& corpus) {
  std::map<int64_t, ExpectedGroup> groups;
  for (const DocRow& row : corpus.rows()) {
    if (!spec.Matches(row)) continue;
    ExpectedGroup& g = groups[row.region];
    ++g.count;
    g.sum += row.amount;
  }
  return groups;
}

uint64_t ExpectedCount(const QuerySpec& spec, const Corpus& corpus) {
  if (spec.TenantScoped() && spec.filters.empty()) {
    return corpus.TenantCount(spec.tenant);
  }
  uint64_t n = 0;
  for (const DocRow& row : corpus.rows()) n += spec.Matches(row) ? 1 : 0;
  return n;
}

std::string CheckAnswer(const QuerySpec& spec, const Corpus& corpus,
                        const esdb::QueryResult& result) {
  switch (spec.cls) {
    case QueryClass::kHot:
    case QueryClass::kTail:
    case QueryClass::kTopK: {
      uint64_t total = 0;
      const std::vector<DocRow> want = ExpectedRows(spec, corpus, &total);
      for (size_t i = 0; i < result.rows.size(); ++i) {
        if (!spec.Matches(RowFromDocument(result.rows[i]))) {
          return "row " + std::to_string(i) + " (record " +
                 Num(result.rows[i].record_id()) + ") fails the filter";
        }
      }
      for (size_t i = 1; i < result.rows.size(); ++i) {
        if (result.rows[i - 1].created_time() < result.rows[i].created_time()) {
          return "rows " + std::to_string(i - 1) + "," + std::to_string(i) +
                 " are out of created_time DESC order";
        }
      }
      if (result.rows.size() != want.size()) {
        return "expected " + std::to_string(want.size()) + " rows, got " +
               std::to_string(result.rows.size());
      }
      for (size_t i = 0; i < want.size(); ++i) {
        if (result.rows[i].record_id() != want[i].record) {
          return RowsDiffer(i, want[i].record, result.rows[i].record_id());
        }
      }
      // total_matched must be a sound count: at least the rows
      // returned, at most the true number of matches. (Exact equality
      // is not checked: the top-k pushdown can undercount while
      // claiming exactness; see the benchmark README.)
      if (result.total_matched < result.rows.size() ||
          result.total_matched > total) {
        return "total_matched " + std::to_string(result.total_matched) +
               " outside [" + std::to_string(result.rows.size()) + ", " +
               std::to_string(total) + "]";
      }
      return "";
    }
    case QueryClass::kAgg: {
      const std::map<int64_t, ExpectedGroup> want = ExpectedGroups(spec, corpus);
      if (result.groups.size() != want.size()) {
        return "expected " + std::to_string(want.size()) + " groups, got " +
               std::to_string(result.groups.size());
      }
      auto it = want.begin();
      for (const auto& [key, got] : result.groups) {
        if (!key.is_int() || key.as_int() != it->first) {
          return "group key " + key.ToString() + ", expected " +
                 Num(it->first);
        }
        if (got.count != it->second.count) {
          return "group " + Num(it->first) + ": count " +
                 std::to_string(got.count) + ", expected " +
                 std::to_string(it->second.count);
        }
        if (!SumsClose(got.sum, it->second.sum)) {
          char buf[128];
          std::snprintf(buf, sizeof(buf), ": sum %.17g, expected %.17g",
                        got.sum, it->second.sum);
          return "group " + Num(it->first) + buf;
        }
        ++it;
      }
      return "";
    }
    case QueryClass::kCount: {
      const uint64_t want = ExpectedCount(spec, corpus);
      if (result.agg_count != want) {
        return "count " + std::to_string(result.agg_count) + ", expected " +
               std::to_string(want);
      }
      return "";
    }
  }
  return "unknown query class";
}

std::string CanonicalAnswer(const esdb::QueryResult& result) {
  std::string out;
  auto put_double = [&](double d) {
    char buf[sizeof(double)];
    std::memcpy(buf, &d, sizeof(d));
    out.append(buf, sizeof(buf));
  };
  auto put_opt = [&](const std::optional<esdb::Value>& v) {
    out += v ? "v" + v->ToString() : std::string("-");
    out.push_back('|');
  };
  out += "rows:" + std::to_string(result.rows.size()) + "|";
  for (const esdb::Document& row : result.rows) {
    const std::string bytes = row.Serialize();
    out += std::to_string(bytes.size()) + ":" + bytes;
  }
  out += "|matched:" + std::to_string(result.total_matched) +
         (result.total_matched_exact ? "=" : "+") + "|agg:" +
         std::to_string(result.agg_count) + ",";
  put_double(result.agg_sum);
  put_opt(result.agg_min);
  put_opt(result.agg_max);
  out += "groups:" + std::to_string(result.groups.size()) + "|";
  for (const auto& [key, g] : result.groups) {
    out += key.ToString() + ":" + std::to_string(g.count) + ",";
    put_double(g.sum);
    put_opt(g.min);
    put_opt(g.max);
  }
  return out;
}

std::string CompareAnswers(const esdb::QueryResult& a,
                           const esdb::QueryResult& b) {
  if (a.rows.size() != b.rows.size()) {
    return "row counts differ: " + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size());
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (!(a.rows[i] == b.rows[i])) {
      return RowsDiffer(i, a.rows[i].record_id(), b.rows[i].record_id());
    }
  }
  if (a.agg_count != b.agg_count || !SumsClose(a.agg_sum, b.agg_sum)) {
    return "aggregates differ";
  }
  if (a.groups.size() != b.groups.size()) return "group counts differ";
  auto ib = b.groups.begin();
  for (const auto& [key, ga] : a.groups) {
    if (!(key == ib->first) || ga.count != ib->second.count ||
        !SumsClose(ga.sum, ib->second.sum)) {
      return "group " + key.ToString() + " differs";
    }
    ++ib;
  }
  return "";
}

}  // namespace perfbench
