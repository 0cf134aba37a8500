#include "storage/table_store.h"

#include <cstring>
#include <set>
#include <tuple>

namespace insight {
namespace storage {

int QueryResult::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status TableStore::CreateTable(const std::string& name,
                               std::vector<Column> columns) {
  MutexLock lock(mutex_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_[name].columns = std::move(columns);
  return Status::OK();
}

Status TableStore::DropTable(const std::string& name) {
  MutexLock lock(mutex_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table '" + name + "'");
  }
  return Status::OK();
}

bool TableStore::HasTable(const std::string& name) const {
  MutexLock lock(mutex_);
  return tables_.count(name) > 0;
}

Result<const TableStore::Table*> TableStore::Find(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

Status TableStore::Insert(const std::string& table, RowValues row) {
  MutexLock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table '" + table + "'");
  if (row.size() != it->second.columns.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; table '" + table +
        "' has " + std::to_string(it->second.columns.size()) + " columns");
  }
  it->second.rows.push_back(std::move(row));
  return Status::OK();
}

Status TableStore::Truncate(const std::string& table) {
  MutexLock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table '" + table + "'");
  it->second.rows.clear();
  return Status::OK();
}

Result<QueryResult> TableStore::Select(
    const std::string& table, const std::vector<Projection>& projections,
    const std::function<bool(const QueryResult&, const RowValues&)>& predicate,
    bool distinct) const {
  MutexLock lock(mutex_);
  INSIGHT_ASSIGN_OR_RETURN(const Table* t, Find(table));
  ++query_count_;

  // Schema view handed to predicates/computed projections.
  QueryResult schema;
  for (const Column& c : t->columns) schema.columns.push_back(c.name);

  QueryResult out;
  std::vector<int> plain_indexes(projections.size(), -1);
  for (size_t i = 0; i < projections.size(); ++i) {
    out.columns.push_back(projections[i].name);
    if (!projections[i].compute) {
      int idx = schema.ColumnIndex(projections[i].name);
      if (idx < 0) {
        return Status::NotFound("table '" + table + "' has no column '" +
                                projections[i].name + "'");
      }
      plain_indexes[i] = idx;
    }
  }

  std::set<std::string> seen;
  for (const RowValues& row : t->rows) {
    if (predicate && !predicate(schema, row)) continue;
    RowValues projected;
    projected.reserve(projections.size());
    for (size_t i = 0; i < projections.size(); ++i) {
      if (projections[i].compute) {
        projected.push_back(projections[i].compute(schema, row));
      } else {
        projected.push_back(row[static_cast<size_t>(plain_indexes[i])]);
      }
    }
    if (distinct) {
      std::string key;
      for (const Value& v : projected) {
        key += v.ToString();
        key += '\x1f';
      }
      if (!seen.insert(key).second) continue;
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

Result<QueryResult> TableStore::SelectAll(const std::string& table) const {
  std::vector<Projection> projections;
  {
    MutexLock lock(mutex_);
    INSIGHT_ASSIGN_OR_RETURN(const Table* t, Find(table));
    for (const Column& c : t->columns) projections.push_back({c.name, nullptr});
  }
  return Select(table, projections);
}

Status TableStore::Scan(
    const std::string& table, const std::vector<std::string>& columns,
    const std::function<void(const std::vector<const Value*>&)>& visit) const {
  MutexLock lock(mutex_);
  INSIGHT_ASSIGN_OR_RETURN(const Table* t, Find(table));
  ++query_count_;
  std::vector<size_t> positions;
  positions.reserve(columns.size());
  for (const std::string& name : columns) {
    size_t i = 0;
    while (i < t->columns.size() && t->columns[i].name != name) ++i;
    if (i == t->columns.size()) {
      return Status::NotFound("table '" + table + "' has no column '" + name + "'");
    }
    positions.push_back(i);
  }
  std::vector<const Value*> values(columns.size());
  for (const RowValues& row : t->rows) {
    for (size_t c = 0; c < positions.size(); ++c) values[c] = &row[positions[c]];
    visit(values);
  }
  return Status::OK();
}

Result<size_t> TableStore::RowCount(const std::string& table) const {
  MutexLock lock(mutex_);
  INSIGHT_ASSIGN_OR_RETURN(const Table* t, Find(table));
  return t->rows.size();
}

std::vector<std::string> TableStore::TableNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

size_t TableStore::query_count() const {
  MutexLock lock(mutex_);
  return query_count_;
}

int64_t TableStore::charged_cost_micros() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(query_count_) * options_.simulated_query_cost_micros;
}

std::vector<Column> StatisticsColumns() {
  return {{"areaId", ValueType::kInt},      {"currentHour", ValueType::kInt},
          {"dateType", ValueType::kString}, {"attr_mean", ValueType::kDouble},
          {"attr_stdv", ValueType::kDouble}, {"sample_count", ValueType::kInt}};
}

std::string StatisticsTableName(const std::string& attribute) {
  return "statistics_" + attribute;
}

Result<std::vector<ThresholdRow>> QueryThresholds(const TableStore& store,
                                                  const std::string& attribute,
                                                  double s) {
  std::vector<ThresholdRow> rows;
  INSIGHT_RETURN_NOT_OK(store.Scan(
      StatisticsTableName(attribute),
      {"attr_mean", "attr_stdv", "currentHour", "dateType", "areaId"},
      [&](const std::vector<const Value*>& v) {
        rows.push_back({v[4]->AsInt(), v[2]->AsInt(), v[3]->AsString(),
                        v[0]->AsDouble() + s * v[1]->AsDouble()});
      }));
  // DISTINCT on exact values, outside the store's lock.
  std::set<std::tuple<uint64_t, int64_t, int64_t, std::string>> seen;
  std::vector<ThresholdRow> out;
  out.reserve(rows.size());
  for (ThresholdRow& row : rows) {
    uint64_t bits = 0;
    std::memcpy(&bits, &row.threshold, sizeof(bits));
    if (!seen.emplace(bits, row.hour, row.location, row.date_type).second) continue;
    out.push_back(std::move(row));
  }
  return out;
}

Result<double> QueryThresholdFor(const TableStore& store,
                                 const std::string& attribute, double s,
                                 int64_t location, int64_t hour,
                                 const std::string& date_type) {
  std::vector<TableStore::Projection> projections;
  projections.push_back(
      {"thresholdLocation",
       [s](const QueryResult& schema, const RowValues& row) -> Value {
         double mean = row[static_cast<size_t>(schema.ColumnIndex("attr_mean"))]
                           .AsDouble();
         double stdv = row[static_cast<size_t>(schema.ColumnIndex("attr_stdv"))]
                           .AsDouble();
         return mean + s * stdv;
       }});
  auto predicate = [&](const QueryResult& schema, const RowValues& row) {
    return row[static_cast<size_t>(schema.ColumnIndex("areaId"))].AsInt() ==
               location &&
           row[static_cast<size_t>(schema.ColumnIndex("currentHour"))].AsInt() ==
               hour &&
           row[static_cast<size_t>(schema.ColumnIndex("dateType"))].AsString() ==
               date_type;
  };
  INSIGHT_ASSIGN_OR_RETURN(
      QueryResult result,
      store.Select(StatisticsTableName(attribute), projections, predicate));
  if (result.rows.empty()) {
    return Status::NotFound("no threshold for location " +
                            std::to_string(location));
  }
  return result.rows[0][0].AsDouble();
}

}  // namespace storage
}  // namespace insight
