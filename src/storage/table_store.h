#ifndef INSIGHT_STORAGE_TABLE_STORE_H_
#define INSIGHT_STORAGE_TABLE_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cep/event.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace insight {
namespace storage {

using cep::Value;
using cep::ValueType;

/// A row is positionally aligned with its table's columns.
using RowValues = std::vector<Value>;

struct Column {
  std::string name;
  ValueType type;
};

/// Result of a query: projected column names + rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<RowValues> rows;

  int ColumnIndex(const std::string& name) const;
};

/// In-process storage medium standing in for the paper's MySQL server
/// (Section 3.2: "In our current implementation the storage medium is a MySQL
/// server but it can easily be substituted"). Thread-safe: the batch layer
/// writes statistics while Esper engines read thresholds.
///
/// `simulated_query_cost_micros` models the client-server round trip a real
/// MySQL deployment pays per query; strategies charge it into their reported
/// latencies so Figure 10's comparison is meaningful without sleeping.
class TableStore {
 public:
  struct Options {
    /// Modeled per-query round-trip + parse cost (LAN MySQL ballpark).
    int64_t simulated_query_cost_micros = 2500;
  };

  TableStore() = default;
  explicit TableStore(const Options& options) : options_(options) {}

  Status CreateTable(const std::string& name, std::vector<Column> columns);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;

  Status Insert(const std::string& table, RowValues row);
  /// Deletes all rows, keeping the schema.
  Status Truncate(const std::string& table);

  /// Projection item: either a plain column or a computed expression over the
  /// row (named). Mirrors `attr_mean + s*attr_stdv AS thresholdLocation`.
  struct Projection {
    std::string name;
    /// When set, computes the output value from the whole row; otherwise the
    /// column with `name` is projected as-is.
    std::function<Value(const QueryResult& schema, const RowValues& row)> compute;
  };

  /// SELECT [DISTINCT] <projections> FROM <table> [WHERE predicate].
  /// A null predicate selects all rows. DISTINCT applies to the projected
  /// row. Charges one simulated query cost (see query_count / charged_cost).
  Result<QueryResult> Select(
      const std::string& table, const std::vector<Projection>& projections,
      const std::function<bool(const QueryResult& schema, const RowValues& row)>&
          predicate = nullptr,
      bool distinct = false) const;

  /// Convenience full-table scan.
  Result<QueryResult> SelectAll(const std::string& table) const;

  /// Typed scan: resolves `columns` once, then calls `visit` with each row's
  /// values of those columns (in that order), rows in insertion order.
  /// Holds the store's lock for the whole scan, so `visit` must be short and
  /// must not call back into the store. Charges one simulated query cost.
  Status Scan(const std::string& table, const std::vector<std::string>& columns,
              const std::function<void(const std::vector<const Value*>& values)>&
                  visit) const;

  Result<size_t> RowCount(const std::string& table) const;
  std::vector<std::string> TableNames() const;

  /// Number of Select calls served (cost accounting for Figure 10).
  size_t query_count() const;
  /// Total modeled query cost so far, in microseconds.
  int64_t charged_cost_micros() const;
  int64_t per_query_cost_micros() const {
    return options_.simulated_query_cost_micros;
  }

 private:
  struct Table {
    std::vector<Column> columns;
    std::vector<RowValues> rows;
  };

  Result<const Table*> Find(const std::string& name) const REQUIRES(mutex_);

  Options options_;
  mutable Mutex mutex_{TMS_LOCK_RANK(65)};
  std::map<std::string, Table> tables_ GUARDED_BY(mutex_);
  mutable size_t query_count_ GUARDED_BY(mutex_) = 0;
};

/// A computed threshold row as consumed by the rules (Listing 2 output).
struct ThresholdRow {
  int64_t location = 0;
  int64_t hour = 0;
  std::string date_type;  // "weekday" / "weekend"
  double threshold = 0.0;
};

/// Statistics table schema shared by the batch layer and the retrieval
/// strategies: statistics_<attribute>(areaId, currentHour, dateType,
/// attr_mean, attr_stdv, sample_count).
std::vector<Column> StatisticsColumns();
std::string StatisticsTableName(const std::string& attribute);

/// Listing 2: SELECT DISTINCT attr_mean + s*attr_stdv AS thresholdLocation,
/// currentHour, dateType, areaId FROM statistics_<attribute>. DISTINCT
/// compares exact values (the threshold bit for bit), keeping each first
/// occurrence in table order.
Result<std::vector<ThresholdRow>> QueryThresholds(const TableStore& store,
                                                  const std::string& attribute,
                                                  double s);

/// Point lookup used by the per-tuple join strategy: the threshold for one
/// (location, hour, dateType).
Result<double> QueryThresholdFor(const TableStore& store,
                                 const std::string& attribute, double s,
                                 int64_t location, int64_t hour,
                                 const std::string& date_type);

}  // namespace storage
}  // namespace insight

#endif  // INSIGHT_STORAGE_TABLE_STORE_H_
