#include "batch/statistics_job.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/csv.h"
#include "common/strings.h"

namespace insight {
namespace batch {

namespace {

struct Triple {
  double count = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;

  /// Parses Serialize()'s form; false on anything else.
  static bool Parse(const std::string& s, Triple* t) {
    double* const parts[] = {&t->count, &t->sum, &t->sumsq};
    const char* p = s.data();
    const char* const end = p + s.size();
    for (double* part : parts) {
      if (part != parts[0]) {
        if (p == end || *p != ',') return false;
        ++p;
      }
      auto [next, ec] = std::from_chars(p, end, *part);
      if (ec != std::errc()) return false;
      p = next;
    }
    return p == end;
  }

  /// "count,sum,sumsq", each in the shortest form that parses back to the
  /// same double.
  std::string Serialize() const {
    char buf[96];  // a double takes at most 24 characters
    char* p = buf;
    for (double part : {count, sum, sumsq}) {
      if (p != buf) *p++ = ',';
      p = std::to_chars(p, buf + sizeof(buf), part).ptr;
    }
    return std::string(buf, p);
  }

  void Add(double value) {
    count += 1.0;
    sum += value;
    sumsq += value * value;
  }

  void Merge(const Triple& o) {
    count += o.count;
    sum += o.sum;
    sumsq += o.sumsq;
  }

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
  double Stdev() const {
    if (count < 2) return 0.0;
    double m = Mean();
    double var = sumsq / count - m * m;
    return var <= 0 ? 0.0 : std::sqrt(var);
  }
};

/// ParseDouble's rules applied in place to field i: trim, then strtod must
/// consume the whole trimmed field without ERANGE.
bool ParseValue(const CsvFields& fields, size_t i, double* value) {
  const std::string_view field = fields[i];
  const std::string_view trimmed = Trim(field);
  if (trimmed.empty()) return false;
  const char* begin = fields.c_str(i) + (trimmed.begin() - field.begin());
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (errno == ERANGE || end != begin + trimmed.size()) return false;
  *value = v;
  return true;
}

/// What a statistics map task reads. Statistics are grouped by location
/// column, so a record costs one table lookup per group, and each value
/// column is parsed once per record.
struct MapPlan {
  struct Group {
    size_t location_col = 0;
    std::vector<std::string> prefixes;  // "<name>|" per statistic
    std::vector<size_t> value_slots;    // [statistic] -> slot in value_cols
  };
  std::vector<Group> groups;
  std::vector<size_t> value_cols;  // [value slot] -> CSV column
  size_t hour_col = 0;
  size_t date_type_col = 0;
  size_t max_col = 0;  // records with no more columns than this are skipped
};

/// The map task of the statistics job: tokenizes each record once, parses
/// each value column once, and folds every statistic's sample into a
/// per-task (count, sum, sumsq) per key, in record order.
class StatisticsMapper : public Mapper {
 public:
  explicit StatisticsMapper(std::shared_ptr<const MapPlan> plan)
      : plan_(std::move(plan)),
        values_(plan_->value_cols.size()),
        valid_(plan_->value_cols.size()),
        tables_(plan_->groups.size()) {}

  void Map(std::string_view record, Emitter*) override {
    // Skip malformed records, like Hadoop would.
    if (!fields_.Parse(record) || fields_.size() <= plan_->max_col) return;
    for (size_t v = 0; v < values_.size(); ++v) {
      valid_[v] = ParseValue(fields_, plan_->value_cols[v], &values_[v]);
    }
    for (size_t g = 0; g < tables_.size(); ++g) {
      const MapPlan::Group& group = plan_->groups[g];
      suffix_.assign(fields_[group.location_col]);
      suffix_ += '|';
      suffix_.append(fields_[plan_->hour_col]);
      suffix_ += '|';
      suffix_.append(fields_[plan_->date_type_col]);
      Table& table = tables_[g];
      auto [it, inserted] = table.first.try_emplace(suffix_, table.totals.size());
      if (inserted) table.totals.resize(table.totals.size() + group.value_slots.size());
      Triple* totals = &table.totals[it->second];
      for (size_t k = 0; k < group.value_slots.size(); ++k) {
        const size_t v = group.value_slots[k];
        if (valid_[v]) totals[k].Add(values_[v]);
      }
    }
  }

  void Finish(Emitter* emitter) override {
    for (size_t g = 0; g < tables_.size(); ++g) {
      const MapPlan::Group& group = plan_->groups[g];
      for (const auto& [suffix, first] : tables_[g].first) {
        for (size_t k = 0; k < group.prefixes.size(); ++k) {
          const Triple& total = tables_[g].totals[first + k];
          if (total.count > 0) emitter->Emit(group.prefixes[k] + suffix, total.Serialize());
        }
      }
    }
  }

 private:
  /// A group's totals: the key suffix "location|hour|dateType" -> index of
  /// its first Triple in `totals`, one Triple per statistic of the group.
  struct Table {
    std::unordered_map<std::string, size_t> first;
    std::vector<Triple> totals;
  };

  const std::shared_ptr<const MapPlan> plan_;
  CsvFields fields_;
  std::vector<double> values_;
  std::vector<char> valid_;
  std::string suffix_;
  std::vector<Table> tables_;  // [group]
};

}  // namespace

Result<MapReduceJob::Counters> RunStatisticsJob(
    dfs::MiniDfs* fs, const StatisticsJobConfig& config) {
  if (config.hour_col < 0 || config.date_type_col < 0) {
    return Status::InvalidArgument(
        "statistics job requires hour/dateType column indexes");
  }
  if (config.statistics.empty()) {
    return Status::InvalidArgument("statistics job requires statistics");
  }

  auto plan = std::make_shared<MapPlan>();
  plan->hour_col = static_cast<size_t>(config.hour_col);
  plan->date_type_col = static_cast<size_t>(config.date_type_col);
  int max_col = std::max(config.hour_col, config.date_type_col);
  std::set<std::string> names;
  for (const Statistic& stat : config.statistics) {
    if (stat.name.empty() || stat.value_col < 0 || stat.location_col < 0) {
      return Status::InvalidArgument(
          "statistic requires a name and value/location column indexes");
    }
    if (!names.insert(stat.name).second) {
      return Status::InvalidArgument("duplicate statistic '" + stat.name + "'");
    }
    max_col = std::max({max_col, stat.value_col, stat.location_col});
    const size_t col = static_cast<size_t>(stat.value_col);
    auto slot = std::find(plan->value_cols.begin(), plan->value_cols.end(), col);
    if (slot == plan->value_cols.end()) {
      slot = plan->value_cols.insert(plan->value_cols.end(), col);
    }
    const size_t location_col = static_cast<size_t>(stat.location_col);
    auto group = std::find_if(plan->groups.begin(), plan->groups.end(),
                              [&](const MapPlan::Group& g) {
                                return g.location_col == location_col;
                              });
    if (group == plan->groups.end()) {
      group = plan->groups.insert(plan->groups.end(), MapPlan::Group{});
      group->location_col = location_col;
    }
    group->prefixes.push_back(stat.name + "|");
    group->value_slots.push_back(static_cast<size_t>(slot - plan->value_cols.begin()));
  }
  plan->max_col = static_cast<size_t>(max_col);

  MapReduceJob::Spec spec;
  spec.name = "statistics";
  spec.input_paths = config.input_paths;
  spec.output_dir = config.output_dir;
  spec.num_reducers = config.num_reducers;
  spec.parallelism = config.parallelism;
  spec.mapper = [plan = std::shared_ptr<const MapPlan>(std::move(plan))] {
    return std::make_unique<StatisticsMapper>(plan);
  };
  spec.reduce = [](const std::string& key, const std::vector<std::string>& values,
                   Emitter* emitter) {
    Triple total;
    for (const std::string& v : values) {
      Triple t;
      if (Triple::Parse(v, &t)) total.Merge(t);
    }
    char buf[96];  // two %.17g (at most 24 characters each) and an integer
    const int n = std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%lld", total.Mean(),
                                total.Stdev(), static_cast<long long>(total.count));
    emitter->Emit(key, std::string(buf, static_cast<size_t>(n)));
  };
  return MapReduceJob::Run(fs, spec);
}

Result<size_t> LoadStatisticsIntoStore(const dfs::MiniDfs& fs,
                                       const std::string& output_dir,
                                       storage::TableStore* store) {
  INSIGHT_ASSIGN_OR_RETURN(auto pairs, ReadJobOutput(fs, output_dir));
  std::set<std::string> truncated;
  size_t loaded = 0;
  for (const auto& [key, value] : pairs) {
    auto key_parts = Split(key, '|');
    auto value_parts = Split(value, ',');
    if (key_parts.size() != 4 || value_parts.size() != 3) {
      return Status::ParseError("malformed statistics record: " + key + " -> " +
                                value);
    }
    const std::string& attr = key_parts[0];
    INSIGHT_ASSIGN_OR_RETURN(long long location, ParseInt(key_parts[1]));
    INSIGHT_ASSIGN_OR_RETURN(long long hour, ParseInt(key_parts[2]));
    const std::string& date_type = key_parts[3];
    INSIGHT_ASSIGN_OR_RETURN(double mean, ParseDouble(value_parts[0]));
    INSIGHT_ASSIGN_OR_RETURN(double stdev, ParseDouble(value_parts[1]));
    INSIGHT_ASSIGN_OR_RETURN(long long count, ParseInt(value_parts[2]));

    std::string table = storage::StatisticsTableName(attr);
    if (truncated.insert(table).second) {
      if (store->HasTable(table)) {
        INSIGHT_RETURN_NOT_OK(store->Truncate(table));
      } else {
        INSIGHT_RETURN_NOT_OK(
            store->CreateTable(table, storage::StatisticsColumns()));
      }
    }
    INSIGHT_RETURN_NOT_OK(store->Insert(
        table, {storage::Value(static_cast<int64_t>(location)),
                storage::Value(static_cast<int64_t>(hour)),
                storage::Value(date_type), storage::Value(mean),
                storage::Value(stdev), storage::Value(static_cast<int64_t>(count))}));
    ++loaded;
  }
  return loaded;
}

}  // namespace batch
}  // namespace insight
