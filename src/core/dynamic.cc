#include "core/dynamic.h"

#include <utility>

#include "core/retrieval.h"

namespace insight {
namespace core {

std::vector<batch::Statistic> DynamicRuleManager::Statistics() {
  using T = traffic::TraceCsv;
  const std::pair<const char*, int> attributes[] = {
      {traffic::kAttrDelay, T::kDelay},
      {traffic::kAttrActualDelay, T::kActualDelay},
      {traffic::kAttrSpeed, T::kSpeed},
      {traffic::kAttrCongestion, T::kCongestion},
  };
  std::vector<batch::Statistic> statistics;
  for (const auto& [name, col] : attributes) {
    statistics.push_back({name, col, T::kAreaLeaf});
    statistics.push_back({std::string(name) + "_stop", col, T::kBusStop});
  }
  return statistics;
}

Status DynamicRuleManager::AppendHistory(
    const std::vector<traffic::BusTrace>& traces) {
  std::string buffer;
  for (const traffic::BusTrace& trace : traces) trace.AppendCsvLine(&buffer);
  return fs_->Append(config_.history_path, buffer);
}

Result<size_t> DynamicRuleManager::RunBatchCycle() {
  using T = traffic::TraceCsv;
  batch::StatisticsJobConfig job;
  job.input_paths = {config_.history_path};
  job.output_dir = config_.output_dir;
  job.hour_col = T::kHour;
  job.date_type_col = T::kDateType;
  job.statistics = Statistics();
  job.num_reducers = config_.num_reducers;
  job.parallelism = config_.parallelism;
  INSIGHT_RETURN_NOT_OK(batch::RunStatisticsJob(fs_, job).status());
  INSIGHT_ASSIGN_OR_RETURN(
      size_t rows, batch::LoadStatisticsIntoStore(*fs_, config_.output_dir, store_));
  ++cycles_;
  return rows;
}

Result<size_t> DynamicRuleManager::RefreshEngine(
    cep::Engine* engine, const std::vector<RuleTemplate>& rules) const {
  size_t sent = 0;
  for (const auto& [key, signed_s] : ThresholdKeys(rules, config_.s)) {
    INSIGHT_ASSIGN_OR_RETURN(auto thresholds,
                             storage::QueryThresholds(*store_, key, signed_s));
    for (const storage::ThresholdRow& row : thresholds) {
      INSIGHT_RETURN_NOT_OK(SendThresholdEvent(engine, key, row));
      ++sent;
    }
  }
  return sent;
}

}  // namespace core
}  // namespace insight
