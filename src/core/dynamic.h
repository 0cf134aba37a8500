#ifndef INSIGHT_CORE_DYNAMIC_H_
#define INSIGHT_CORE_DYNAMIC_H_

#include <string>
#include <vector>

#include "batch/statistics_job.h"
#include "cep/engine.h"
#include "common/status.h"
#include "core/rule_template.h"
#include "dfs/mini_dfs.h"
#include "storage/table_store.h"
#include "traffic/trace.h"

namespace insight {
namespace core {

/// Drives the dynamic-rules loop of Sections 4.1.3 / 4.3.1: pre-processed
/// tuples accumulate in the DFS; a periodic MapReduce job computes per
/// (attribute, location, hour, day-type) mean/stdev; the results land in the
/// storage medium; and refreshed thresholds are pushed into the engines'
/// threshold streams, where std:unique(location, hour, day) replaces stale
/// values in place.
class DynamicRuleManager {
 public:
  struct Config {
    std::string history_path = "/history/traces.csv";
    std::string output_dir = "/jobs/statistics";
    /// Threshold distance in standard deviations (Listing 2's `s`).
    double s = 1.0;
    int num_reducers = 4;
    int parallelism = 4;
  };

  DynamicRuleManager(dfs::MiniDfs* fs, storage::TableStore* store,
                     const Config& config)
      : fs_(fs), store_(store), config_(config) {}

  /// Appends pre-processed traces to the DFS history (step 2 of Figure 3).
  Status AppendHistory(const std::vector<traffic::BusTrace>& traces);

  /// Runs the statistics job over the history — every attribute keyed by
  /// quadtree leaf and, as <attribute>_stop, by canonical bus stop — and
  /// loads its output into the storage medium. Returns the number of
  /// statistics rows loaded.
  Result<size_t> RunBatchCycle();

  /// Pushes the current thresholds for every attribute the rules reference
  /// into an engine's threshold streams. Returns the number of threshold
  /// events sent.
  Result<size_t> RefreshEngine(cep::Engine* engine,
                               const std::vector<RuleTemplate>& rules) const;

  size_t cycles_completed() const { return cycles_; }
  const Config& config() const { return config_; }

  /// The statistics the batch cycle computes: each Table-6 attribute per
  /// area and per bus stop.
  static std::vector<batch::Statistic> Statistics();

 private:
  dfs::MiniDfs* fs_;
  storage::TableStore* store_;
  Config config_;
  size_t cycles_ = 0;
};

}  // namespace core
}  // namespace insight

#endif  // INSIGHT_CORE_DYNAMIC_H_
