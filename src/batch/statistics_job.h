#ifndef INSIGHT_BATCH_STATISTICS_JOB_H_
#define INSIGHT_BATCH_STATISTICS_JOB_H_

#include <string>
#include <vector>

#include "batch/mapreduce.h"
#include "dfs/mini_dfs.h"
#include "storage/table_store.h"

namespace insight {
namespace batch {

/// One statistic of the job: the mean and standard deviation of the numeric
/// CSV column `value_col`, grouped by the location in `location_col`, the
/// hour of day and the day type. Its rows are keyed
/// "name|location|hour|dateType" and land in table statistics_<name>.
struct Statistic {
  std::string name;
  int value_col = -1;
  int location_col = -1;
};

/// Configuration of the periodic statistics job of Section 4.1.3: for every
/// (attribute, spatial location, hour-of-day, weekday/weekend) it computes
/// the mean and standard deviation of the attribute over the historical data
/// in the DFS; the results become the rules' dynamic thresholds.
///
/// Input records are CSV lines of pre-processed bus traces. A record that
/// does not parse as CSV or lacks any column the job reads is skipped; a
/// value that does not parse as a number is skipped for its statistics only.
struct StatisticsJobConfig {
  std::vector<std::string> input_paths;
  std::string output_dir = "/jobs/statistics/out";
  /// Column indexes into the CSV records.
  int hour_col = -1;
  int date_type_col = -1;
  /// Every statistic the job computes, in one pass; names must be distinct.
  std::vector<Statistic> statistics;
  int num_reducers = 4;
  int parallelism = 4;
};

/// Runs the MapReduce job. Each map task tokenizes a record once and
/// accumulates (count, sum, sumsq) per key in record order (in-mapper
/// combining); at the end of the task it emits one "count,sum,sumsq" triple
/// per key. The reducer merges a key's triples in task order and writes
/// "mean,stdev,count".
Result<MapReduceJob::Counters> RunStatisticsJob(dfs::MiniDfs* fs,
                                                const StatisticsJobConfig& config);

/// Loads a statistics job's output into the storage medium: one
/// statistics_<attribute> table per attribute (created if missing, truncated
/// otherwise), rows (areaId, currentHour, dateType, attr_mean, attr_stdv,
/// sample_count). Returns the number of rows loaded.
Result<size_t> LoadStatisticsIntoStore(const dfs::MiniDfs& fs,
                                       const std::string& output_dir,
                                       storage::TableStore* store);

}  // namespace batch
}  // namespace insight

#endif  // INSIGHT_BATCH_STATISTICS_JOB_H_
