#ifndef INSIGHT_BATCH_MAPREDUCE_H_
#define INSIGHT_BATCH_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dfs/mini_dfs.h"

namespace insight {
namespace batch {

/// Collects key/value pairs emitted by user map/reduce code.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const std::string& key, const std::string& value) = 0;
};

/// A map task's user code, with Hadoop's per-task lifecycle: one instance is
/// created per map task, `Map` is called once per record of the task's split
/// in file order, then `Finish` once (Hadoop's `cleanup`). A mapper that
/// aggregates across records (in-mapper combining) emits its partial results
/// from `Finish`.
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// `record` is a view into the split; it is valid only during the call.
  virtual void Map(std::string_view record, Emitter* emitter) = 0;
  virtual void Finish(Emitter* /*emitter*/) {}
};

/// Hadoop-style MapReduce over MiniDfs (Section 2.1.3):
///   map(k1, v1) -> [k2, v2]
///   reduce(k2, [v2]) -> [k3, v3]
/// Input files are split by DFS chunk (one map task per chunk, with
/// record-boundary healing across chunks). Map output is hash-partitioned
/// into `num_reducers` partitions. The shuffle is deterministic: each map
/// task fills its own partition buffers, which are concatenated in task
/// (file, chunk) order and grouped by a stable sort on the key, so a reducer
/// sees each key's values in task order whatever the thread count. Final
/// output is written back to the DFS as text `key\tvalue` lines in
/// part-r-NNNNN files, like Hadoop's TextOutputFormat.
class MapReduceJob {
 public:
  using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
  using ReduceFn = std::function<void(const std::string& key,
                                      const std::vector<std::string>& values,
                                      Emitter* emitter)>;

  struct Spec {
    std::string name = "job";
    std::vector<std::string> input_paths;
    std::string output_dir;  // part files land at <output_dir>/part-r-NNNNN
    /// Called once per map task, on the task's worker thread.
    MapperFactory mapper;
    ReduceFn reduce;
    int num_reducers = 4;
    /// Worker threads executing map/reduce tasks.
    int parallelism = 4;
  };

  struct Counters {
    size_t map_tasks = 0;
    size_t reduce_tasks = 0;
    size_t input_records = 0;
    size_t map_output_records = 0;
    size_t reduce_groups = 0;
    size_t output_records = 0;
  };

  /// Runs the job synchronously. The output directory is replaced.
  static Result<Counters> Run(dfs::MiniDfs* fs, const Spec& spec);
};

/// Reads a text-format job output directory back into (key, value) pairs.
Result<std::vector<std::pair<std::string, std::string>>> ReadJobOutput(
    const dfs::MiniDfs& fs, const std::string& output_dir);

}  // namespace batch
}  // namespace insight

#endif  // INSIGHT_BATCH_MAPREDUCE_H_
