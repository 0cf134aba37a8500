#include "batch/mapreduce.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace insight {
namespace batch {

namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// Simple stable string hash (FNV-1a) for partitioning; std::hash is
/// implementation-defined and we want reproducible partition assignment.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

class VectorEmitter : public Emitter {
 public:
  void Emit(const std::string& key, const std::string& value) override {
    pairs.emplace_back(key, value);
  }
  Pairs pairs;
};

/// Routes a map task's output into the task's own partition buffers.
class PartitionEmitter : public Emitter {
 public:
  explicit PartitionEmitter(std::vector<Pairs>* parts) : parts_(parts) {}
  void Emit(const std::string& key, const std::string& value) override {
    (*parts_)[HashKey(key) % parts_->size()].emplace_back(key, value);
    ++emitted;
  }
  size_t emitted = 0;

 private:
  std::vector<Pairs>* parts_;
};

struct MapTask {
  std::string path;
  size_t chunk_index;
  size_t num_chunks;
  size_t previous_chunk_size;  // 0 for the first chunk
};

/// What one map task hands to the shuffle.
struct MapTaskOutput {
  Status status;
  std::vector<Pairs> parts;  // [partition]
  size_t input_records = 0;
  size_t map_output_records = 0;
};

/// Reads the split of a chunk into *data and returns the offset of its first
/// record. The split heals records that span chunk boundaries: a task owns
/// every record that *starts* in its chunk, so unless the previous chunk ends
/// with a newline, a chunk's partial first line belongs to the previous task,
/// and the tail of the chunk's last record is pulled from the following
/// chunks. Returns data->size() when the chunk starts no record.
Result<size_t> ReadSplit(const dfs::MiniDfs& fs, const MapTask& task,
                         std::string* data) {
  INSIGHT_ASSIGN_OR_RETURN(*data, fs.ReadChunk(task.path, task.chunk_index));
  size_t start = 0;
  if (task.chunk_index > 0) {
    INSIGHT_ASSIGN_OR_RETURN(
        std::string last_byte,
        fs.ReadChunkRange(task.path, task.chunk_index - 1,
                          task.previous_chunk_size - 1, 1));
    if (last_byte != "\n") {
      size_t nl = data->find('\n');
      if (nl == std::string::npos) return data->size();
      start = nl + 1;
    }
  }
  for (size_t next = task.chunk_index + 1;
       !data->empty() && data->back() != '\n' && next < task.num_chunks;
       ++next) {
    INSIGHT_ASSIGN_OR_RETURN(std::string next_data, fs.ReadChunk(task.path, next));
    size_t nl = next_data.find('\n');
    data->append(next_data, 0, nl);
    if (nl != std::string::npos) break;
  }
  return start;
}

void RunMapTask(const dfs::MiniDfs& fs, const MapTask& task,
                const MapReduceJob::Spec& spec, MapTaskOutput* out) {
  std::string data;
  Result<size_t> start = ReadSplit(fs, task, &data);
  if (!start.ok()) {
    out->status = start.status();
    return;
  }
  std::unique_ptr<Mapper> mapper = spec.mapper();
  if (!mapper) {
    out->status = Status::InvalidArgument("mapper factory returned no mapper");
    return;
  }
  out->parts.resize(static_cast<size_t>(spec.num_reducers));
  PartitionEmitter emitter(&out->parts);

  // Newline-delimited records; empty records at the end of the split are
  // dropped.
  std::string_view body(data);
  body.remove_prefix(*start);
  while (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  while (!body.empty()) {
    size_t nl = body.find('\n');
    mapper->Map(body.substr(0, nl), &emitter);
    ++out->input_records;
    if (nl == std::string_view::npos) break;
    body.remove_prefix(nl + 1);
  }
  mapper->Finish(&emitter);
  out->map_output_records = emitter.emitted;
}

/// Stable-sorts a partition's pairs by key and runs `fn` once per key, with
/// the key's values in their shuffle order. Consumes the values.
size_t GroupAndApply(Pairs* pairs, const MapReduceJob::ReduceFn& fn,
                     Emitter* emitter) {
  std::stable_sort(pairs->begin(), pairs->end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t groups = 0;
  std::vector<std::string> values;
  size_t i = 0;
  while (i < pairs->size()) {
    values.clear();
    size_t j = i;
    while (j < pairs->size() && (*pairs)[j].first == (*pairs)[i].first) {
      values.push_back(std::move((*pairs)[j].second));
      ++j;
    }
    fn((*pairs)[i].first, values, emitter);
    ++groups;
    i = j;
  }
  return groups;
}

/// What one reduce task reports back.
struct ReduceTaskOutput {
  Status status;
  size_t groups = 0;
  size_t records = 0;
};

}  // namespace

Result<MapReduceJob::Counters> MapReduceJob::Run(dfs::MiniDfs* fs,
                                                 const Spec& spec) {
  if (!spec.mapper || !spec.reduce) {
    return Status::InvalidArgument("job requires a mapper factory and a reduce function");
  }
  if (spec.input_paths.empty()) {
    return Status::InvalidArgument("job requires at least one input path");
  }
  if (spec.num_reducers <= 0) {
    return Status::InvalidArgument("num_reducers must be positive");
  }
  for (const std::string& path : spec.input_paths) {
    if (!fs->Exists(path)) return Status::NotFound("no input file '" + path + "'");
  }

  Counters counters;
  const size_t num_parts = static_cast<size_t>(spec.num_reducers);
  const size_t workers = static_cast<size_t>(std::max(1, spec.parallelism));

  // ---- Map phase: one task per input chunk, each writing only its own
  // output slot. ----
  std::vector<MapTask> map_tasks;
  for (const std::string& path : spec.input_paths) {
    INSIGHT_ASSIGN_OR_RETURN(auto chunks, fs->GetChunks(path));
    for (size_t i = 0; i < chunks.size(); ++i) {
      map_tasks.push_back({path, i, chunks.size(), i > 0 ? chunks[i - 1].size : 0});
    }
  }
  counters.map_tasks = map_tasks.size();
  std::vector<MapTaskOutput> map_outputs(map_tasks.size());
  {
    ThreadPool pool(workers);
    for (size_t t = 0; t < map_tasks.size(); ++t) {
      pool.Submit([&, t] { RunMapTask(*fs, map_tasks[t], spec, &map_outputs[t]); });
    }
    pool.Wait();
  }
  for (const MapTaskOutput& out : map_outputs) {
    if (!out.status.ok()) return out.status;
    counters.input_records += out.input_records;
    counters.map_output_records += out.map_output_records;
  }

  // ---- Shuffle + reduce: each reduce task concatenates its partition of
  // every map task's output in task order, then groups stably. ----
  fs->DeleteRecursive(spec.output_dir);
  std::vector<ReduceTaskOutput> reduce_outputs(num_parts);
  {
    ThreadPool pool(workers);
    for (size_t part = 0; part < num_parts; ++part) {
      pool.Submit([&, part] {
        Pairs pairs;
        size_t total = 0;
        for (const MapTaskOutput& out : map_outputs) total += out.parts[part].size();
        pairs.reserve(total);
        for (MapTaskOutput& out : map_outputs) {
          std::move(out.parts[part].begin(), out.parts[part].end(),
                    std::back_inserter(pairs));
          Pairs().swap(out.parts[part]);
        }
        VectorEmitter reduce_out;
        ReduceTaskOutput& result = reduce_outputs[part];
        result.groups = GroupAndApply(&pairs, spec.reduce, &reduce_out);
        result.records = reduce_out.pairs.size();
        std::string content;
        for (const auto& [key, value] : reduce_out.pairs) {
          content += key;
          content += '\t';
          content += value;
          content += '\n';
        }
        // Appends are internally synchronized; each task owns its part file.
        result.status = fs->Append(
            spec.output_dir + "/" + StrFormat("part-r-%05zu", part), content);
      });
    }
    pool.Wait();
  }
  for (const ReduceTaskOutput& out : reduce_outputs) {
    if (!out.status.ok()) return out.status;
    counters.reduce_groups += out.groups;
    counters.output_records += out.records;
  }
  counters.reduce_tasks = num_parts;
  return counters;
}

Result<std::vector<std::pair<std::string, std::string>>> ReadJobOutput(
    const dfs::MiniDfs& fs, const std::string& output_dir) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& path : fs.List(output_dir + "/part-r-")) {
    INSIGHT_ASSIGN_OR_RETURN(std::string content, fs.ReadAll(path));
    for (const std::string& line : Split(content, '\n')) {
      if (line.empty()) continue;
      size_t tab = line.find('\t');
      if (tab == std::string::npos) {
        out.emplace_back(line, "");
      } else {
        out.emplace_back(line.substr(0, tab), line.substr(tab + 1));
      }
    }
  }
  return out;
}

}  // namespace batch
}  // namespace insight
