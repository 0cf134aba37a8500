#ifndef INSIGHT_DFS_MINI_DFS_H_
#define INSIGHT_DFS_MINI_DFS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace insight {
namespace dfs {

/// Metadata of one stored chunk: HDFS-style fixed-size blocks with replica
/// placement across simulated datanodes.
struct ChunkInfo {
  int64_t chunk_id = 0;
  size_t size = 0;
  std::vector<int> replica_nodes;
};

/// In-memory distributed filesystem standing in for HDFS (Section 2.1.3).
/// Files are append-only sequences of fixed-size chunks; each chunk is
/// assigned `replication` datanodes round-robin. The MapReduce layer derives
/// its map task splits from chunk boundaries, exactly as Hadoop does
/// ("each map task is responsible for processing a distinct chunk of the data
/// stored in its distributed filesystem").
class MiniDfs {
 public:
  struct Options {
    size_t chunk_size = 4 * 1024 * 1024;
    int replication = 3;
    int num_datanodes = 7;
  };

  MiniDfs() : MiniDfs(Options{}) {}
  explicit MiniDfs(const Options& options);

  /// Creates an empty file. AlreadyExists if present.
  Status Create(const std::string& path);
  /// Appends bytes, splitting across chunk boundaries. Creates the file if
  /// missing (like `hadoop fs -appendToFile`).
  Status Append(const std::string& path, const std::string& data);
  /// Appends one line (adds the trailing newline).
  Status AppendLine(const std::string& path, const std::string& line);

  Result<std::string> ReadAll(const std::string& path) const;
  /// Reads a single chunk's bytes.
  Result<std::string> ReadChunk(const std::string& path, size_t chunk_index) const;
  /// Reads up to `length` bytes of a chunk from `offset` (a positioned read).
  Result<std::string> ReadChunkRange(const std::string& path, size_t chunk_index,
                                     size_t offset, size_t length) const;
  Result<std::vector<ChunkInfo>> GetChunks(const std::string& path) const;

  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  /// Deletes every file under the prefix (directory semantics). Returns the
  /// number of files removed.
  size_t DeleteRecursive(const std::string& prefix);
  /// Paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  Result<size_t> FileSize(const std::string& path) const;
  size_t TotalBytes() const;
  const Options& options() const { return options_; }

 private:
  struct File {
    std::vector<std::string> chunks;      // chunk payloads
    std::vector<ChunkInfo> chunk_infos;
  };

  void AppendLocked(File* file, const std::string& data) REQUIRES(mutex_);

  Options options_;
  mutable Mutex mutex_{TMS_LOCK_RANK(45)};
  std::map<std::string, File> files_ GUARDED_BY(mutex_);
  int64_t next_chunk_id_ GUARDED_BY(mutex_) = 0;
  int next_node_ GUARDED_BY(mutex_) = 0;
};

}  // namespace dfs
}  // namespace insight

#endif  // INSIGHT_DFS_MINI_DFS_H_
