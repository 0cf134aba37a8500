#include "dfs/mini_dfs.h"

#include <algorithm>

namespace insight {
namespace dfs {

MiniDfs::MiniDfs(const Options& options) : options_(options) {
  if (options_.chunk_size == 0) options_.chunk_size = 1;
  if (options_.num_datanodes <= 0) options_.num_datanodes = 1;
  if (options_.replication <= 0) options_.replication = 1;
  options_.replication = std::min(options_.replication, options_.num_datanodes);
}

Status MiniDfs::Create(const std::string& path) {
  MutexLock lock(mutex_);
  if (files_.count(path) > 0) {
    return Status::AlreadyExists("file '" + path + "' already exists");
  }
  files_[path];
  return Status::OK();
}

void MiniDfs::AppendLocked(File* file, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    if (file->chunks.empty() ||
        file->chunks.back().size() >= options_.chunk_size) {
      file->chunks.emplace_back();
      ChunkInfo info;
      info.chunk_id = next_chunk_id_++;
      for (int r = 0; r < options_.replication; ++r) {
        info.replica_nodes.push_back((next_node_ + r) % options_.num_datanodes);
      }
      next_node_ = (next_node_ + 1) % options_.num_datanodes;
      file->chunk_infos.push_back(info);
    }
    std::string& chunk = file->chunks.back();
    size_t space = options_.chunk_size - chunk.size();
    size_t take = std::min(space, data.size() - offset);
    chunk.append(data, offset, take);
    file->chunk_infos.back().size = chunk.size();
    offset += take;
  }
}

Status MiniDfs::Append(const std::string& path, const std::string& data) {
  MutexLock lock(mutex_);
  AppendLocked(&files_[path], data);
  return Status::OK();
}

Status MiniDfs::AppendLine(const std::string& path, const std::string& line) {
  return Append(path, line + "\n");
}

Result<std::string> MiniDfs::ReadAll(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  std::string out;
  for (const std::string& chunk : it->second.chunks) out += chunk;
  return out;
}

Result<std::string> MiniDfs::ReadChunk(const std::string& path,
                                       size_t chunk_index) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  if (chunk_index >= it->second.chunks.size()) {
    return Status::OutOfRange("file '" + path + "' has " +
                              std::to_string(it->second.chunks.size()) +
                              " chunks");
  }
  return it->second.chunks[chunk_index];
}

Result<std::string> MiniDfs::ReadChunkRange(const std::string& path,
                                            size_t chunk_index, size_t offset,
                                            size_t length) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  if (chunk_index >= it->second.chunks.size()) {
    return Status::OutOfRange("file '" + path + "' has " +
                              std::to_string(it->second.chunks.size()) +
                              " chunks");
  }
  const std::string& chunk = it->second.chunks[chunk_index];
  if (offset > chunk.size()) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " past the end of chunk " +
                              std::to_string(chunk_index) + " of '" + path + "'");
  }
  return chunk.substr(offset, length);
}

Result<std::vector<ChunkInfo>> MiniDfs::GetChunks(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  return it->second.chunk_infos;
}

bool MiniDfs::Exists(const std::string& path) const {
  MutexLock lock(mutex_);
  return files_.count(path) > 0;
}

Status MiniDfs::Delete(const std::string& path) {
  MutexLock lock(mutex_);
  if (files_.erase(path) == 0) return Status::NotFound("no file '" + path + "'");
  return Status::OK();
}

size_t MiniDfs::DeleteRecursive(const std::string& prefix) {
  MutexLock lock(mutex_);
  size_t removed = 0;
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = files_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::string> MiniDfs::List(const std::string& prefix) const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [path, file] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

Result<size_t> MiniDfs::FileSize(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file '" + path + "'");
  size_t total = 0;
  for (const std::string& chunk : it->second.chunks) total += chunk.size();
  return total;
}

size_t MiniDfs::TotalBytes() const {
  MutexLock lock(mutex_);
  size_t total = 0;
  for (const auto& [path, file] : files_) {
    for (const std::string& chunk : file.chunks) total += chunk.size();
  }
  return total;
}

}  // namespace dfs
}  // namespace insight
