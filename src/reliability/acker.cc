#include "reliability/acker.h"

#include "common/check.h"
#include "common/logging.h"

namespace insight {
namespace reliability {

namespace {

// splitmix64 finalizer: spreads sequential / structured keys across shards.
uint64_t MixKey(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Acker::Acker(size_t num_shards) : shards_(num_shards == 0 ? 1 : num_shards) {}

Acker::Shard& Acker::ShardFor(uint64_t root_key) {
  return shards_[MixKey(root_key) % shards_.size()];
}

void Acker::Register(const TreeInfo& info, uint64_t guard_edge) {
  INSIGHT_CHECK(guard_edge != 0) << "acker guard edge must be nonzero";
  Shard& shard = ShardFor(info.root_key);
  MutexLock lock(shard.mutex);
  auto [it, inserted] = shard.trees.try_emplace(info.root_key);
  // A live entry under this key means two in-flight trees collided on one
  // root key (a message id reused within one spout task while the first
  // tree is still in flight, or a 64-bit RootKey collision) — the
  // accumulators would mix and neither tree could ever balance, leaking a
  // pending root. Replays cannot trip this: each attempt derives a fresh
  // root key, and distinct spout tasks derive disjoint key spaces.
  TMS_DCHECK(inserted) << "acker tree " << info.root_key
                       << " registered twice (message " << info.message_id
                       << ", attempt " << info.attempt << ")";
  it->second.ack_val = guard_edge;
  it->second.info = info;
  if (inserted) pending_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<TreeInfo> Acker::Xor(uint64_t root_key, uint64_t delta) {
  Shard& shard = ShardFor(root_key);
  MutexLock lock(shard.mutex);
  auto it = shard.trees.find(root_key);
  if (it == shard.trees.end()) return std::nullopt;  // expired or replayed
  it->second.ack_val ^= delta;
  if (it->second.ack_val != 0) return std::nullopt;
  TreeInfo info = it->second.info;
  shard.trees.erase(it);
  size_t prev = pending_.fetch_sub(1, std::memory_order_relaxed);
  TMS_DCHECK_GE(prev, size_t{1}) << "acker pending count underflow";
  return info;
}

std::vector<TreeInfo> Acker::ExpireOlderThan(MicrosT cutoff) {
  std::vector<TreeInfo> expired;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (auto it = shard.trees.begin(); it != shard.trees.end();) {
      if (it->second.info.created_micros <= cutoff) {
        // A balanced (zero) accumulator may not linger as a tracked tree:
        // completion erases the entry under the same lock, so an expiring
        // entry must still be XOR-unbalanced.
        TMS_DCHECK(it->second.ack_val != 0)
            << "expiring acker tree " << it->first
            << " has a balanced accumulator (completion was missed)";
        expired.push_back(it->second.info);
        it = shard.trees.erase(it);
        size_t prev = pending_.fetch_sub(1, std::memory_order_relaxed);
        TMS_DCHECK_GE(prev, size_t{1}) << "acker pending count underflow";
      } else {
        ++it;
      }
    }
  }
  return expired;
}

std::optional<TreeInfo> Acker::Discard(uint64_t root_key) {
  Shard& shard = ShardFor(root_key);
  MutexLock lock(shard.mutex);
  auto it = shard.trees.find(root_key);
  if (it == shard.trees.end()) return std::nullopt;
  TreeInfo info = it->second.info;
  shard.trees.erase(it);
  size_t prev = pending_.fetch_sub(1, std::memory_order_relaxed);
  TMS_DCHECK_GE(prev, size_t{1}) << "acker pending count underflow";
  return info;
}

}  // namespace reliability
}  // namespace insight
