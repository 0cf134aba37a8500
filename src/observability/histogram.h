#ifndef INSIGHT_OBSERVABILITY_HISTOGRAM_H_
#define INSIGHT_OBSERVABILITY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/clock.h"
#include "common/static_analysis.h"

namespace insight {
namespace observability {

/// Fixed bucket upper bounds (microseconds) shared by every latency
/// histogram in the system. Fixed — rather than per-histogram — boundaries
/// are what make per-task histograms mergeable at report time with a plain
/// element-wise add, and the exporter's `le` labels stable across runs.
/// Roughly logarithmic from 1 us to 10 s; the last bucket is +Inf.
inline constexpr std::array<double, 22> kLatencyBucketBoundsMicros = {
    1,     2,     5,      10,     25,     50,      100,     250,
    500,   1000,  2500,   5000,   10000,  25000,   50000,   100000,
    250000, 500000, 1000000, 2500000, 5000000, 10000000};

/// Mergeable, non-atomic view of one histogram (a point-in-time copy of the
/// atomic buckets, or a per-window delta, or a cross-task merge).
struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = kLatencyBucketBoundsMicros.size() + 1;

  std::array<uint64_t, kNumBuckets> counts{};

  uint64_t total() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }

  void Merge(const HistogramSnapshot& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) counts[i] += other.counts[i];
  }

  /// Estimated value at percentile `p` in [0, 100], linearly interpolated
  /// inside the target bucket. An empty histogram reports 0 (never NaN), and
  /// ranks landing in the +Inf bucket report its lower bound — a floor, the
  /// only honest answer a bounded histogram has there.
  double Percentile(double p) const {
    uint64_t n = total();
    if (n == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    double target = p / 100.0 * static_cast<double>(n);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      uint64_t before = cumulative;
      cumulative += counts[i];
      if (static_cast<double>(cumulative) < target || counts[i] == 0) continue;
      double lower = i == 0 ? 0.0 : kLatencyBucketBoundsMicros[i - 1];
      if (i >= kLatencyBucketBoundsMicros.size()) return lower;
      double upper = kLatencyBucketBoundsMicros[i];
      double fraction = (target - static_cast<double>(before)) /
                        static_cast<double>(counts[i]);
      return lower + (upper - lower) * fraction;
    }
    return kLatencyBucketBoundsMicros.back();
  }
};

/// Lock-free latency histogram: one relaxed atomic increment per Record.
/// One instance per task (like the scalar counters in MetricsRegistry), so
/// the hot path never contends across tasks; report-time readers copy the
/// buckets into a HistogramSnapshot and merge those.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  /// Bucket holding `micros` (branch-light linear scan over a 22-entry
  /// constexpr table; the compiler unrolls it).
  static size_t BucketIndex(MicrosT micros) TMS_NO_ALLOC {
    double v = static_cast<double>(micros);
    for (size_t i = 0; i < kLatencyBucketBoundsMicros.size(); ++i) {
      if (v <= kLatencyBucketBoundsMicros[i]) return i;
    }
    return kNumBuckets - 1;
  }

  void Record(MicrosT micros) TMS_NO_ALLOC {
    buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snapshot;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snapshot.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

}  // namespace observability
}  // namespace insight

#endif  // INSIGHT_OBSERVABILITY_HISTOGRAM_H_
