#ifndef INSIGHT_OBSERVABILITY_TRACE_H_
#define INSIGHT_OBSERVABILITY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace insight {
namespace observability {

/// What one span measures. A sampled tuple tree produces one kRoot span
/// (spout emission to final ack) plus, per bolt execution, one kExecute span
/// (the bolt's self time: it starts at the Execute call and excludes chained
/// callees and blocked emits), one kQueueWait span (staged into the outbox to
/// dequeued for execution — transport + queueing; none for a chained task,
/// which is called directly) and, when an emit blocked on a full downstream
/// queue, one kEmitBlocked span (the blocked time, ending with the Execute
/// call). Dapper-style: spans of one tree share a trace id; there is no
/// parent pointer because the topology's dataflow graph already orders the
/// hops.
enum class SpanKind : uint8_t {
  kRoot = 0,
  kQueueWait = 1,
  kExecute = 2,
  kEmitBlocked = 3,
};

struct TraceSpan {
  uint64_t trace_id = 0;
  SpanKind kind = SpanKind::kExecute;
  /// Component index in the topology (the runtime registers names with the
  /// tracer; an index keeps span recording allocation-free).
  int component = -1;
  int task = -1;
  MicrosT start_micros = 0;
  MicrosT end_micros = 0;

  MicrosT duration_micros() const { return end_micros - start_micros; }
};

/// Sampled per-tuple trace recorder. The runtime asks it at every root
/// emission whether to sample (deterministic 1-in-N on a shared counter, so
/// rate 1.0 traces everything and tests are reproducible); sampled tuples
/// carry the returned nonzero trace id in their metadata and every
/// instrumentation point records spans against it. Unsampled tuples carry
/// trace id 0 and cost exactly one branch per instrumentation point.
///
/// Span storage is a bounded ring (oldest spans dropped) and the open-trace
/// table is capped, so a tracer never grows without bound no matter how
/// long the topology runs. All methods are thread-safe; the mutex is a leaf
/// lock touched only for sampled tuples.
class Tracer {
 public:
  struct Options {
    /// Fraction of root emissions sampled, in [0, 1]. 0 samples nothing
    /// (but keeps the plumbing active — the "compiled in, sampling off"
    /// configuration the bench-smoke gate bounds).
    double sample_rate = 0.0;
    /// Retained span ring capacity; older spans are dropped.
    size_t max_spans = 65536;
    /// Cap on concurrently open root spans; sampling pauses at the cap.
    size_t max_open = 8192;
  };

  struct Stats {
    uint64_t started = 0;            // sampled root emissions
    uint64_t completed = 0;          // root spans closed by a final ack
    uint64_t abandoned = 0;          // open traces dropped (timeout/replay/fail)
    uint64_t double_completions = 0; // CompleteTrace on a closed/unknown trace
    uint64_t spans_recorded = 0;
    uint64_t spans_dropped = 0;      // ring overflow
    uint64_t sample_skips_at_cap = 0;
  };

  explicit Tracer(Options options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sampling decision for one root emission. Returns 0 (not sampled) or a
  /// fresh nonzero trace id. With `open_root` the root span is left open
  /// until CompleteTrace/AbandonTrace (acking topologies); without it the
  /// trace only groups hop spans (no end-to-end ack exists to close it).
  uint64_t MaybeStartTrace(MicrosT now, bool open_root = true);

  /// Records one finished span. No-op for trace_id 0.
  void RecordSpan(uint64_t trace_id, SpanKind kind, int component, int task,
                  MicrosT start_micros, MicrosT end_micros);

  /// Closes the root span at final-ack time. Returns false — and counts a
  /// double completion — if the trace is unknown or already closed, so tests
  /// can assert a tree is never completed twice.
  bool CompleteTrace(uint64_t trace_id, MicrosT now);

  /// Drops an open trace without a root span (tree timed out, was replayed,
  /// or permanently failed; the replayed attempt starts a fresh trace).
  void AbandonTrace(uint64_t trace_id);

  bool enabled() const { return sample_every_ > 0; }
  double sample_rate() const { return options_.sample_rate; }

  Stats stats() const;
  /// Copy of the retained span ring, oldest first.
  std::vector<TraceSpan> Spans() const;
  std::vector<TraceSpan> SpansForTrace(uint64_t trace_id) const;

  /// Component names for span attribution (the runtime registers them once
  /// at construction; index -1 or out of range reads as "?").
  void SetComponentNames(std::vector<std::string> names);
  std::string ComponentName(int index) const;

 private:
  Options options_;
  /// 1-in-N sampling period; 0 = sampling disabled.
  uint64_t sample_every_ = 0;
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};

  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> abandoned_{0};
  std::atomic<uint64_t> double_completions_{0};
  std::atomic<uint64_t> spans_recorded_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> sample_skips_at_cap_{0};

  mutable Mutex mutex_{TMS_LOCK_RANK(75)};
  std::deque<TraceSpan> spans_ GUARDED_BY(mutex_);
  /// Open root spans: trace id -> start time.
  std::unordered_map<uint64_t, MicrosT> open_ GUARDED_BY(mutex_);
  std::vector<std::string> component_names_ GUARDED_BY(mutex_);
};

}  // namespace observability
}  // namespace insight

#endif  // INSIGHT_OBSERVABILITY_TRACE_H_
