#ifndef INSIGHT_DIST_PROTO_H_
#define INSIGHT_DIST_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "dsps/metrics.h"
#include "observability/export.h"

namespace insight {
namespace dist {

/// Control- and data-plane message payloads (the bytes inside net::Frame
/// payloads, one struct per FrameType) plus their codecs. Everything is
/// encoded with the bounds-checked ByteWriter/ByteReader primitives; every
/// decoder returns a clean error on truncation or garbage.

/// kHello — worker -> supervisor, first frame on the control connection.
struct WorkerHello {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
  /// The worker's data-plane listener (ephemeral, chosen by the kernel).
  uint16_t data_port = 0;
};

/// kPeerTable — supervisor -> every worker, re-broadcast whenever a worker
/// registers (including restarts, which change ports and incarnations).
struct PeerEntry {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
  uint16_t data_port = 0;
};
struct PeerTable {
  std::vector<PeerEntry> peers;
};

/// Worker -> supervisor heartbeat (kStatus) period. The supervisor ticks at
/// half of it and sweeps for quiescence every two periods.
constexpr MicrosT kHeartbeatIntervalMicros = 20'000;

/// kStatus — worker heartbeat. The supervisor declares the cluster quiescent
/// (and starts the drain) once every worker reports user spouts exhausted
/// and all in-flight counters zero for two consecutive sweeps.
struct WorkerStatus {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
  bool user_spouts_done = false;
  uint64_t pending_trees = 0;
  int64_t in_flight = 0;
  uint64_t egress_unacked_frames = 0;
  uint64_t ingress_queued = 0;
  uint64_t ingress_inflight = 0;
};

/// kShutdown — supervisor -> workers. Drain: stop ingress sources, let the
/// local runtime complete, report kFinished. Abort: stop immediately.
struct ShutdownRequest {
  bool abort = false;
};

/// kFinished — worker -> supervisor right before a clean exit.
struct FinishedNote {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
};

/// kChannelHello — first frame on a worker->worker data connection. The
/// receiver keys duplicate-suppression state by sender incarnation: a
/// restarted sender resends everything its restored egress buffers hold,
/// and the receiver's per-task dedup ledgers suppress re-execution.
struct ChannelHello {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
};

/// kHopAck — receiver -> sender on the data connection: these frame
/// sequences of (stream, sender_task) are fully resolved on the receiving
/// worker (every tuple acked or failed locally, covered by durable
/// checkpoints when checkpointing is on) and may leave the sender's
/// retransmit buffer.
struct HopAck {
  std::string stream;
  uint32_t sender_task = 0;
  std::vector<uint64_t> seqs;
};

/// kMetrics — worker -> supervisor: the worker registry's Prometheus
/// snapshot plus window reports taken since the last send. The supervisor
/// merges snapshots under a worker="N" label so the observability layer
/// sees the whole cluster.
struct MetricsReport {
  uint32_t worker_id = 0;
  uint64_t incarnation = 0;
  observability::MetricsSnapshot snapshot;
  std::vector<dsps::MetricsRegistry::WindowReport> windows;
};

void EncodeWorkerHello(const WorkerHello& msg, std::string* out);
Status DecodeWorkerHello(const std::string& payload, WorkerHello* out);

void EncodePeerTable(const PeerTable& msg, std::string* out);
Status DecodePeerTable(const std::string& payload, PeerTable* out);

void EncodeWorkerStatus(const WorkerStatus& msg, std::string* out);
Status DecodeWorkerStatus(const std::string& payload, WorkerStatus* out);

void EncodeShutdownRequest(const ShutdownRequest& msg, std::string* out);
Status DecodeShutdownRequest(const std::string& payload,
                             ShutdownRequest* out);

void EncodeFinishedNote(const FinishedNote& msg, std::string* out);
Status DecodeFinishedNote(const std::string& payload, FinishedNote* out);

void EncodeChannelHello(const ChannelHello& msg, std::string* out);
Status DecodeChannelHello(const std::string& payload, ChannelHello* out);

void EncodeHopAck(const HopAck& msg, std::string* out);
Status DecodeHopAck(const std::string& payload, HopAck* out);

void EncodeMetricsReport(const MetricsReport& msg, std::string* out);
Status DecodeMetricsReport(const std::string& payload, MetricsReport* out);

}  // namespace dist
}  // namespace insight

#endif  // INSIGHT_DIST_PROTO_H_
