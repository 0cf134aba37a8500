#include "dist/proto.h"

#include <utility>

#include "common/bytes.h"

namespace insight {
namespace dist {

namespace {

constexpr uint32_t kSanityLimit = 1u << 20;

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated ") + what);
}

void EncodeHistogramSnapshot(const observability::HistogramSnapshot& h,
                             ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(h.counts.size()));
  for (uint64_t count : h.counts) writer->PutU64(count);
}

bool DecodeHistogramSnapshot(ByteReader* reader,
                             observability::HistogramSnapshot* out) {
  uint32_t buckets = 0;
  if (!reader->GetU32(&buckets)) return false;
  if (buckets != out->counts.size()) return false;  // bucket layout mismatch
  for (size_t i = 0; i < out->counts.size(); ++i) {
    if (!reader->GetU64(&out->counts[i])) return false;
  }
  return true;
}

void EncodeSnapshot(const observability::MetricsSnapshot& snapshot,
                    ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const observability::CounterFamily& family : snapshot.counters) {
    writer->PutString(family.name);
    writer->PutString(family.help);
    writer->PutU32(static_cast<uint32_t>(family.samples.size()));
    for (const observability::CounterSample& sample : family.samples) {
      writer->PutString(sample.labels);
      writer->PutDouble(sample.value);
    }
  }
  writer->PutU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const observability::HistogramFamily& family : snapshot.histograms) {
    writer->PutString(family.name);
    writer->PutString(family.help);
    writer->PutU32(static_cast<uint32_t>(family.samples.size()));
    for (const observability::HistogramSample& sample : family.samples) {
      writer->PutString(sample.labels);
      EncodeHistogramSnapshot(sample.histogram, writer);
      writer->PutDouble(sample.sum);
    }
  }
}

bool DecodeSnapshot(ByteReader* reader,
                    observability::MetricsSnapshot* out) {
  uint32_t families = 0;
  if (!reader->GetU32(&families) || families > kSanityLimit) return false;
  out->counters.clear();
  out->counters.reserve(families);
  for (uint32_t i = 0; i < families; ++i) {
    observability::CounterFamily family;
    uint32_t samples = 0;
    if (!reader->GetString(&family.name) ||
        !reader->GetString(&family.help) || !reader->GetU32(&samples) ||
        samples > kSanityLimit) {
      return false;
    }
    family.samples.reserve(samples);
    for (uint32_t s = 0; s < samples; ++s) {
      observability::CounterSample sample;
      if (!reader->GetString(&sample.labels) ||
          !reader->GetDouble(&sample.value)) {
        return false;
      }
      family.samples.push_back(std::move(sample));
    }
    out->counters.push_back(std::move(family));
  }
  if (!reader->GetU32(&families) || families > kSanityLimit) return false;
  out->histograms.clear();
  out->histograms.reserve(families);
  for (uint32_t i = 0; i < families; ++i) {
    observability::HistogramFamily family;
    uint32_t samples = 0;
    if (!reader->GetString(&family.name) ||
        !reader->GetString(&family.help) || !reader->GetU32(&samples) ||
        samples > kSanityLimit) {
      return false;
    }
    family.samples.reserve(samples);
    for (uint32_t s = 0; s < samples; ++s) {
      observability::HistogramSample sample;
      if (!reader->GetString(&sample.labels) ||
          !DecodeHistogramSnapshot(reader, &sample.histogram) ||
          !reader->GetDouble(&sample.sum)) {
        return false;
      }
      family.samples.push_back(std::move(sample));
    }
    out->histograms.push_back(std::move(family));
  }
  return true;
}

void EncodeWindowReport(const dsps::MetricsRegistry::WindowReport& report,
                        ByteWriter* writer) {
  writer->PutI64(report.window_start);
  writer->PutI64(report.window_length_micros);
  writer->PutString(report.component);
  writer->PutU64(report.executed);
  writer->PutDouble(report.avg_latency_micros);
  writer->PutDouble(report.p50_micros);
  writer->PutDouble(report.p95_micros);
  writer->PutDouble(report.p99_micros);
  writer->PutDouble(report.capacity);
  writer->PutU64(report.acked);
  writer->PutU64(report.failed);
  writer->PutU64(report.replayed);
  writer->PutU64(report.checkpoints);
  writer->PutU64(report.checkpoint_restores);
  writer->PutU64(report.checkpoint_restore_failures);
  writer->PutU64(report.deduped);
}

bool DecodeWindowReport(ByteReader* reader,
                        dsps::MetricsRegistry::WindowReport* out) {
  return reader->GetI64(&out->window_start) &&
         reader->GetI64(&out->window_length_micros) &&
         reader->GetString(&out->component) &&
         reader->GetU64(&out->executed) &&
         reader->GetDouble(&out->avg_latency_micros) &&
         reader->GetDouble(&out->p50_micros) &&
         reader->GetDouble(&out->p95_micros) &&
         reader->GetDouble(&out->p99_micros) &&
         reader->GetDouble(&out->capacity) && reader->GetU64(&out->acked) &&
         reader->GetU64(&out->failed) && reader->GetU64(&out->replayed) &&
         reader->GetU64(&out->checkpoints) &&
         reader->GetU64(&out->checkpoint_restores) &&
         reader->GetU64(&out->checkpoint_restore_failures) &&
         reader->GetU64(&out->deduped);
}

}  // namespace

void EncodeWorkerHello(const WorkerHello& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.incarnation);
  writer.PutU32(msg.data_port);
}

Status DecodeWorkerHello(const std::string& payload, WorkerHello* out) {
  ByteReader reader(payload);
  uint32_t port = 0;
  if (!reader.GetU32(&out->worker_id) || !reader.GetU64(&out->incarnation) ||
      !reader.GetU32(&port) || !reader.exhausted()) {
    return Truncated("WorkerHello");
  }
  out->data_port = static_cast<uint16_t>(port);
  return Status::OK();
}

void EncodePeerTable(const PeerTable& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(static_cast<uint32_t>(msg.peers.size()));
  for (const PeerEntry& peer : msg.peers) {
    writer.PutU32(peer.worker_id);
    writer.PutU64(peer.incarnation);
    writer.PutU32(peer.data_port);
  }
}

Status DecodePeerTable(const std::string& payload, PeerTable* out) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetU32(&count) || count > kSanityLimit) {
    return Truncated("PeerTable");
  }
  out->peers.clear();
  out->peers.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PeerEntry peer;
    uint32_t port = 0;
    if (!reader.GetU32(&peer.worker_id) ||
        !reader.GetU64(&peer.incarnation) || !reader.GetU32(&port)) {
      return Truncated("PeerTable entry");
    }
    peer.data_port = static_cast<uint16_t>(port);
    out->peers.push_back(peer);
  }
  if (!reader.exhausted()) return Truncated("PeerTable (trailing bytes)");
  return Status::OK();
}

void EncodeWorkerStatus(const WorkerStatus& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.incarnation);
  writer.PutU8(msg.user_spouts_done ? 1 : 0);
  writer.PutU64(msg.pending_trees);
  writer.PutI64(msg.in_flight);
  writer.PutU64(msg.egress_unacked_frames);
  writer.PutU64(msg.ingress_queued);
  writer.PutU64(msg.ingress_inflight);
}

Status DecodeWorkerStatus(const std::string& payload, WorkerStatus* out) {
  ByteReader reader(payload);
  uint8_t done = 0;
  if (!reader.GetU32(&out->worker_id) || !reader.GetU64(&out->incarnation) ||
      !reader.GetU8(&done) || !reader.GetU64(&out->pending_trees) ||
      !reader.GetI64(&out->in_flight) ||
      !reader.GetU64(&out->egress_unacked_frames) ||
      !reader.GetU64(&out->ingress_queued) ||
      !reader.GetU64(&out->ingress_inflight) || !reader.exhausted()) {
    return Truncated("WorkerStatus");
  }
  out->user_spouts_done = done != 0;
  return Status::OK();
}

void EncodeShutdownRequest(const ShutdownRequest& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU8(msg.abort ? 1 : 0);
}

Status DecodeShutdownRequest(const std::string& payload,
                             ShutdownRequest* out) {
  ByteReader reader(payload);
  uint8_t abort_flag = 0;
  if (!reader.GetU8(&abort_flag) || !reader.exhausted()) {
    return Truncated("ShutdownRequest");
  }
  out->abort = abort_flag != 0;
  return Status::OK();
}

void EncodeFinishedNote(const FinishedNote& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.incarnation);
}

Status DecodeFinishedNote(const std::string& payload, FinishedNote* out) {
  ByteReader reader(payload);
  if (!reader.GetU32(&out->worker_id) || !reader.GetU64(&out->incarnation) ||
      !reader.exhausted()) {
    return Truncated("FinishedNote");
  }
  return Status::OK();
}

void EncodeChannelHello(const ChannelHello& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.incarnation);
}

Status DecodeChannelHello(const std::string& payload, ChannelHello* out) {
  ByteReader reader(payload);
  if (!reader.GetU32(&out->worker_id) || !reader.GetU64(&out->incarnation) ||
      !reader.exhausted()) {
    return Truncated("ChannelHello");
  }
  return Status::OK();
}

void EncodeHopAck(const HopAck& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutString(msg.stream);
  writer.PutU32(msg.sender_task);
  writer.PutU32(static_cast<uint32_t>(msg.seqs.size()));
  for (uint64_t seq : msg.seqs) writer.PutU64(seq);
}

Status DecodeHopAck(const std::string& payload, HopAck* out) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetString(&out->stream) || !reader.GetU32(&out->sender_task) ||
      !reader.GetU32(&count) || count > kSanityLimit) {
    return Truncated("HopAck");
  }
  out->seqs.clear();
  out->seqs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t seq = 0;
    if (!reader.GetU64(&seq)) return Truncated("HopAck seq");
    out->seqs.push_back(seq);
  }
  if (!reader.exhausted()) return Truncated("HopAck (trailing bytes)");
  return Status::OK();
}

void EncodeMetricsReport(const MetricsReport& msg, std::string* out) {
  ByteWriter writer(out);
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.incarnation);
  EncodeSnapshot(msg.snapshot, &writer);
  writer.PutU32(static_cast<uint32_t>(msg.windows.size()));
  for (const dsps::MetricsRegistry::WindowReport& report : msg.windows) {
    EncodeWindowReport(report, &writer);
  }
}

Status DecodeMetricsReport(const std::string& payload, MetricsReport* out) {
  ByteReader reader(payload);
  if (!reader.GetU32(&out->worker_id) || !reader.GetU64(&out->incarnation) ||
      !DecodeSnapshot(&reader, &out->snapshot)) {
    return Truncated("MetricsReport");
  }
  uint32_t windows = 0;
  if (!reader.GetU32(&windows) || windows > kSanityLimit) {
    return Truncated("MetricsReport windows");
  }
  out->windows.clear();
  out->windows.reserve(windows);
  for (uint32_t i = 0; i < windows; ++i) {
    dsps::MetricsRegistry::WindowReport report;
    if (!DecodeWindowReport(&reader, &report)) {
      return Truncated("MetricsReport window");
    }
    out->windows.push_back(std::move(report));
  }
  if (!reader.exhausted()) {
    return Truncated("MetricsReport (trailing bytes)");
  }
  return Status::OK();
}

}  // namespace dist
}  // namespace insight
