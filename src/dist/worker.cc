#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#include <csignal>
#endif

#include "common/mutex.h"
#include "dist/channel.h"
#include "dist/placement.h"
#include "dist/proto.h"
#include "dsps/local_runtime.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "reliability/state_store.h"

namespace insight {
namespace dist {

namespace {

constexpr int kDataListenerTag = 1;

/// Network tick period (egress flush, reconnects, heartbeats).
constexpr MicrosT kTickIntervalMicros = 2'000;
/// Backoff between egress reconnect attempts to one destination.
constexpr MicrosT kReconnectBackoffMicros = 50'000;

MicrosT SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ParseFlag(const char* arg, const char* name, uint64_t* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  *value = std::strtoull(arg + len + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

/// One worker process: hosts its slice of the topology in a LocalRuntime,
/// serves the data plane (egress retransmit + ingress dedup), and follows
/// the supervisor's control protocol. All connection-state maps are touched
/// only from the event-loop thread; `mutex_` covers the few fields shared
/// with executor threads (sender_conn_) and the main thread (drain flags).
class Worker {
 public:
  Worker(const WorkerSpec& spec, dsps::Topology topology,
         const DistOptions& options)
      : spec_(spec), topology_(std::move(topology)), options_(options) {}

  int Run() {
    Status status = Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "[worker %u] setup failed: %s\n", spec_.worker_id,
                   status.ToString().c_str());
      return 2;
    }
    bool abort = false;
    {
      MutexLock lock(mutex_);
      while (!draining_) shutdown_cv_.Wait(mutex_);
      abort = abort_;
    }
    if (abort) {
      runtime_->Stop();
    } else {
      for (auto& [name, queue] : ingress_queues_) queue->MarkDone();
      runtime_->AwaitCompletion();
    }
    for (auto& [name, group] : egress_groups_) {
      for (auto& buffer : group->buffers) buffer->Shutdown();
    }
    SendFinalReports();
    loop_->Stop();
    return abort ? 3 : 0;
  }

 private:
  struct PeerInfo {
    uint64_t incarnation = 0;
    uint16_t data_port = 0;
  };
  struct DestChannel {
    net::EventLoop::ConnId conn = 0;  // 0 = not connected
    MicrosT next_attempt_micros = 0;
  };

  Status Setup() {
    placement_ =
        ResolvePlacement(topology_, options_.placement, options_.num_workers);
    INSIGHT_RETURN_NOT_OK(
        ValidatePlacement(topology_, placement_, options_.num_workers));
    plan_ = PlanForWorker(topology_, placement_, spec_.worker_id);

    dsps::LocalRuntime::Options runtime_options = options_.runtime;
    if (runtime_options.enable_checkpointing) {
      if (options_.checkpoint_dir.empty()) {
        return Status::InvalidArgument(
            "checkpointing enabled but DistOptions::checkpoint_dir is empty");
      }
      // Shared across incarnations of this worker id: the restarted process
      // restores its predecessor's snapshots.
      file_store_ = std::make_unique<reliability::FileStateStore>(
          options_.checkpoint_dir + "/w" + std::to_string(spec_.worker_id));
      runtime_options.state_store = file_store_.get();
    }

    spouts_live_ = std::make_shared<std::atomic<int>>(0);
    for (const std::string& name : plan_.owned) {
      const dsps::ComponentDef* def = topology_.Find(name);
      if (def->is_spout) spouts_live_->fetch_add(def->num_tasks);
    }

    INSIGHT_ASSIGN_OR_RETURN(dsps::Topology sub_topology,
                             BuildWorkerTopology());
    runtime_ = std::make_unique<dsps::LocalRuntime>(std::move(sub_topology),
                                                    runtime_options);

    net::EventLoop::Callbacks callbacks;
    callbacks.on_frame = [this](net::EventLoop::ConnId id, net::Frame frame) {
      OnFrame(id, std::move(frame));
    };
    callbacks.on_close = [this](net::EventLoop::ConnId id,
                                const Status& why) { OnClose(id, why); };
    callbacks.on_tick = [this]() { OnTick(); };
    dsps::MetricsRegistry* metrics = runtime_->metrics();
    callbacks.on_sent = [metrics](uint64_t frames, uint64_t bytes) {
      metrics->RecordFramesSent(frames, bytes);
    };
    callbacks.on_received = [metrics](uint64_t frames, uint64_t bytes) {
      metrics->RecordFramesReceived(frames, bytes);
    };
    loop_ = std::make_unique<net::EventLoop>(std::move(callbacks),
                                            kTickIntervalMicros);
    INSIGHT_ASSIGN_OR_RETURN(data_port_,
                             loop_->Listen(0, kDataListenerTag));
    INSIGHT_RETURN_NOT_OK(loop_->Start());

    INSIGHT_ASSIGN_OR_RETURN(control_conn_,
                             loop_->Connect(spec_.control_port));
    WorkerHello hello;
    hello.worker_id = spec_.worker_id;
    hello.incarnation = spec_.incarnation;
    hello.data_port = data_port_;
    net::Frame frame;
    frame.type = net::FrameType::kHello;
    EncodeWorkerHello(hello, &frame.payload);
    loop_->Send(control_conn_, frame);

    // Hop-acks travel back on the inbound connection the frames arrived on.
    for (auto& [source, queue] : ingress_queues_) {
      uint32_t owner = plan_.ingress_sources.at(source);
      std::string stream = source;
      queue->SetAckSink([this, owner, stream](uint32_t sender_task,
                                              std::vector<uint64_t> seqs) {
        SendHopAck(owner, stream, sender_task, std::move(seqs));
      });
    }

    return runtime_->Start();
  }

  Result<dsps::Topology> BuildWorkerTopology() {
    dsps::TopologyBuilder builder;
    const bool acking = options_.runtime.enable_acking;

    // Ingress spouts first: one per remote source, declared with the
    // source's output fields so subscriber groupings keep their exact
    // semantics across the hop.
    for (const auto& [source, owner] : plan_.ingress_sources) {
      auto queue = std::make_shared<IngressQueue>(source);
      ingress_queues_[source] = queue;
      const dsps::ComponentDef* def = topology_.Find(source);
      builder.SetSpout(
          IngressName(source),
          [queue, acking]() {
            return std::make_unique<IngressSpout>(queue, acking);
          },
          def->output_fields, 1, 1);
    }

    for (const std::string& name : plan_.owned) {
      const dsps::ComponentDef* def = topology_.Find(name);
      auto remote_it = plan_.remote_dests.find(name);
      std::shared_ptr<EgressGroup> group;
      if (remote_it != plan_.remote_dests.end()) {
        group = std::make_shared<EgressGroup>();
        group->component = name;
        int buffer_tasks = def->is_spout ? 1 : def->num_tasks;
        for (int task = 0; task < buffer_tasks; ++task) {
          group->buffers.push_back(std::make_shared<EgressBuffer>(
              name, static_cast<uint32_t>(task), remote_it->second,
              options_.egress));
        }
        egress_groups_[name] = group;
        for (uint32_t dest : remote_it->second) dest_workers_.insert(dest);
      }
      if (def->is_spout) {
        dsps::SpoutFactory inner = def->spout_factory;
        auto live = spouts_live_;
        builder.SetSpout(
            name,
            [inner, live]() {
              return std::make_unique<WatchedSpout>(inner(), live);
            },
            def->output_fields, def->num_executors, def->num_tasks);
        // Shedding tiers are declared on the global topology; the worker's
        // sub-topology must seed the same tier on its slice of the spout.
        builder.SetPriority(name, def->priority);
      } else {
        dsps::BoltFactory factory = def->bolt_factory;
        if (group != nullptr) {
          dsps::BoltFactory inner = def->bolt_factory;
          auto group_copy = group;
          factory = [inner, group_copy]() {
            return std::make_unique<ForwardingBolt>(inner(), group_copy);
          };
        }
        dsps::TopologyBuilder::BoltDeclarer declarer =
            builder.SetBolt(name, factory, def->output_fields,
                            def->num_executors, def->num_tasks);
        for (const dsps::Subscription& subscription : def->subscriptions) {
          std::string source = subscription.source;
          if (placement_.worker_of.at(source) != spec_.worker_id) {
            source = IngressName(source);
          }
          switch (subscription.grouping) {
            case dsps::Grouping::kShuffle:
              declarer.ShuffleGrouping(source);
              break;
            case dsps::Grouping::kFields:
              declarer.FieldsGrouping(source, subscription.fields);
              break;
            case dsps::Grouping::kAll:
              declarer.AllGrouping(source);
              break;
            case dsps::Grouping::kGlobal:
              declarer.GlobalGrouping(source);
              break;
            case dsps::Grouping::kDirect:
              declarer.DirectGrouping(source);
              break;
          }
        }
      }
    }

    // Egress bolts for owned spouts with remote subscribers (bolts capture
    // remote emissions inline via ForwardingBolt instead).
    for (const std::string& name : plan_.owned) {
      const dsps::ComponentDef* def = topology_.Find(name);
      auto group_it = egress_groups_.find(name);
      if (!def->is_spout || group_it == egress_groups_.end()) continue;
      auto group = group_it->second;
      builder
          .SetBolt(
              EgressName(name),
              [group]() { return std::make_unique<EgressBolt>(group); },
              dsps::Fields{}, 1, 1)
          .GlobalGrouping(name);
    }

    return builder.Build();
  }

  void OnFrame(net::EventLoop::ConnId id, net::Frame frame) {
    if (id == control_conn_) {
      OnControlFrame(std::move(frame));
      return;
    }
    switch (frame.type) {
      case net::FrameType::kChannelHello: {
        ChannelHello hello;
        if (!DecodeChannelHello(frame.payload, &hello).ok()) {
          loop_->Close(id);
          return;
        }
        MutexLock lock(mutex_);
        senders_[id] = hello;
        auto it = sender_conn_.find(hello.worker_id);
        bool replace = true;
        if (it != sender_conn_.end()) {
          auto existing = senders_.find(it->second);
          replace = existing == senders_.end() ||
                    existing->second.incarnation <= hello.incarnation;
        }
        if (replace) sender_conn_[hello.worker_id] = id;
        return;
      }
      case net::FrameType::kTupleBatch: {
        ChannelHello sender;
        {
          MutexLock lock(mutex_);
          auto it = senders_.find(id);
          if (it == senders_.end()) {
            // Data before identification: protocol violation.
            loop_->Close(id);
            return;
          }
          sender = it->second;
        }
        net::TupleBatch batch;
        if (!net::DecodeTupleBatch(frame.payload, &batch).ok()) {
          loop_->Close(id);
          return;
        }
        auto queue_it = ingress_queues_.find(batch.stream);
        if (queue_it == ingress_queues_.end()) {
          loop_->Close(id);
          return;
        }
        queue_it->second->OfferFrame(sender.incarnation, batch);
        if (queue_it->second->WantsPause()) loop_->SetReadPaused(id, true);
        return;
      }
      case net::FrameType::kHopAck: {
        HopAck ack;
        if (!DecodeHopAck(frame.payload, &ack).ok()) {
          loop_->Close(id);
          return;
        }
        uint32_t dest_worker = 0;
        bool found = false;
        {
          MutexLock lock(mutex_);
          for (const auto& [worker, channel] : dests_) {
            if (channel.conn == id) {
              dest_worker = worker;
              found = true;
              break;
            }
          }
        }
        if (!found) return;
        auto group_it = egress_groups_.find(ack.stream);
        if (group_it == egress_groups_.end()) return;
        auto& buffers = group_it->second->buffers;
        if (ack.sender_task >= buffers.size()) return;
        buffers[ack.sender_task]->HandleAck(dest_worker, ack.seqs);
        return;
      }
      default:
        loop_->Close(id);
        return;
    }
  }

  void OnControlFrame(net::Frame frame) {
    switch (frame.type) {
      case net::FrameType::kPeerTable: {
        PeerTable table;
        if (!DecodePeerTable(frame.payload, &table).ok()) return;
        MutexLock lock(mutex_);
        for (const PeerEntry& entry : table.peers) {
          if (entry.worker_id == spec_.worker_id) continue;
          PeerInfo& info = peers_[entry.worker_id];
          info.incarnation = entry.incarnation;
          info.data_port = entry.data_port;
        }
        return;
      }
      case net::FrameType::kShutdown: {
        ShutdownRequest request;
        if (!DecodeShutdownRequest(frame.payload, &request).ok()) return;
        MutexLock lock(mutex_);
        draining_ = true;
        abort_ = abort_ || request.abort;
        shutdown_cv_.NotifyAll();
        return;
      }
      default:
        return;
    }
  }

  void OnClose(net::EventLoop::ConnId id, const Status& why) {
    (void)why;
    if (id == control_conn_) {
      // The supervisor is gone; an orphaned worker must not outlive it.
      std::_Exit(3);
    }
    MutexLock lock(mutex_);
    for (auto& [worker, channel] : dests_) {
      if (channel.conn != id) continue;
      channel.conn = 0;
      channel.next_attempt_micros =
          SteadyNowMicros() + kReconnectBackoffMicros;
      uint64_t requeued = 0;
      for (const auto& [name, group] : egress_groups_) {
        for (const auto& buffer : group->buffers) {
          requeued += buffer->MarkDisconnected(worker);
        }
      }
      if (requeued > 0) runtime_->metrics()->RecordRequeuedTuples(requeued);
      return;
    }
    auto sender_it = senders_.find(id);
    if (sender_it != senders_.end()) {
      auto current = sender_conn_.find(sender_it->second.worker_id);
      if (current != sender_conn_.end() && current->second == id) {
        sender_conn_.erase(current);
      }
      senders_.erase(sender_it);
    }
  }

  void OnTick() {
    const MicrosT now = SteadyNowMicros();
    // 1. (Re)connect to destination workers whose address we know.
    for (uint32_t dest : dest_workers_) {
      uint16_t port = 0;
      {
        MutexLock lock(mutex_);
        DestChannel& channel = dests_[dest];
        if (channel.conn != 0 || now < channel.next_attempt_micros) continue;
        auto peer_it = peers_.find(dest);
        if (peer_it == peers_.end()) continue;
        port = peer_it->second.data_port;
      }
      Result<net::EventLoop::ConnId> conn = loop_->Connect(port);
      MutexLock lock(mutex_);
      DestChannel& channel = dests_[dest];
      if (!conn.ok()) {
        channel.next_attempt_micros = now + kReconnectBackoffMicros;
        continue;
      }
      channel.conn = conn.value();
      runtime_->metrics()->RecordReconnect();
      ChannelHello hello;
      hello.worker_id = spec_.worker_id;
      hello.incarnation = spec_.incarnation;
      net::Frame frame;
      frame.type = net::FrameType::kChannelHello;
      EncodeChannelHello(hello, &frame.payload);
      loop_->Send(channel.conn, frame);
    }
    // 2. Ship sendable egress frames.
    for (const auto& [name, group] : egress_groups_) {
      for (const auto& buffer : group->buffers) {
        for (uint32_t dest : buffer->dest_workers()) {
          net::EventLoop::ConnId conn = 0;
          {
            MutexLock lock(mutex_);
            auto it = dests_.find(dest);
            if (it != dests_.end()) conn = it->second.conn;
          }
          if (conn == 0) continue;
          for (std::string& bytes : buffer->TakeSendable(dest, now)) {
            net::Frame frame;
            frame.type = net::FrameType::kTupleBatch;
            frame.payload = std::move(bytes);
            loop_->Send(conn, frame);
          }
        }
      }
    }
    // 3. Resume paused senders once the ingress queues drained.
    bool want_pause = false;
    for (const auto& [source, queue] : ingress_queues_) {
      want_pause = want_pause || queue->WantsPause();
    }
    if (!want_pause) {
      MutexLock lock(mutex_);
      for (const auto& [id, hello] : senders_) {
        loop_->SetReadPaused(id, false);
      }
    }
    // 4. Heartbeat.
    if (now - last_heartbeat_micros_ >= kHeartbeatIntervalMicros) {
      last_heartbeat_micros_ = now;
      SendStatus();
    }
    // 5. Periodic metrics.
    if (options_.metrics_interval_micros > 0 &&
        now - last_metrics_micros_ >= options_.metrics_interval_micros) {
      last_metrics_micros_ = now;
      SendMetricsReport();
    }
  }

  void SendStatus() {
    WorkerStatus status;
    status.worker_id = spec_.worker_id;
    status.incarnation = spec_.incarnation;
    status.user_spouts_done = spouts_live_->load() <= 0;
    status.pending_trees = runtime_->pending_trees();
    status.in_flight = runtime_->in_flight();
    for (const auto& [name, group] : egress_groups_) {
      for (const auto& buffer : group->buffers) {
        status.egress_unacked_frames += buffer->UnackedFrames();
      }
    }
    for (const auto& [source, queue] : ingress_queues_) {
      status.ingress_queued += queue->QueuedTuples();
      status.ingress_inflight += queue->InflightTuples();
    }
    net::Frame frame;
    frame.type = net::FrameType::kStatus;
    EncodeWorkerStatus(status, &frame.payload);
    loop_->Send(control_conn_, frame);
  }

  void SendMetricsReport() {
    MetricsReport report;
    report.worker_id = spec_.worker_id;
    report.incarnation = spec_.incarnation;
    report.snapshot = runtime_->metrics()->PrometheusSnapshot();
    std::vector<dsps::MetricsRegistry::WindowReport> windows =
        runtime_->metrics()->window_reports();
    {
      MutexLock lock(mutex_);
      for (size_t i = windows_sent_; i < windows.size(); ++i) {
        report.windows.push_back(windows[i]);
      }
      windows_sent_ = std::max(windows_sent_, windows.size());
    }
    net::Frame frame;
    frame.type = net::FrameType::kMetrics;
    EncodeMetricsReport(report, &frame.payload);
    loop_->Send(control_conn_, frame);
  }

  void SendHopAck(uint32_t owner, const std::string& stream,
                  uint32_t sender_task, std::vector<uint64_t> seqs) {
    net::EventLoop::ConnId conn = 0;
    {
      MutexLock lock(mutex_);
      auto it = sender_conn_.find(owner);
      if (it == sender_conn_.end()) return;  // sender gone; it will resend
      conn = it->second;
    }
    HopAck ack;
    ack.stream = stream;
    ack.sender_task = sender_task;
    ack.seqs = std::move(seqs);
    net::Frame frame;
    frame.type = net::FrameType::kHopAck;
    EncodeHopAck(ack, &frame.payload);
    loop_->Send(conn, frame);
  }

  void SendFinalReports() {
    SendMetricsReport();
    FinishedNote note;
    note.worker_id = spec_.worker_id;
    note.incarnation = spec_.incarnation;
    net::Frame frame;
    frame.type = net::FrameType::kFinished;
    EncodeFinishedNote(note, &frame.payload);
    loop_->Send(control_conn_, frame);
    // Let the loop flush the control connection before tearing it down.
    const MicrosT deadline = SteadyNowMicros() + 1'000'000;
    while (loop_->QueuedBytes(control_conn_) > 0 &&
           SteadyNowMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const WorkerSpec spec_;
  dsps::Topology topology_;
  const DistOptions options_;

  Placement placement_;
  WorkerPlan plan_;
  std::unique_ptr<reliability::FileStateStore> file_store_;
  std::shared_ptr<std::atomic<int>> spouts_live_;
  std::map<std::string, std::shared_ptr<IngressQueue>> ingress_queues_;
  std::map<std::string, std::shared_ptr<EgressGroup>> egress_groups_;
  std::set<uint32_t> dest_workers_;
  std::unique_ptr<dsps::LocalRuntime> runtime_;
  std::unique_ptr<net::EventLoop> loop_;
  uint16_t data_port_ = 0;
  net::EventLoop::ConnId control_conn_ = 0;

  // Loop-thread-only timers.
  MicrosT last_heartbeat_micros_ = 0;
  MicrosT last_metrics_micros_ = 0;

  Mutex mutex_{TMS_LOCK_RANK(15)};
  CondVar shutdown_cv_;
  /// Metrics windows already reported; the loop's metrics tick and the main
  /// thread's final report both advance it.
  size_t windows_sent_ GUARDED_BY(mutex_) = 0;
  bool draining_ GUARDED_BY(mutex_) = false;
  bool abort_ GUARDED_BY(mutex_) = false;
  std::map<uint32_t, PeerInfo> peers_ GUARDED_BY(mutex_);
  std::map<uint32_t, DestChannel> dests_ GUARDED_BY(mutex_);
  std::map<net::EventLoop::ConnId, ChannelHello> senders_ GUARDED_BY(mutex_);
  std::map<uint32_t, net::EventLoop::ConnId> sender_conn_ GUARDED_BY(mutex_);
};

}  // namespace

bool ParseWorkerSpec(int argc, char** argv, WorkerSpec* spec) {
  bool have_id = false;
  bool have_incarnation = false;
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (ParseFlag(argv[i], "--insight-worker-id", &value)) {
      spec->worker_id = static_cast<uint32_t>(value);
      have_id = true;
    } else if (ParseFlag(argv[i], "--insight-incarnation", &value)) {
      spec->incarnation = value;
      have_incarnation = true;
    } else if (ParseFlag(argv[i], "--insight-control-port", &value)) {
      spec->control_port = static_cast<uint16_t>(value);
      have_port = true;
    }
  }
  return have_id && have_incarnation && have_port;
}

int RunWorker(const WorkerSpec& spec, dsps::Topology topology,
              const DistOptions& options) {
#ifdef __linux__
  // Die with the supervisor even if the control connection lingers.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  Worker worker(spec, std::move(topology), options);
  return worker.Run();
}

}  // namespace dist
}  // namespace insight
