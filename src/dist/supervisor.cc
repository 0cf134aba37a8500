#include "dist/supervisor.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#ifdef __linux__
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace insight {
namespace dist {

namespace {

constexpr int kControlListenerTag = 0;

/// How long the supervisor waits without a heartbeat before declaring a
/// worker dead.
constexpr MicrosT kHeartbeatTimeoutMicros = 2'000'000;
/// Per-worker restart budget; exceeding it aborts the run.
constexpr int kMaxWorkerRestarts = 3;

MicrosT SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string WorkerLabel(uint32_t worker_id, const std::string& labels) {
  std::string out = "worker=\"" + std::to_string(worker_id) + "\"";
  if (!labels.empty()) out += "," + labels;
  return out;
}

}  // namespace

Supervisor::Supervisor(const DistOptions& options) : options_(options) {}

Supervisor::~Supervisor() {
#ifdef __linux__
  MutexLock lock(mutex_);
  for (auto& [id, proc] : workers_) {
    if (proc.pid > 0) {
      kill(static_cast<pid_t>(proc.pid), SIGKILL);
      waitpid(static_cast<pid_t>(proc.pid), nullptr, 0);
      proc.pid = 0;
    }
  }
#endif
  if (loop_ != nullptr) loop_->Stop();
}

Status Supervisor::Start() {
#ifndef __linux__
  return Status::Unimplemented("distributed runtime requires linux");
#else
  net::EventLoop::Callbacks callbacks;
  callbacks.on_frame = [this](net::EventLoop::ConnId id, net::Frame frame) {
    OnFrame(id, std::move(frame));
  };
  callbacks.on_close = [this](net::EventLoop::ConnId id, const Status&) {
    OnClose(id);
  };
  callbacks.on_tick = [this]() { OnTick(); };
  loop_ = std::make_unique<net::EventLoop>(
      std::move(callbacks), kHeartbeatIntervalMicros / 2);
  INSIGHT_ASSIGN_OR_RETURN(control_port_,
                           loop_->Listen(0, kControlListenerTag));
  INSIGHT_RETURN_NOT_OK(loop_->Start());
  MutexLock lock(mutex_);
  started_ = true;
  for (uint32_t id = 0; id < options_.num_workers; ++id) {
    WorkerProc& proc = workers_[id];
    proc.incarnation = 1;
    INSIGHT_RETURN_NOT_OK(SpawnLocked(id));
  }
  return Status::OK();
#endif
}

Status Supervisor::SpawnLocked(uint32_t worker_id) {
#ifndef __linux__
  return Status::Unimplemented("distributed runtime requires linux");
#else
  WorkerProc& proc = workers_[worker_id];
  std::vector<std::string> args;
  args.push_back("/proc/self/exe");
  for (const std::string& arg : options_.worker_args) args.push_back(arg);
  args.push_back("--insight-worker-id=" + std::to_string(worker_id));
  args.push_back("--insight-incarnation=" + std::to_string(proc.incarnation));
  args.push_back("--insight-control-port=" + std::to_string(control_port_));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    // Child: becomes the worker. fork-from-multithreaded is safe here
    // because nothing runs between fork and exec.
    execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  if (proc.conn != 0) {
    conn_worker_.erase(proc.conn);
    proc.conn = 0;
  }
  proc.pid = pid;
  proc.hello_received = false;
  proc.finished = false;
  proc.has_status = false;
  proc.data_port = 0;
  proc.spawned_micros = SteadyNowMicros();
  proc.last_heartbeat_micros = 0;
  return Status::OK();
#endif
}

void Supervisor::BroadcastPeerTableLocked() {
  PeerTable table;
  for (const auto& [id, proc] : workers_) {
    if (!proc.hello_received) continue;
    PeerEntry entry;
    entry.worker_id = id;
    entry.incarnation = proc.incarnation;
    entry.data_port = proc.data_port;
    table.peers.push_back(entry);
  }
  net::Frame frame;
  frame.type = net::FrameType::kPeerTable;
  EncodePeerTable(table, &frame.payload);
  for (const auto& [id, proc] : workers_) {
    if (proc.conn != 0) loop_->Send(proc.conn, frame);
  }
}

void Supervisor::SendShutdownLocked(net::EventLoop::ConnId conn, bool abort) {
  ShutdownRequest request;
  request.abort = abort;
  net::Frame frame;
  frame.type = net::FrameType::kShutdown;
  EncodeShutdownRequest(request, &frame.payload);
  loop_->Send(conn, frame);
}

void Supervisor::OnFrame(net::EventLoop::ConnId id, net::Frame frame) {
  const MicrosT now = SteadyNowMicros();
  switch (frame.type) {
    case net::FrameType::kHello: {
      WorkerHello hello;
      if (!DecodeWorkerHello(frame.payload, &hello).ok()) {
        loop_->Close(id);
        return;
      }
      MutexLock lock(mutex_);
      auto it = workers_.find(hello.worker_id);
      if (it == workers_.end() ||
          it->second.incarnation != hello.incarnation) {
        loop_->Close(id);  // unknown worker or stale incarnation
        return;
      }
      WorkerProc& proc = it->second;
      proc.conn = id;
      proc.data_port = hello.data_port;
      proc.hello_received = true;
      proc.last_heartbeat_micros = now;
      conn_worker_[id] = hello.worker_id;
      BroadcastPeerTableLocked();
      if (draining_) SendShutdownLocked(id, aborted_);
      return;
    }
    case net::FrameType::kStatus: {
      WorkerStatus status;
      if (!DecodeWorkerStatus(frame.payload, &status).ok()) return;
      MutexLock lock(mutex_);
      auto it = conn_worker_.find(id);
      if (it == conn_worker_.end()) return;
      WorkerProc& proc = workers_[it->second];
      if (status.incarnation != proc.incarnation) return;
      proc.last_status = status;
      proc.has_status = true;
      proc.last_heartbeat_micros = now;
      return;
    }
    case net::FrameType::kMetrics: {
      MetricsReport report;
      if (!DecodeMetricsReport(frame.payload, &report).ok()) return;
      MutexLock lock(mutex_);
      auto it = conn_worker_.find(id);
      if (it == conn_worker_.end()) return;
      WorkerProc& proc = workers_[it->second];
      if (report.incarnation != proc.incarnation) return;
      for (const auto& window : report.windows) windows_.push_back(window);
      proc.last_metrics = std::move(report);
      proc.has_metrics = true;
      proc.last_heartbeat_micros = now;
      return;
    }
    case net::FrameType::kFinished: {
      FinishedNote note;
      if (!DecodeFinishedNote(frame.payload, &note).ok()) return;
      MutexLock lock(mutex_);
      auto it = workers_.find(note.worker_id);
      if (it == workers_.end() ||
          it->second.incarnation != note.incarnation) {
        return;
      }
      it->second.finished = true;
      CheckDoneLocked();
      return;
    }
    default:
      return;
  }
}

void Supervisor::OnClose(net::EventLoop::ConnId id) {
  MutexLock lock(mutex_);
  auto it = conn_worker_.find(id);
  if (it == conn_worker_.end()) return;
  WorkerProc& proc = workers_[it->second];
  if (proc.conn == id) proc.conn = 0;
  conn_worker_.erase(it);
  // Process death is handled by the waitpid sweep; losing the connection
  // alone only stops heartbeats, which the timeout sweep notices.
}

void Supervisor::OnTick() {
#ifdef __linux__
  const MicrosT now = SteadyNowMicros();
  // Reap exited children and restart the ones that died unexpectedly.
  for (;;) {
    int status = 0;
    pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    MutexLock lock(mutex_);
    for (auto& [id, proc] : workers_) {
      if (proc.pid != pid) continue;
      proc.pid = 0;
      if (proc.finished || aborted_) {
        CheckDoneLocked();
      } else {
        ++proc.restarts;
        if (proc.restarts > kMaxWorkerRestarts) {
          AbortRunLocked("worker " + std::to_string(id) +
                         " exceeded restart budget");
        } else {
          ++restarts_total_;
          ++proc.incarnation;
          Status spawn_status = SpawnLocked(id);
          if (!spawn_status.ok()) AbortRunLocked(spawn_status.ToString());
        }
      }
      break;
    }
  }
  MutexLock lock(mutex_);
  if (done_) return;
  // Heartbeat timeouts: SIGKILL; the next sweep reaps and restarts.
  for (auto& [id, proc] : workers_) {
    if (proc.pid <= 0 || proc.finished) continue;
    MicrosT base = proc.last_heartbeat_micros > 0 ? proc.last_heartbeat_micros
                                                  : proc.spawned_micros;
    if (now - base > kHeartbeatTimeoutMicros) {
      kill(static_cast<pid_t>(proc.pid), SIGKILL);
      // Reset the clock so one hang triggers one kill, not one per tick.
      proc.last_heartbeat_micros = now;
    }
  }
  // Cluster quiescence -> drain broadcast.
  if (!draining_ && !aborted_) {
    if (now - last_quiet_check_micros_ >=
        2 * kHeartbeatIntervalMicros) {
      last_quiet_check_micros_ = now;
      quiet_sweeps_ = AllQuietLocked(now) ? quiet_sweeps_ + 1 : 0;
      if (quiet_sweeps_ >= 2) {
        draining_ = true;
        for (const auto& [id, proc] : workers_) {
          if (proc.conn != 0) SendShutdownLocked(proc.conn, false);
        }
      }
    }
  }
#endif
}

bool Supervisor::AllQuietLocked(MicrosT now) {
  for (const auto& [id, proc] : workers_) {
    if (!proc.hello_received || !proc.has_status || proc.pid <= 0) {
      return false;
    }
    if (proc.last_status.incarnation != proc.incarnation) return false;
    if (now - proc.last_heartbeat_micros > kHeartbeatTimeoutMicros) {
      return false;
    }
    const WorkerStatus& status = proc.last_status;
    if (!status.user_spouts_done || status.pending_trees != 0 ||
        status.in_flight > 0 || status.egress_unacked_frames != 0 ||
        status.ingress_queued != 0 || status.ingress_inflight != 0) {
      return false;
    }
  }
  return true;
}

void Supervisor::AbortRunLocked(const std::string& why) {
  if (aborted_) return;
  std::fprintf(stderr, "[supervisor] aborting run: %s\n", why.c_str());
  aborted_ = true;
  draining_ = true;
  for (const auto& [id, proc] : workers_) {
    if (proc.conn != 0) SendShutdownLocked(proc.conn, true);
  }
  done_cv_.NotifyAll();
}

void Supervisor::CheckDoneLocked() {
  for (const auto& [id, proc] : workers_) {
    if (!proc.finished || proc.pid != 0) return;
  }
  done_ = true;
  done_cv_.NotifyAll();
}

int Supervisor::WaitForCompletion(MicrosT timeout_micros) {
  const MicrosT deadline =
      timeout_micros > 0 ? SteadyNowMicros() + timeout_micros : 0;
  bool aborted;
  {
    MutexLock lock(mutex_);
    while (!done_ && !aborted_) {
      if (deadline > 0) {
        if (SteadyNowMicros() >= deadline) {
          AbortRunLocked("run timed out");
          break;
        }
        done_cv_.WaitFor(mutex_, std::chrono::milliseconds(100));
      } else {
        done_cv_.Wait(mutex_);
      }
    }
    aborted = aborted_;
  }
#ifdef __linux__
  if (aborted) {
    // Grace period for the abort broadcast, then force-kill survivors.
    const MicrosT grace_deadline = SteadyNowMicros() + 500'000;
    for (;;) {
      bool alive = false;
      {
        MutexLock lock(mutex_);
        for (const auto& [id, proc] : workers_) alive = alive || proc.pid > 0;
      }
      if (!alive || SteadyNowMicros() >= grace_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    MutexLock lock(mutex_);
    for (auto& [id, proc] : workers_) {
      if (proc.pid > 0) {
        kill(static_cast<pid_t>(proc.pid), SIGKILL);
        waitpid(static_cast<pid_t>(proc.pid), nullptr, 0);
        proc.pid = 0;
      }
    }
  }
#endif
  loop_->Stop();
  return aborted ? 1 : 0;
}

void Supervisor::KillWorker(uint32_t worker_id) {
#ifdef __linux__
  MutexLock lock(mutex_);
  auto it = workers_.find(worker_id);
  if (it == workers_.end() || it->second.pid <= 0) return;
  kill(static_cast<pid_t>(it->second.pid), SIGKILL);
#else
  (void)worker_id;
#endif
}

uint64_t Supervisor::worker_restarts() const {
  MutexLock lock(mutex_);
  return restarts_total_;
}

observability::MetricsSnapshot Supervisor::ClusterMetrics() const {
  MutexLock lock(mutex_);
  observability::MetricsSnapshot merged;
  for (const auto& [id, proc] : workers_) {
    if (!proc.has_metrics) continue;
    for (const observability::CounterFamily& family :
         proc.last_metrics.snapshot.counters) {
      observability::CounterFamily* target = nullptr;
      for (observability::CounterFamily& existing : merged.counters) {
        if (existing.name == family.name) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        merged.counters.push_back({family.name, family.help, {}});
        target = &merged.counters.back();
      }
      for (const observability::CounterSample& sample : family.samples) {
        target->samples.push_back(
            {WorkerLabel(id, sample.labels), sample.value});
      }
    }
    for (const observability::HistogramFamily& family :
         proc.last_metrics.snapshot.histograms) {
      observability::HistogramFamily* target = nullptr;
      for (observability::HistogramFamily& existing : merged.histograms) {
        if (existing.name == family.name) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        merged.histograms.push_back({family.name, family.help, {}});
        target = &merged.histograms.back();
      }
      for (const observability::HistogramSample& sample : family.samples) {
        target->samples.push_back(
            {WorkerLabel(id, sample.labels), sample.histogram, sample.sum});
      }
    }
  }
  return merged;
}

std::vector<dsps::MetricsRegistry::WindowReport> Supervisor::ClusterWindows()
    const {
  MutexLock lock(mutex_);
  return windows_;
}

}  // namespace dist
}  // namespace insight
