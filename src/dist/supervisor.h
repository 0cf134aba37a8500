#ifndef INSIGHT_DIST_SUPERVISOR_H_
#define INSIGHT_DIST_SUPERVISOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/options.h"
#include "dist/proto.h"
#include "net/event_loop.h"
#include "observability/export.h"

namespace insight {
namespace dist {

/// Parent process of a distributed run: spawns worker processes by
/// re-executing this binary (`/proc/self/exe`) with `--insight-*` role
/// flags, serves the control plane (registration, peer-table broadcast,
/// heartbeats, metrics collection), restarts workers that die or stop
/// heartbeating (within a restart budget), and initiates the drain once the
/// cluster is quiescent for two consecutive sweeps.
class Supervisor {
 public:
  explicit Supervisor(const DistOptions& options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Binds the control listener and spawns `num_workers` workers.
  Status Start();

  /// Blocks until the run completes (all workers drained and exited) or
  /// aborts (restart budget exhausted / `timeout_micros` elapsed, 0 = no
  /// timeout). Returns the run's exit code: 0 = success.
  int WaitForCompletion(MicrosT timeout_micros = 0);

  /// Chaos hook: SIGKILLs the worker's current process. The supervision
  /// sweep restarts it with the next incarnation.
  void KillWorker(uint32_t worker_id);

  /// Workers restarted so far (not counting initial spawns).
  uint64_t worker_restarts() const;

  /// Latest metrics snapshot of every worker, merged under a `worker="N"`
  /// label so one exporter shows the whole cluster.
  observability::MetricsSnapshot ClusterMetrics() const;

  /// Window reports collected from every worker, in arrival order.
  std::vector<dsps::MetricsRegistry::WindowReport> ClusterWindows() const;

 private:
  struct WorkerProc {
    int64_t pid = 0;  // 0 = not running (reaped)
    uint64_t incarnation = 0;
    int restarts = 0;
    net::EventLoop::ConnId conn = 0;  // control connection, 0 = none
    uint16_t data_port = 0;
    bool hello_received = false;
    bool finished = false;
    MicrosT last_heartbeat_micros = 0;
    MicrosT spawned_micros = 0;
    WorkerStatus last_status;
    bool has_status = false;
    MetricsReport last_metrics;
    bool has_metrics = false;
  };

  Status SpawnLocked(uint32_t worker_id) REQUIRES(mutex_);
  void BroadcastPeerTableLocked() REQUIRES(mutex_);
  void SendShutdownLocked(net::EventLoop::ConnId conn, bool abort)
      REQUIRES(mutex_);
  void OnFrame(net::EventLoop::ConnId id, net::Frame frame);
  void OnClose(net::EventLoop::ConnId id);
  void OnTick();
  bool AllQuietLocked(MicrosT now) REQUIRES(mutex_);
  void AbortRunLocked(const std::string& why) REQUIRES(mutex_);
  void CheckDoneLocked() REQUIRES(mutex_);

  const DistOptions options_;
  std::unique_ptr<net::EventLoop> loop_;
  uint16_t control_port_ = 0;

  mutable Mutex mutex_{TMS_LOCK_RANK(10)};
  CondVar done_cv_;
  std::map<uint32_t, WorkerProc> workers_ GUARDED_BY(mutex_);
  std::map<net::EventLoop::ConnId, uint32_t> conn_worker_ GUARDED_BY(mutex_);
  std::vector<dsps::MetricsRegistry::WindowReport> windows_
      GUARDED_BY(mutex_);
  uint64_t restarts_total_ GUARDED_BY(mutex_) = 0;
  MicrosT last_quiet_check_micros_ GUARDED_BY(mutex_) = 0;
  int quiet_sweeps_ GUARDED_BY(mutex_) = 0;
  bool draining_ GUARDED_BY(mutex_) = false;
  bool aborted_ GUARDED_BY(mutex_) = false;
  bool done_ GUARDED_BY(mutex_) = false;
  bool started_ GUARDED_BY(mutex_) = false;
};

}  // namespace dist
}  // namespace insight

#endif  // INSIGHT_DIST_SUPERVISOR_H_
