#ifndef INSIGHT_TRAFFIC_BOLTS_H_
#define INSIGHT_TRAFFIC_BOLTS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "dsps/topology.h"
#include "geo/bus_stops.h"
#include "geo/quadtree.h"
#include "storage/table_store.h"
#include "traffic/trace.h"

namespace insight {
namespace traffic {

// ---------------------------------------------------------------------------
// Tuple schemas of the Figure 8 topology, stage by stage.
// ---------------------------------------------------------------------------

/// Raw bus report fields emitted by the BusReader spout (Table 1).
dsps::Fields RawTraceFields();
/// + speed, actual_delay, hour, date_type (PreProcess bolt).
dsps::Fields PreProcessedFields();
/// + area_leaf and one area_layer<k> column per monitored quadtree layer
/// (Area Tracker bolt).
dsps::Fields AreaFields(const std::vector<int>& layers);
/// + bus_stop (BusStops Tracker bolt). This is the full enriched schema.
dsps::Fields EnrichedFields(const std::vector<int>& layers);
/// Detection output: rule, attribute, location, value, threshold, timestamp.
dsps::Fields DetectionFields();

/// Values for a raw-trace tuple.
std::vector<dsps::Value> TraceToRawValues(const BusTrace& trace);
/// Values for a fully enriched tuple (EnrichedFields({}) layout) — used to
/// replay pre-processed CSV directly into the Esper bolts.
std::vector<dsps::Value> TraceToEnrichedValues(const BusTrace& trace);

/// The CEP event type for enriched bus tuples ("bus") with one field per
/// EnrichedFields column. Registered into each Esper engine.
std::vector<cep::EventType::Field> BusEventFields(const std::vector<int>& layers);

/// Threshold stream event type name for an attribute ("threshold_delay"...).
std::string ThresholdEventTypeName(const std::string& attribute);
/// Fields of a threshold event: location, hour, day, value.
std::vector<cep::EventType::Field> ThresholdEventFields();

// ---------------------------------------------------------------------------
// Components
// ---------------------------------------------------------------------------

/// Emits bus traces from an in-memory dataset (the paper's spout reads the
/// stored CSV files; use LoadTracesCsv to produce the dataset). Traces are
/// striped across the spout's tasks. With `enriched` the spout replays
/// pre-processed traces with the full 15-field schema (skipping the
/// PreProcess/tracker bolts).
class BusReaderSpout : public dsps::Spout {
 public:
  explicit BusReaderSpout(std::shared_ptr<const std::vector<BusTrace>> traces,
                          bool enriched = false)
      : traces_(std::move(traces)), enriched_(enriched) {}

  void Open(const dsps::TaskContext& context) override;
  bool NextTuple(dsps::Collector* collector) override;

  /// Replaces the dataset and rewinds to its start: the next batch of a
  /// long-lived topology (dsps::LocalRuntime::Feed).
  void Feed(std::shared_ptr<const std::vector<BusTrace>> traces);

 private:
  std::shared_ptr<const std::vector<BusTrace>> traces_;
  bool enriched_;
  size_t first_ = 0;
  size_t next_ = 0;
  size_t stride_ = 1;
};

/// Parses a CSV stream of enriched trace rows.
Result<std::vector<BusTrace>> LoadTracesCsv(std::istream* in);

/// Emits synthetic enriched bus tuples (EnrichedFields({}) layout, the same
/// distributions as the bench suite's SyntheticBusEvent), cycling over
/// `num_locations` locations. Used by calibration probe topologies that need
/// a live tuple stream without a dataset — e.g. bench_fig11_allocation's
/// measured-latency runs, which fit the latency model from the monitor
/// windows such a probe produces. Tuples are striped across tasks.
class SyntheticBusSpout : public dsps::Spout {
 public:
  SyntheticBusSpout(uint64_t num_tuples, size_t num_locations,
                    uint64_t seed = 29)
      : num_tuples_(num_tuples), num_locations_(num_locations), seed_(seed) {}

  void Open(const dsps::TaskContext& context) override;
  bool NextTuple(dsps::Collector* collector) override;

 private:
  uint64_t num_tuples_;
  size_t num_locations_;
  uint64_t seed_;
  uint64_t next_ = 0;
  uint64_t stride_ = 1;
};

/// Adds vehicle speed, actual delay (delta vs the previous report of the
/// same vehicle), hour and date type. Subscribe with fields-grouping on
/// `vehicle` so one task sees all reports of a vehicle.
///
/// Snapshottable: the per-vehicle last-report map is the whole state, so a
/// restored task computes the same deltas a crash-free run would (a lost map
/// would instead swallow one report per vehicle re-seeding it).
class PreProcessBolt : public dsps::Bolt, public dsps::Snapshottable {
 public:
  explicit PreProcessBolt(bool weekend = false) : weekend_(weekend) {}
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

  /// Starts a new input stream: forgets every vehicle's last report, so the
  /// next report of each vehicle only seeds its state again.
  void NewStream() { vehicles_.clear(); }

  Status SnapshotState(std::string* out) const override;
  Status RestoreState(const std::string& bytes) override;

 private:
  struct VehicleState {
    geo::LatLon position;
    double delay = 0.0;
    MicrosT timestamp = 0;
  };
  bool weekend_;
  std::map<int, VehicleState> vehicles_;
};

/// Annotates each tuple with the quadtree region ids: the leaf plus each
/// configured layer. Each task holds an instance of the region quadtree and
/// queries it ("Each task of this bolt has an instance of the Region
/// Quadtree").
class AreaTrackerBolt : public dsps::Bolt {
 public:
  AreaTrackerBolt(std::shared_ptr<const geo::RegionQuadtree> quadtree,
                  std::vector<int> layers)
      : quadtree_(std::move(quadtree)), layers_(std::move(layers)) {}
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

 private:
  std::shared_ptr<const geo::RegionQuadtree> quadtree_;
  std::vector<int> layers_;
};

/// Annotates each tuple with its canonical bus stop id via the DENCLUE-built
/// index (the tool of Section 4.1.2).
class BusStopsTrackerBolt : public dsps::Bolt {
 public:
  explicit BusStopsTrackerBolt(std::shared_ptr<const geo::BusStopIndex> index)
      : index_(std::move(index)) {}
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

 private:
  std::shared_ptr<const geo::BusStopIndex> index_;
};

/// Routes each tuple to the Esper engine task(s) owning its spatial
/// location, per the partitioning schema of Section 4.2.1. The router is
/// produced by core::RulePartitioner; subscribe the Esper bolt with direct
/// grouping.
class SplitterBolt : public dsps::Bolt {
 public:
  using Router =
      std::function<void(const dsps::Tuple& tuple, std::vector<int>* tasks)>;
  explicit SplitterBolt(Router router) : router_(std::move(router)) {}
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

 private:
  Router router_;
  std::vector<int> targets_;
};

/// Configuration shared by every Esper bolt task: each task runs its own
/// cep::Engine with its own rule subset (Section 3.2: more tasks => more
/// concurrently running engines).
struct EsperBoltConfig {
  /// Quadtree layers annotated on tuples (defines the bus event type).
  std::vector<int> layers;
  /// Rules per task: (statement name, EPL text).
  std::vector<std::vector<std::pair<std::string, std::string>>> rules_per_task;
  /// Preload hook, called once per task after rules are installed —
  /// typically feeds the threshold stream (Section 4.3.1's "new Esper
  /// stream" strategy).
  std::function<void(cep::Engine* engine, int task_index)> preload;
  /// Optional per-tuple hook before the event is sent (the per-tuple DB join
  /// strategy plugs in here).
  std::function<void(cep::Engine* engine, int task_index,
                     const dsps::Tuple& tuple)>
      before_send;
};

/// Runs one Esper engine per task; converts tuples to `bus` events, executes
/// the rules and emits detections.
///
/// Snapshottable: forwards to cep::Engine::Snapshot/Restore. Prepare installs
/// the task's rules (and preloads the threshold stream) before the runtime
/// calls RestoreState, matching the engine's contract that a snapshot is
/// restored into an engine holding the same statements.
class EsperBolt : public dsps::Bolt, public dsps::Snapshottable {
 public:
  explicit EsperBolt(std::shared_ptr<const EsperBoltConfig> config)
      : config_(std::move(config)) {}

  void Prepare(const dsps::TaskContext& context) override;
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

  Status SnapshotState(std::string* out) const override;
  Status RestoreState(const std::string& bytes) override;

  /// Starts a new input stream: the engine drops its `bus` windows, their
  /// indexes and accumulators, and keeps its compiled statements and
  /// threshold windows.
  void NewStream() { engine_->ResetStream("bus"); }

  cep::Engine* engine() { return engine_.get(); }

 private:
  /// Emits a detection tuple per pending match and clears the buffers.
  void EmitPending(dsps::Collector* collector);

  std::shared_ptr<const EsperBoltConfig> config_;
  std::unique_ptr<cep::Engine> engine_;
  cep::EventTypePtr bus_type_;
  int task_index_ = 0;
  std::vector<cep::MatchResult> pending_matches_;
  /// Trigger timestamp per pending match (parallel to pending_matches_):
  /// the detection tuple's timestamp fallback when the rule does not SELECT
  /// a timestamp column.
  std::vector<MicrosT> pending_trigger_ts_;
};

/// Persists detections to the storage medium (the paper's MySQL server).
class EventsStorerBolt : public dsps::Bolt {
 public:
  static constexpr char kTableName[] = "detected_events";
  /// The store must outlive the topology run.
  explicit EventsStorerBolt(storage::TableStore* store) : store_(store) {}

  void Prepare(const dsps::TaskContext& context) override;
  void Execute(const dsps::Tuple& input, dsps::Collector* collector) override;

  /// Columns of the detected_events table.
  static std::vector<storage::Column> TableColumns();

 private:
  storage::TableStore* store_;
};

}  // namespace traffic
}  // namespace insight

#endif  // INSIGHT_TRAFFIC_BOLTS_H_
