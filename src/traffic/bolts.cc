#include "traffic/bolts.h"

#include "common/bytes.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace insight {
namespace traffic {

using cep::Value;
using cep::ValueType;
using dsps::Fields;
using dsps::Tuple;

namespace {
constexpr double kMicrosPerHour = 3600.0 * 1e6;

std::vector<std::string> RawNames() {
  return {"timestamp", "line",       "direction",     "lon",    "lat",
          "delay",     "congestion", "reported_stop", "vehicle"};
}

std::vector<std::string> PreProcessedNames() {
  auto names = RawNames();
  names.insert(names.end(), {"speed", "actual_delay", "hour", "date_type"});
  return names;
}

std::vector<std::string> AreaNames(const std::vector<int>& layers) {
  auto names = PreProcessedNames();
  names.push_back("area_leaf");
  for (int layer : layers) names.push_back("area_layer" + std::to_string(layer));
  return names;
}

std::vector<std::string> EnrichedNames(const std::vector<int>& layers) {
  auto names = AreaNames(layers);
  names.push_back("bus_stop");
  return names;
}

}  // namespace

Fields RawTraceFields() { return Fields(RawNames()); }
Fields PreProcessedFields() { return Fields(PreProcessedNames()); }
Fields AreaFields(const std::vector<int>& layers) {
  return Fields(AreaNames(layers));
}
Fields EnrichedFields(const std::vector<int>& layers) {
  return Fields(EnrichedNames(layers));
}
Fields DetectionFields() {
  return Fields(
      {"rule", "attribute", "location", "value", "threshold", "timestamp"});
}

std::vector<Value> TraceToRawValues(const BusTrace& trace) {
  return {Value(trace.timestamp),
          Value(trace.line_id),
          Value(trace.direction),
          Value(trace.position.lon),
          Value(trace.position.lat),
          Value(trace.delay_seconds),
          Value(trace.congestion),
          Value(trace.reported_stop_id),
          Value(trace.vehicle_id)};
}

std::vector<Value> TraceToEnrichedValues(const BusTrace& trace) {
  std::vector<Value> values = TraceToRawValues(trace);
  values.push_back(trace.speed_kmh);
  values.push_back(trace.actual_delay);
  values.push_back(static_cast<int64_t>(trace.hour));
  values.push_back(trace.date_type);
  values.push_back(trace.area_leaf);
  values.push_back(trace.bus_stop);
  return values;
}

std::vector<cep::EventType::Field> BusEventFields(const std::vector<int>& layers) {
  std::vector<cep::EventType::Field> fields = {
      {"timestamp", ValueType::kInt},    {"line", ValueType::kInt},
      {"direction", ValueType::kBool},   {"lon", ValueType::kDouble},
      {"lat", ValueType::kDouble},       {"delay", ValueType::kDouble},
      {"congestion", ValueType::kBool},  {"reported_stop", ValueType::kInt},
      {"vehicle", ValueType::kInt},      {"speed", ValueType::kDouble},
      {"actual_delay", ValueType::kDouble}, {"hour", ValueType::kInt},
      {"date_type", ValueType::kString}, {"area_leaf", ValueType::kInt},
  };
  for (int layer : layers) {
    fields.push_back({"area_layer" + std::to_string(layer), ValueType::kInt});
  }
  fields.push_back({"bus_stop", ValueType::kInt});
  return fields;
}

std::string ThresholdEventTypeName(const std::string& attribute) {
  return "threshold_" + attribute;
}

std::vector<cep::EventType::Field> ThresholdEventFields() {
  return {{"location", ValueType::kInt},
          {"hour", ValueType::kInt},
          {"day", ValueType::kString},
          {"value", ValueType::kDouble}};
}

// ---------------------------------------------------------------------------
// BusReaderSpout
// ---------------------------------------------------------------------------

void BusReaderSpout::Open(const dsps::TaskContext& context) {
  first_ = static_cast<size_t>(context.task_index);
  next_ = first_;
  stride_ = static_cast<size_t>(context.num_tasks);
}

void BusReaderSpout::Feed(std::shared_ptr<const std::vector<BusTrace>> traces) {
  traces_ = std::move(traces);
  next_ = first_;
}

bool BusReaderSpout::NextTuple(dsps::Collector* collector) {
  if (next_ >= traces_->size()) return false;
  const BusTrace& trace = (*traces_)[next_];
  collector->Emit(enriched_ ? TraceToEnrichedValues(trace)
                            : TraceToRawValues(trace));
  next_ += stride_;
  return next_ < traces_->size();
}

void SyntheticBusSpout::Open(const dsps::TaskContext& context) {
  next_ = static_cast<uint64_t>(context.task_index);
  stride_ = static_cast<uint64_t>(context.num_tasks);
}

bool SyntheticBusSpout::NextTuple(dsps::Collector* collector) {
  if (next_ >= num_tuples_) return false;
  // Deterministic per-index stream: the same tuple regardless of task count
  // or interleaving, so probe runs are reproducible.
  Rng rng(seed_ ^ (next_ * 0x9e3779b97f4a7c15ULL));
  uint64_t i = next_;
  BusTrace trace;
  trace.timestamp = static_cast<MicrosT>(i * 1000);
  trace.line_id = static_cast<int>(i % 67);
  trace.direction = (i & 1) == 0;
  trace.position = {53.35 + rng.Gaussian(0.0, 0.01),
                    -6.26 + rng.Gaussian(0.0, 0.01)};
  trace.delay_seconds = rng.Gaussian(90.0, 40.0);
  trace.congestion = rng.Bernoulli(0.2);
  trace.reported_stop_id = -1;
  trace.vehicle_id = static_cast<int>(i % 911);
  trace.speed_kmh = rng.Gaussian(22.0, 6.0);
  trace.actual_delay = rng.Gaussian(0.0, 5.0);
  trace.hour = static_cast<int>((i / 500) % 24);
  trace.date_type = "weekday";
  trace.area_leaf = static_cast<int64_t>(i % num_locations_);
  trace.bus_stop = trace.area_leaf;
  collector->Emit(TraceToEnrichedValues(trace));
  next_ += stride_;
  return next_ < num_tuples_;
}

Result<std::vector<BusTrace>> LoadTracesCsv(std::istream* in) {
  std::vector<BusTrace> traces;
  CsvReader reader(in);
  std::vector<std::string> row;
  while (reader.Next(&row)) {
    INSIGHT_ASSIGN_OR_RETURN(BusTrace trace, BusTrace::FromCsvRow(row));
    traces.push_back(std::move(trace));
  }
  INSIGHT_RETURN_NOT_OK(reader.last_status());
  return traces;
}

// ---------------------------------------------------------------------------
// PreProcessBolt
// ---------------------------------------------------------------------------

void PreProcessBolt::Execute(const Tuple& input, dsps::Collector* collector) {
  int vehicle = static_cast<int>(input.Get(8).AsInt());
  MicrosT timestamp = input.Get(0).AsInt();
  geo::LatLon position{input.Get(4).AsDouble(), input.Get(3).AsDouble()};
  double delay = input.Get(5).AsDouble();

  // Speed and actual delay are deltas against the vehicle's previous report;
  // the first report of a vehicle has neither, so it only seeds the state
  // (emitting a zero speed would trip the low-speed rules spuriously).
  auto it = vehicles_.find(vehicle);
  if (it == vehicles_.end() || timestamp <= it->second.timestamp) {
    vehicles_[vehicle] = {position, delay, timestamp};
    return;
  }
  double meters = geo::HaversineMeters(it->second.position, position);
  double hours =
      static_cast<double>(timestamp - it->second.timestamp) / kMicrosPerHour;
  double speed = hours > 0 ? meters / 1000.0 / hours : 0.0;
  double actual_delay = delay - it->second.delay;
  vehicles_[vehicle] = {position, delay, timestamp};

  int hour = static_cast<int>(static_cast<double>(timestamp) / kMicrosPerHour) % 24;
  std::vector<Value> out = input.values();
  out.push_back(speed);
  out.push_back(actual_delay);
  out.push_back(hour);
  out.push_back(std::string(weekend_ ? "weekend" : "weekday"));
  collector->Emit(std::move(out));
}

Status PreProcessBolt::SnapshotState(std::string* out) const {
  out->clear();
  ByteWriter writer(out);
  writer.PutU8(1);  // format version
  writer.PutU32(static_cast<uint32_t>(vehicles_.size()));
  for (const auto& [vehicle, state] : vehicles_) {
    writer.PutI64(vehicle);
    writer.PutDouble(state.position.lat);
    writer.PutDouble(state.position.lon);
    writer.PutDouble(state.delay);
    writer.PutI64(state.timestamp);
  }
  return Status::OK();
}

Status PreProcessBolt::RestoreState(const std::string& bytes) {
  vehicles_.clear();
  auto fail = [this](const char* why) {
    vehicles_.clear();  // clean state on any decode error
    return Status::ParseError(std::string("PreProcessBolt snapshot: ") + why);
  };
  ByteReader reader(bytes);
  uint8_t version = 0;
  if (!reader.GetU8(&version)) return fail("truncated header");
  if (version != 1) return fail("unsupported version");
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return fail("truncated count");
  for (uint32_t i = 0; i < count; ++i) {
    int64_t vehicle = 0;
    VehicleState state;
    if (!reader.GetI64(&vehicle) || !reader.GetDouble(&state.position.lat) ||
        !reader.GetDouble(&state.position.lon) ||
        !reader.GetDouble(&state.delay) || !reader.GetI64(&state.timestamp)) {
      return fail("truncated vehicle entry");
    }
    vehicles_[static_cast<int>(vehicle)] = state;
  }
  if (!reader.exhausted()) return fail("trailing bytes");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AreaTrackerBolt
// ---------------------------------------------------------------------------

void AreaTrackerBolt::Execute(const Tuple& input, dsps::Collector* collector) {
  geo::LatLon position{input.Get(4).AsDouble(), input.Get(3).AsDouble()};
  std::vector<Value> out = input.values();
  out.push_back(static_cast<int64_t>(quadtree_->LocateLeaf(position)));
  for (int layer : layers_) {
    out.push_back(static_cast<int64_t>(quadtree_->Locate(position, layer)));
  }
  collector->Emit(std::move(out));
}

// ---------------------------------------------------------------------------
// BusStopsTrackerBolt
// ---------------------------------------------------------------------------

void BusStopsTrackerBolt::Execute(const Tuple& input,
                                  dsps::Collector* collector) {
  geo::LatLon position{input.Get(4).AsDouble(), input.Get(3).AsDouble()};
  int line = static_cast<int>(input.Get(1).AsInt());
  bool direction = input.Get(2).AsBool();
  std::vector<Value> out = input.values();
  out.push_back(index_->Locate(position, line, direction));
  collector->Emit(std::move(out));
}

// ---------------------------------------------------------------------------
// SplitterBolt
// ---------------------------------------------------------------------------

void SplitterBolt::Execute(const Tuple& input, dsps::Collector* collector) {
  targets_.clear();
  router_(input, &targets_);
  for (int task : targets_) {
    collector->EmitDirect(task, input.values());
  }
}

// ---------------------------------------------------------------------------
// EsperBolt
// ---------------------------------------------------------------------------

void EsperBolt::Prepare(const dsps::TaskContext& context) {
  task_index_ = context.task_index;
  engine_ = std::make_unique<cep::Engine>();
  INSIGHT_CHECK(engine_->RegisterEventType("bus", BusEventFields(config_->layers))
                    .ok());
  for (const char* attr :
       {kAttrDelay, kAttrActualDelay, kAttrSpeed, kAttrCongestion}) {
    // One threshold stream per attribute and per location namespace
    // (quadtree regions vs canonical bus stops).
    for (const char* suffix : {"", "_stop"}) {
      INSIGHT_CHECK(
          engine_
              ->RegisterEventType(
                  ThresholdEventTypeName(std::string(attr) + suffix),
                  ThresholdEventFields())
              .ok());
    }
  }
  bus_type_ = *engine_->GetEventType("bus");

  if (static_cast<size_t>(task_index_) < config_->rules_per_task.size()) {
    for (const auto& [name, epl] :
         config_->rules_per_task[static_cast<size_t>(task_index_)]) {
      auto stmt = engine_->AddStatement(epl, name);
      INSIGHT_CHECK(stmt.ok()) << "rule '" << name
                               << "' failed to compile: " << stmt.status().ToString()
                               << "\nEPL: " << epl;
      (*stmt)->AddListener([this, rule_name = name](const cep::MatchResult& m) {
        cep::MatchResult named = m;
        named.statement_name = rule_name;
        pending_matches_.push_back(std::move(named));
        // Captured at delivery time, when the engine knows which event
        // fired this match.
        pending_trigger_ts_.push_back(engine_->current_trigger_timestamp());
      });
    }
  }
  if (config_->preload) config_->preload(engine_.get(), task_index_);
}

void EsperBolt::Execute(const Tuple& input, dsps::Collector* collector) {
  if (config_->before_send) {
    config_->before_send(engine_.get(), task_index_, input);
  }
  // The tuple's fields align with the bus event type by construction. Build
  // the event from pooled storage so steady-state ingestion stays off the
  // heap (the buffer's recycled capacity absorbs the value copies).
  cep::EventPool& pool = engine_->event_pool();
  std::vector<cep::Value> buffer = pool.TakeBuffer();
  const std::vector<Value>& values = input.values();
  buffer.assign(values.begin(), values.end());
  engine_->SendEvent(
      pool.Create(bus_type_, std::move(buffer), input.Get(0).AsInt()));
  EmitPending(collector);
}

void EsperBolt::EmitPending(dsps::Collector* collector) {
  for (size_t k = 0; k < pending_matches_.size(); ++k) {
    cep::MatchResult& match = pending_matches_[k];
    // Detection tuple: rule, attribute, location, value, threshold, timestamp.
    auto get_or = [&](const std::string& column, Value fallback) {
      auto v = match.Get(column);
      return v.ok() ? *v : fallback;
    };
    collector->Emit({Value(match.statement_name),
                     get_or("attribute", Value(std::string())),
                     get_or("location", Value(int64_t{-1})),
                     get_or("value", Value(0.0)),
                     get_or("threshold", Value(0.0)),
                     get_or("timestamp", Value(pending_trigger_ts_[k]))});
  }
  pending_matches_.clear();
  pending_trigger_ts_.clear();
}

Status EsperBolt::SnapshotState(std::string* out) const {
  // Listener-buffered matches never span executions (Execute drains them),
  // so the engine's retained windows and counters are the whole state.
  return engine_->Snapshot(out);
}

Status EsperBolt::RestoreState(const std::string& bytes) {
  // Prepare already installed this task's rules and preloaded the threshold
  // stream; Restore refills the statement windows on top. On error the
  // engine resets every statement to clean state, which matches the
  // Snapshottable contract.
  return engine_->Restore(bytes);
}

// ---------------------------------------------------------------------------
// EventsStorerBolt
// ---------------------------------------------------------------------------

std::vector<storage::Column> EventsStorerBolt::TableColumns() {
  return {{"rule", ValueType::kString},    {"attribute", ValueType::kString},
          {"location", ValueType::kInt},   {"value", ValueType::kDouble},
          {"threshold", ValueType::kDouble}, {"timestamp", ValueType::kInt}};
}

void EventsStorerBolt::Prepare(const dsps::TaskContext& /*context*/) {
  if (!store_->HasTable(kTableName)) {
    // Racing tasks may both attempt creation; AlreadyExists is fine.
    (void)store_->CreateTable(kTableName, TableColumns());
  }
}

void EventsStorerBolt::Execute(const Tuple& input,
                               dsps::Collector* /*collector*/) {
  storage::RowValues row(input.values().begin(), input.values().end());
  INSIGHT_CHECK(store_->Insert(kTableName, std::move(row)).ok());
}

}  // namespace traffic
}  // namespace insight
