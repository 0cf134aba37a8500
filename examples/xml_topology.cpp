// XML topology submission: Section 3.2's user workflow. "Users in our
// framework complete an XML file that includes the description of the
// submitted topology along with the Esper rules they want to apply" —
// this example registers the component types, loads such a file, installs
// the embedded rules on the Esper bolts and runs the topology.
//
//   ./xml_topology

#include <cstdio>

#include <memory>

#include "common/strings.h"
#include "core/retrieval.h"
#include "core/system.h"
#include "dsps/local_runtime.h"
#include "dsps/xml_topology.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

using namespace insight;

namespace {

constexpr char kSubmission[] = R"(
<topology name="traffic-monitoring">
  <!-- Figure 8, trimmed: reader -> preprocess -> area tracker -> splitter
       -> esper -> storer is wired below; this file declares the components
       and the rules. preProcess, areaTracker and busStops have the same
       executor count and are linked by shuffles, so the runtime chains the
       last two into preProcess's executors: 2 threads, not 5. -->
  <spout name="busReader" type="BusReaderSpout" executors="1"
         fields="timestamp,line,direction,lon,lat,delay,congestion,reported_stop,vehicle"/>
  <bolt name="preProcess" type="PreProcessBolt" executors="2"
        fields="timestamp,line,direction,lon,lat,delay,congestion,reported_stop,vehicle,speed,actual_delay,hour,date_type">
    <subscribe source="busReader" grouping="fields" fields="vehicle"/>
    <param key="weekend" value="false"/>
  </bolt>
  <bolt name="areaTracker" type="AreaTrackerBolt" executors="2"
        fields="timestamp,line,direction,lon,lat,delay,congestion,reported_stop,vehicle,speed,actual_delay,hour,date_type,area_leaf">
    <subscribe source="preProcess" grouping="shuffle"/>
  </bolt>
  <bolt name="busStops" type="BusStopsTrackerBolt" executors="2"
        fields="timestamp,line,direction,lon,lat,delay,congestion,reported_stop,vehicle,speed,actual_delay,hour,date_type,area_leaf,bus_stop">
    <subscribe source="areaTracker" grouping="shuffle"/>
  </bolt>
  <bolt name="esper" type="EsperBolt" executors="2" tasks="2"
        fields="rule,attribute,location,value,threshold,timestamp">
    <subscribe source="busStops" grouping="fields" fields="area_leaf"/>
  </bolt>
  <bolt name="eventsStorer" type="EventsStorerBolt" executors="1" fields="">
    <subscribe source="esper" grouping="global"/>
  </bolt>
  <rules>
    <rule name="high-delay"><![CDATA[
      @Trigger(bus)
      SELECT bd.area_leaf AS location, avg(bd2.delay) AS value,
             150.0 AS threshold, 'delay' AS attribute,
             bd.timestamp AS timestamp
      FROM bus.std:lastevent() as bd,
           bus.std:groupwin(area_leaf).win:length(5) as bd2
      WHERE bd.area_leaf = bd2.area_leaf
      GROUP BY bd2.area_leaf
      HAVING avg(bd2.delay) > 150.0
    ]]></rule>
  </rules>
</topology>)";

}  // namespace

int main() {
  // Substrate the component factories capture.
  traffic::TraceGenerator::Options options;
  options.num_buses = 80;
  options.num_lines = 10;
  options.start_hour = 8;
  options.end_hour = 10;
  options.incidents_per_hour = 4.0;
  auto quadtree = std::make_shared<geo::RegionQuadtree>(
      geo::BuildDublinQuadtree(options.seed, 500));
  auto stops = std::make_shared<geo::BusStopIndex>();
  {
    traffic::TraceGenerator sampler(options);
    stops->Build(sampler.CollectStopReports(800));
  }
  traffic::TraceGenerator generator(options);
  auto traces = std::make_shared<const std::vector<traffic::BusTrace>>(
      generator.GenerateAll(15000));

  // Rules parsed from the XML land here; each Esper task installs them.
  auto esper_config = std::make_shared<traffic::EsperBoltConfig>();
  auto store = std::make_shared<storage::TableStore>();

  dsps::ComponentRegistry registry;
  (void)registry.RegisterSpout(
      "BusReaderSpout",
      [traces](const XmlNode&) -> Result<dsps::SpoutFactory> {
        return dsps::SpoutFactory(
            [traces] { return std::make_unique<traffic::BusReaderSpout>(traces); });
      });
  (void)registry.RegisterBolt(
      "PreProcessBolt", [](const XmlNode& node) -> Result<dsps::BoltFactory> {
        INSIGHT_ASSIGN_OR_RETURN(bool weekend,
                                 ParseBool(dsps::XmlParamOr(node, "weekend",
                                                            "false")));
        return dsps::BoltFactory([weekend] {
          return std::make_unique<traffic::PreProcessBolt>(weekend);
        });
      });
  (void)registry.RegisterBolt(
      "AreaTrackerBolt",
      [quadtree](const XmlNode&) -> Result<dsps::BoltFactory> {
        return dsps::BoltFactory([quadtree] {
          return std::make_unique<traffic::AreaTrackerBolt>(quadtree,
                                                            std::vector<int>{});
        });
      });
  (void)registry.RegisterBolt(
      "BusStopsTrackerBolt",
      [stops](const XmlNode&) -> Result<dsps::BoltFactory> {
        return dsps::BoltFactory([stops] {
          return std::make_unique<traffic::BusStopsTrackerBolt>(stops);
        });
      });
  (void)registry.RegisterBolt(
      "EsperBolt",
      [esper_config](const XmlNode&) -> Result<dsps::BoltFactory> {
        return dsps::BoltFactory([esper_config] {
          return std::make_unique<traffic::EsperBolt>(esper_config);
        });
      });
  (void)registry.RegisterBolt(
      "EventsStorerBolt",
      [store](const XmlNode&) -> Result<dsps::BoltFactory> {
        return dsps::BoltFactory([store] {
          return std::make_unique<traffic::EventsStorerBolt>(store.get());
        });
      });

  auto loaded = dsps::LoadTopologyFromXml(kSubmission, registry);
  if (!loaded.ok()) {
    std::fprintf(stderr, "xml load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded topology with %zu components and %zu rules\n",
              loaded->topology.components().size(), loaded->rules.size());

  // Install the XML rules on every Esper task.
  const dsps::ComponentDef* esper = loaded->topology.Find("esper");
  esper_config->rules_per_task.assign(
      static_cast<size_t>(esper->num_tasks), loaded->rules);

  dsps::LocalRuntime runtime(std::move(loaded->topology), {});
  if (!runtime.Start().ok()) return 1;
  runtime.AwaitCompletion();

  auto esper_totals = runtime.metrics()->Totals("esper");
  auto detections = store->RowCount(traffic::EventsStorerBolt::kTableName);
  std::printf("esper bolt processed %llu tuples (avg %.1f us); %zu detections "
              "stored\n",
              static_cast<unsigned long long>(esper_totals.executed),
              esper_totals.avg_latency_micros,
              detections.ok() ? *detections : 0);
  return 0;
}
