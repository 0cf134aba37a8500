#ifndef INSIGHT_DSPS_XML_TOPOLOGY_H_
#define INSIGHT_DSPS_XML_TOPOLOGY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/xml.h"
#include "dsps/topology.h"

namespace insight {
namespace dsps {

/// Registry of component types instantiable from XML. The paper enhances
/// Storm with topology creation via XML so users avoid writing Java wiring
/// code (Section 3.2); applications register their spout/bolt types here and
/// the loader resolves `type=` attributes against it. Factories receive the
/// component's XML node so they can read <param key= value=/> children.
class ComponentRegistry {
 public:
  using SpoutMaker =
      std::function<Result<SpoutFactory>(const XmlNode& component)>;
  using BoltMaker = std::function<Result<BoltFactory>(const XmlNode& component)>;

  Status RegisterSpout(const std::string& type, SpoutMaker maker);
  Status RegisterBolt(const std::string& type, BoltMaker maker);

  Result<SpoutFactory> MakeSpout(const std::string& type,
                                 const XmlNode& node) const;
  Result<BoltFactory> MakeBolt(const std::string& type, const XmlNode& node) const;

 private:
  std::map<std::string, SpoutMaker> spouts_;
  std::map<std::string, BoltMaker> bolts_;
};

/// Value of <param key="..." value="..."/> under a component node.
Result<std::string> XmlParam(const XmlNode& component, const std::string& key);
std::string XmlParamOr(const XmlNode& component, const std::string& key,
                       const std::string& fallback);

/// A parsed user submission: the topology plus the Esper rules to install
/// ("Users in our framework complete an XML file that includes the
/// description of the submitted topology along with the Esper rules").
struct XmlTopology {
  Topology topology;
  /// (rule name, EPL text) in document order.
  std::vector<std::pair<std::string, std::string>> rules;
};

/// Parses a document of the form:
///
///   <topology name="traffic">
///     <spout name="busReader" type="BusReaderSpout" executors="2" tasks="2"
///            fields="timestamp,line,delay">
///       <param key="path" value="/data/traces.csv"/>
///     </spout>
///     <bolt name="esper" type="EsperBolt" executors="4" tasks="4" fields="...">
///       <subscribe source="busReader" grouping="shuffle"/>
///       <subscribe source="splitter" grouping="direct"/>
///       <subscribe source="area" grouping="fields" fields="location"/>
///     </bolt>
///     <rules>
///       <rule name="r1"><![CDATA[SELECT * FROM bus ...]]></rule>
///     </rules>
///   </topology>
///
/// The document declares the logical graph only; LocalRuntime chains its
/// shuffle links between bolts of equal parallelism (DESIGN.md "Operator
/// chaining"). The Figure-8 submission in examples/xml_topology.cpp chains
/// preProcess -> areaTracker -> busStops onto preProcess's executors.
Result<XmlTopology> LoadTopologyFromXml(const std::string& xml,
                                        const ComponentRegistry& registry);

}  // namespace dsps
}  // namespace insight

#endif  // INSIGHT_DSPS_XML_TOPOLOGY_H_
