#include "core/rule_template.h"

#include "common/strings.h"

namespace insight {
namespace core {

Result<std::string> RuleTemplate::ToEpl(double static_threshold) const {
  if (attributes.empty()) {
    return Status::InvalidArgument("rule '" + name + "' has no attributes");
  }
  if (window_length == 0) {
    return Status::InvalidArgument("rule '" + name + "' has window length 0");
  }
  if (location_field.empty()) {
    return Status::InvalidArgument("rule '" + name + "' has no location field");
  }
  const bool use_stream = static_threshold < 0.0;
  const std::string& loc = location_field;
  const std::string& primary = attributes[0].name;

  std::string epl = "@Trigger(bus)\n";
  epl += "SELECT bd." + loc + " AS location, ";
  epl += "avg(bd2." + primary + ") AS value, ";
  if (use_stream) {
    epl += "avg(thr_" + primary + ".value) AS threshold, ";
  } else {
    epl += StrFormat("%.6f AS threshold, ", static_threshold);
  }
  epl += "'" + primary + "' AS attribute, bd.timestamp AS timestamp\n";

  epl += "FROM bus.std:lastevent() as bd,\n";
  epl += StrFormat("     bus.std:groupwin(%s).win:length(%zu) as bd2",
                   loc.c_str(), window_length);
  if (use_stream) {
    // std:unique keeps the latest threshold per (location, hour, day), so a
    // batch-layer refresh replaces stale thresholds in place (Section 4.1.3).
    for (const RuleAttribute& attr : attributes) {
      epl += ",\n     threshold_" + AttributeKey(attr.name) +
             ".std:unique(location, hour, day) as thr_" + attr.name;
    }
  }
  epl += "\n";

  epl += "WHERE bd." + loc + " = bd2." + loc;
  if (use_stream) {
    for (const RuleAttribute& attr : attributes) {
      const std::string thr = "thr_" + attr.name;
      epl += " and bd.hour = " + thr + ".hour";
      epl += " and bd.date_type = " + thr + ".day";
      epl += " and bd." + loc + " = " + thr + ".location";
    }
  }
  epl += "\nGROUP BY bd2." + loc + "\nHAVING ";
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (i > 0) epl += " and ";
    const RuleAttribute& attr = attributes[i];
    const char* cmp = attr.below ? "<" : ">";
    epl += "avg(bd2." + attr.name + ") " + cmp + " ";
    if (use_stream) {
      epl += "avg(thr_" + attr.name + ".value)";
    } else {
      epl += StrFormat("%.6f", static_threshold);
    }
  }
  return epl;
}

model::RuleCharacteristics RuleTemplate::Characteristics(
    size_t num_thresholds) const {
  model::RuleCharacteristics characteristics;
  characteristics.window_length = static_cast<double>(window_length);
  characteristics.num_thresholds =
      static_cast<double>(num_thresholds * attributes.size());
  characteristics.weight = weight;
  return characteristics;
}

RuleTemplate MakeRule(const std::string& name, const std::string& attribute,
                      const std::string& location_field, size_t window_length,
                      int quadtree_layer) {
  RuleTemplate rule;
  rule.name = name;
  rule.attributes = {{attribute, attribute == "speed"}};
  rule.location_field = location_field;
  rule.window_length = window_length;
  rule.quadtree_layer = quadtree_layer;
  return rule;
}

std::vector<RuleTemplate> Table6Rules(size_t window_length) {
  auto w = std::to_string(window_length);
  std::vector<RuleTemplate> rules;
  for (const std::string& loc : {std::string("bus_stop"), std::string("area_leaf")}) {
    const std::string suffix = "_" + loc + "_w" + w;
    rules.push_back(MakeRule("delay" + suffix, "delay", loc, window_length));
    rules.push_back(
        MakeRule("actual_delay" + suffix, "actual_delay", loc, window_length));
    rules.push_back(MakeRule("speed" + suffix, "speed", loc, window_length));

    RuleTemplate delay_congestion;
    delay_congestion.name = "delay_congestion" + suffix;
    delay_congestion.attributes = {{"delay", false}, {"congestion", false}};
    delay_congestion.location_field = loc;
    delay_congestion.window_length = window_length;
    rules.push_back(delay_congestion);

    RuleTemplate all;
    all.name = "all" + suffix;
    all.attributes = {{"delay", false},
                      {"actual_delay", false},
                      {"speed", true},
                      {"congestion", false}};
    all.location_field = loc;
    all.window_length = window_length;
    rules.push_back(all);
  }
  return rules;
}

}  // namespace core
}  // namespace insight
