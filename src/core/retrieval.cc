#include "core/retrieval.h"

#include <map>
#include <set>

#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "traffic/bolts.h"

namespace insight {
namespace core {

const char* ThresholdRetrievalToString(ThresholdRetrieval strategy) {
  switch (strategy) {
    case ThresholdRetrieval::kStatic:
      return "static (optimal)";
    case ThresholdRetrieval::kJoinWithDatabase:
      return "join with SQL";
    case ThresholdRetrieval::kMultipleRules:
      return "multiple rules";
    case ThresholdRetrieval::kThresholdStream:
      return "threshold stream";
  }
  return "?";
}

Status SendThresholdEvent(cep::Engine* engine, const std::string& attribute_key,
                          const storage::ThresholdRow& row) {
  INSIGHT_ASSIGN_OR_RETURN(
      auto type,
      engine->GetEventType(traffic::ThresholdEventTypeName(attribute_key)));
  cep::EventBuilder builder(type);
  builder.Set("location", row.location)
      .Set("hour", row.hour)
      .Set("day", row.date_type)
      .Set("value", row.threshold);
  engine->SendEvent(builder.Build());
  return Status::OK();
}

std::map<std::string, double> ThresholdKeys(const std::vector<RuleTemplate>& rules,
                                            double s) {
  std::map<std::string, double> out;
  for (const RuleTemplate& rule : rules) {
    for (const RuleAttribute& attr : rule.attributes) {
      out[rule.AttributeKey(attr.name)] = attr.below ? -s : s;
    }
  }
  return out;
}

namespace {

/// EPL for one concrete (location, hour, day) instance of a rule — the
/// "Create Multiple Rules" strategy.
std::string ConcreteRuleEpl(const RuleTemplate& rule,
                            const storage::ThresholdRow& row, double threshold) {
  const std::string& loc = rule.location_field;
  const std::string& primary = rule.attributes[0].name;
  std::string epl = "@Trigger(bus)\n";
  epl += "SELECT bd." + loc + " AS location, avg(bd2." + primary +
         ") AS value, ";
  epl += StrFormat("%.6f AS threshold, ", threshold);
  epl += "'" + primary + "' AS attribute, bd.timestamp AS timestamp\n";
  epl += "FROM bus.std:lastevent() as bd,\n";
  epl += StrFormat("     bus.std:groupwin(%s).win:length(%zu) as bd2\n",
                   loc.c_str(), rule.window_length);
  epl += StrFormat("WHERE bd.%s = %lld and bd.hour = %lld and bd.date_type = '%s'",
                   loc.c_str(), static_cast<long long>(row.location),
                   static_cast<long long>(row.hour), row.date_type.c_str());
  epl += " and bd." + loc + " = bd2." + loc;
  epl += "\nGROUP BY bd2." + loc + "\nHAVING ";
  const char* cmp = rule.attributes[0].below ? "<" : ">";
  epl += "avg(bd2." + primary + ") " + std::string(cmp) + " " +
         StrFormat("%.6f", threshold);
  return epl;
}

}  // namespace

Result<RetrievalSetup> BuildRetrieval(ThresholdRetrieval strategy,
                                      const std::vector<RuleTemplate>& rules,
                                      const storage::TableStore* store,
                                      const RetrievalOptions& options) {
  if (rules.empty()) {
    return Status::InvalidArgument("at least one rule required");
  }
  RetrievalSetup setup;

  switch (strategy) {
    case ThresholdRetrieval::kStatic: {
      for (const RuleTemplate& rule : rules) {
        INSIGHT_ASSIGN_OR_RETURN(std::string epl,
                                 rule.ToEpl(options.static_threshold));
        setup.rules.emplace_back(rule.name, std::move(epl));
      }
      return setup;
    }

    case ThresholdRetrieval::kThresholdStream: {
      for (const RuleTemplate& rule : rules) {
        INSIGHT_ASSIGN_OR_RETURN(std::string epl, rule.ToEpl());
        setup.rules.emplace_back(rule.name, std::move(epl));
      }
      // One bulk query per attribute key at engine start-up.
      auto keys = ThresholdKeys(rules, options.s);
      setup.preload = [store, keys](cep::Engine* engine, int /*task*/) {
        for (const auto& [key, signed_s] : keys) {
          auto thresholds = storage::QueryThresholds(*store, key, signed_s);
          if (!thresholds.ok()) continue;  // table may not exist yet
          for (const storage::ThresholdRow& row : *thresholds) {
            (void)SendThresholdEvent(engine, key, row);
          }
        }
      };
      setup.preload_db_cost_micros =
          static_cast<int64_t>(keys.size()) * store->per_query_cost_micros();
      return setup;
    }

    case ThresholdRetrieval::kMultipleRules: {
      // Fetch all thresholds up-front; emit one concrete rule per
      // (rule, threshold row). Multi-attribute rules degrade to their
      // primary attribute under this strategy (the paper evaluates it on
      // single-attribute rules).
      for (const RuleTemplate& rule : rules) {
        std::string key = rule.AttributeKey(rule.attributes[0].name);
        double s = rule.attributes[0].below ? -options.s : options.s;
        INSIGHT_ASSIGN_OR_RETURN(auto thresholds,
                                 storage::QueryThresholds(*store, key, s));
        size_t instance = 0;
        for (const storage::ThresholdRow& row : thresholds) {
          setup.rules.emplace_back(
              rule.name + "#" + std::to_string(instance++),
              ConcreteRuleEpl(rule, row, row.threshold));
        }
      }
      setup.preload_db_cost_micros =
          static_cast<int64_t>(ThresholdKeys(rules, options.s).size()) *
          store->per_query_cost_micros();
      return setup;
    }

    case ThresholdRetrieval::kJoinWithDatabase: {
      for (const RuleTemplate& rule : rules) {
        INSIGHT_ASSIGN_OR_RETURN(std::string epl, rule.ToEpl());
        setup.rules.emplace_back(rule.name, std::move(epl));
      }
      // Per-tuple point query; the fetched row feeds the rule's threshold
      // stream (first time a key is seen per engine) so the join semantics
      // match the stream strategy while paying a query per tuple.
      struct JoinState {
        Mutex mutex{TMS_LOCK_RANK(55)};
        std::map<int, std::set<std::string>> sent_keys_per_task
            GUARDED_BY(mutex);
      };
      auto state = std::make_shared<JoinState>();
      struct Lookup {
        std::string attribute_key;
        std::string location_field;
        double signed_s;
      };
      std::vector<Lookup> lookups;
      for (const RuleTemplate& rule : rules) {
        for (const RuleAttribute& attr : rule.attributes) {
          lookups.push_back({rule.AttributeKey(attr.name), rule.location_field,
                             attr.below ? -options.s : options.s});
        }
      }
      setup.before_send = [store, state, lookups](cep::Engine* engine,
                                                  int task,
                                                  const dsps::Tuple& tuple) {
        auto hour = tuple.GetByField("hour");
        auto day = tuple.GetByField("date_type");
        if (!hour.ok() || !day.ok()) return;
        for (const Lookup& lookup : lookups) {
          auto location = tuple.GetByField(lookup.location_field);
          if (!location.ok()) continue;
          // The query itself (cost accounted by the store).
          auto threshold = storage::QueryThresholdFor(
              *store, lookup.attribute_key, lookup.signed_s, location->AsInt(),
              hour->AsInt(), day->AsString());
          if (!threshold.ok()) continue;
          std::string dedup_key = lookup.attribute_key + "|" +
                                  location->ToString() + "|" +
                                  hour->ToString() + "|" + day->AsString();
          {
            MutexLock lock(state->mutex);
            if (!state->sent_keys_per_task[task].insert(dedup_key).second) {
              continue;  // threshold already in the engine's stream
            }
          }
          storage::ThresholdRow row;
          row.location = location->AsInt();
          row.hour = hour->AsInt();
          row.date_type = day->AsString();
          row.threshold = *threshold;
          (void)SendThresholdEvent(engine, lookup.attribute_key, row);
        }
      };
      setup.per_tuple_db_cost_micros =
          static_cast<int64_t>(lookups.size()) * store->per_query_cost_micros();
      return setup;
    }
  }
  return Status::InvalidArgument("unknown retrieval strategy");
}

}  // namespace core
}  // namespace insight
