#ifndef INSIGHT_CORE_RETRIEVAL_H_
#define INSIGHT_CORE_RETRIEVAL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "common/status.h"
#include "core/rule_template.h"
#include "dsps/tuple.h"
#include "storage/table_store.h"

namespace insight {
namespace core {

/// The three techniques of Section 4.3.1 for feeding the rules with the
/// batch-computed thresholds, plus the static-threshold "Optimal" baseline
/// of Figure 10:
///  * kStatic — a literal threshold baked into each rule; no retrieval
///    overhead (lower bound).
///  * kJoinWithDatabase — every incoming tuple triggers a storage-medium
///    query for its (location, hour, day) threshold.
///  * kMultipleRules — all thresholds are fetched up-front and one concrete
///    rule is created per (rule, location, hour, day) combination.
///  * kThresholdStream — all thresholds are fetched up-front and pushed into
///    a dedicated Esper stream the rules join with (the approach the paper
///    adopts).
enum class ThresholdRetrieval {
  kStatic,
  kJoinWithDatabase,
  kMultipleRules,
  kThresholdStream,
};

const char* ThresholdRetrievalToString(ThresholdRetrieval strategy);

/// Everything an engine (or Esper bolt task) needs to run a rule set under a
/// retrieval strategy.
struct RetrievalSetup {
  /// (statement name, EPL) to install.
  std::vector<std::pair<std::string, std::string>> rules;
  /// Called once per engine after rules are installed (threshold preload).
  std::function<void(cep::Engine* engine, int task_index)> preload;
  /// Called per tuple before SendEvent (per-tuple DB join).
  std::function<void(cep::Engine* engine, int task_index,
                     const dsps::Tuple& tuple)>
      before_send;
  /// Modeled storage round-trip cost charged per tuple (kJoinWithDatabase)
  /// — see TableStore::Options::simulated_query_cost_micros.
  int64_t per_tuple_db_cost_micros = 0;
  /// Modeled one-off cost per engine (bulk threshold fetch).
  int64_t preload_db_cost_micros = 0;
};

struct RetrievalOptions {
  /// Threshold distance in standard deviations (Listing 2's `s`).
  double s = 1.0;
  /// kStatic: the literal threshold.
  double static_threshold = 100.0;
};

/// The threshold streams a rule set joins with: attribute key (namespaced
/// per location kind, e.g. "delay" and "delay_stop") -> signed `s`.
/// Below-rules (e.g. speed) alert under mean - s*stdev, so their s is
/// negated.
std::map<std::string, double> ThresholdKeys(const std::vector<RuleTemplate>& rules,
                                            double s);

/// Builds the setup for a rule set under a strategy. The store must hold the
/// statistics_<attr>[_stop] tables (see batch::LoadStatisticsIntoStore); it
/// must outlive the returned closures.
Result<RetrievalSetup> BuildRetrieval(ThresholdRetrieval strategy,
                                      const std::vector<RuleTemplate>& rules,
                                      const storage::TableStore* store,
                                      const RetrievalOptions& options);

/// Sends one threshold row into an engine's threshold stream.
Status SendThresholdEvent(cep::Engine* engine, const std::string& attribute_key,
                          const storage::ThresholdRow& row);

}  // namespace core
}  // namespace insight

#endif  // INSIGHT_CORE_RETRIEVAL_H_
