#ifndef INSIGHT_MODEL_LATENCY_MODEL_H_
#define INSIGHT_MODEL_LATENCY_MODEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "model/regression.h"

namespace insight {
namespace model {

/// Characteristics of one rule, as the estimation model of Section 4.1.4
/// sees it: the window length `l` and the number of thresholds `t` it joins
/// with are "the two main components that affect the latency of a rule"
/// (Table 3). Rules whose format differs from the generic template carry a
/// measured single-engine latency instead (Section 4.1.4: "we calculate the
/// latency of the rule running in a single engine and then insert in the
/// second function this information").
struct RuleCharacteristics {
  double window_length = 1;
  double num_thresholds = 0;
  double weight = 1.0;
  std::optional<double> measured_latency_micros;
};

/// One measured observation for recalibrating Function 1 from live runtime
/// metrics: the rule configuration a component ran, the mean execute latency
/// one monitor window reported for it, and how many executions the window
/// averaged over. Mirrors dsps::MetricsRegistry::WindowReport without
/// depending on the runtime layer — callers (benchmarks) convert.
struct WindowMeasurement {
  double window_length = 1;
  double num_thresholds = 0;
  double avg_latency_micros = 0;
  uint64_t executed = 0;
};

/// The three-function latency estimation model of Figure 7:
///   Function 1 (Table 3): rule latency        <- (window length, thresholds)
///   Function 2 (Table 4): engine latency      <- (rule latency, rule latency),
///                         chained sequentially for more than two rules
///   Function 3 (Table 5): co-located latency  <- (own engine latency,
///                         summed latency of the other engines on the node)
/// All latencies are microseconds per input tuple.
class LatencyModel {
 public:
  /// A model with calibrated default coefficients for this repo's CEP engine
  /// (fit by bench_fig09_regression; see EXPERIMENTS.md).
  static LatencyModel Default();

  /// A model around explicit regressions. f1: 2 inputs; f2: 2 inputs;
  /// f3: 2 inputs.
  LatencyModel(PolynomialRegression f1, PolynomialRegression f2,
               PolynomialRegression f3);

  /// Function 1.
  double SingleRuleLatency(double window_length, double num_thresholds) const;
  double RuleLatency(const RuleCharacteristics& rule) const;

  /// Function 2 for exactly two rule latencies.
  double CombineTwo(double latency1, double latency2) const;

  /// Engine latency for a set of rules: Function 1 per rule, then Function 2
  /// chained ("if we place more than 2 rules we will call this function
  /// sequentially").
  double EngineLatency(const std::vector<RuleCharacteristics>& rules) const;

  /// Function 3: engine latency after co-location with other engines on the
  /// same cluster node.
  double ColocatedLatency(double own_latency,
                          const std::vector<double>& other_latencies) const;

  /// Full Figure 7 pipeline: per-engine rule sets and a node id per engine;
  /// returns the adjusted latency per engine.
  std::vector<double> EstimateAll(
      const std::vector<std::vector<RuleCharacteristics>>& engine_rules,
      const std::vector<int>& engine_node) const;

  /// Refits Function 1 from live window reports (the observability feedback
  /// loop: monitor windows -> measured averages -> recalibrated model).
  /// Weighted least squares with each observation weighted by its execution
  /// count; empty windows (executed == 0) contribute nothing. Keeps the
  /// current f1 on failure (too few distinct observations, singular system).
  Status FitFromWindowReports(
      const std::vector<WindowMeasurement>& measurements);

  const PolynomialRegression& f1() const { return f1_; }
  const PolynomialRegression& f2() const { return f2_; }
  const PolynomialRegression& f3() const { return f3_; }
  PolynomialRegression* mutable_f1() { return &f1_; }
  PolynomialRegression* mutable_f2() { return &f2_; }
  PolynomialRegression* mutable_f3() { return &f3_; }

 private:
  PolynomialRegression f1_;
  PolynomialRegression f2_;
  PolynomialRegression f3_;
};

/// Bounded accumulator of live WindowMeasurements feeding periodic Function 1
/// refits, for refitting the latency model between runs (ROADMAP item 8).
/// Keeps the newest `capacity` non-empty windows and refits once at least
/// `min_measurements` are held AND `min_new_executions` executions arrived
/// since the last refit attempt, so a quiet stream never burns solver time.
/// Not thread-safe: owned and driven by a single control loop.
class RollingRefit {
 public:
  struct Options {
    size_t capacity = 64;
    size_t min_measurements = 8;
    uint64_t min_new_executions = 1;
  };

  RollingRefit() = default;
  explicit RollingRefit(Options options) : options_(options) {}

  /// Adds one window; empty windows (executed == 0) are ignored.
  void Observe(const WindowMeasurement& measurement);

  /// Refits `model`'s Function 1 from the held windows when enough fresh
  /// signal accumulated. Returns true when the model was updated. A failed
  /// fit (singular system, too few distinct configurations) keeps the model
  /// untouched and re-arms the new-execution gate, so the solver is not
  /// retried every tick on the same data.
  bool MaybeRefit(LatencyModel* model);

  size_t size() const { return window_.size(); }
  uint64_t refits() const { return refits_; }

 private:
  Options options_;
  std::vector<WindowMeasurement> window_;  // ring, newest overwrite oldest
  size_t next_ = 0;
  uint64_t new_executions_ = 0;
  uint64_t refits_ = 0;
};

}  // namespace model
}  // namespace insight

#endif  // INSIGHT_MODEL_LATENCY_MODEL_H_
