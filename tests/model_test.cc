#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/latency_model.h"
#include "model/regression.h"

namespace insight {
namespace model {
namespace {

// ---------------------------------------------------------------------------
// PolynomialRegression
// ---------------------------------------------------------------------------

TEST(RegressionTest, TermGeneration) {
  PolynomialRegression linear2(2, 1);
  // constant, x0, x1.
  EXPECT_EQ(linear2.num_terms(), 3u);
  PolynomialRegression quad2(2, 2);
  // constant, x0, x1, x0^2, x0*x1, x1^2.
  EXPECT_EQ(quad2.num_terms(), 6u);
  PolynomialRegression cubic1(1, 3);
  EXPECT_EQ(cubic1.num_terms(), 4u);
  // The constant term is always first.
  for (int e : quad2.terms()[0]) EXPECT_EQ(e, 0);
}

TEST(RegressionTest, RecoversExactLinearModel) {
  // y = 2.5 + 3x0 - 0.5x1.
  PolynomialRegression reg(2, 1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    double a = rng.Uniform(0, 100), b = rng.Uniform(0, 100);
    x.push_back({a, b});
    y.push_back(2.5 + 3 * a - 0.5 * b);
  }
  ASSERT_TRUE(reg.Fit(x, y).ok());
  EXPECT_NEAR(reg.Predict({10, 20}), 2.5 + 30 - 10, 1e-6);
  EXPECT_NEAR(reg.MeanAbsoluteError(x, y), 0.0, 1e-6);
  EXPECT_NEAR(reg.coefficients()[0], 2.5, 1e-6);
}

TEST(RegressionTest, RecoversQuadraticWithCrossTerm) {
  // y = 1 + x0^2 + 2 x0 x1.
  PolynomialRegression reg(2, 2);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
    x.push_back({a, b});
    y.push_back(1 + a * a + 2 * a * b);
  }
  ASSERT_TRUE(reg.Fit(x, y).ok());
  EXPECT_NEAR(reg.Predict({2, 3}), 1 + 4 + 12, 1e-6);
}

TEST(RegressionTest, LowerOrderWinsOnLinearNoisyData) {
  // Section 5.1's finding: for near-linear latency data, the 1st-order model
  // generalizes better than the 2nd-order one. Reproduce with a train/test
  // split of a noisy linear function.
  Rng rng(3);
  std::vector<std::vector<double>> train_x, test_x;
  std::vector<double> train_y, test_y;
  auto f = [](double a, double b) { return 2.47 + 0.0078 * a + 0.9 * b; };
  for (int i = 0; i < 40; ++i) {
    double a = rng.Uniform(0, 30), b = rng.Uniform(0, 30);
    train_x.push_back({a, b});
    train_y.push_back(f(a, b) + rng.Gaussian(0, 2.0));
  }
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(0, 30), b = rng.Uniform(0, 30);
    test_x.push_back({a, b});
    test_y.push_back(f(a, b));
  }
  PolynomialRegression first(2, 1), second(2, 2);
  ASSERT_TRUE(first.Fit(train_x, train_y).ok());
  ASSERT_TRUE(second.Fit(train_x, train_y).ok());
  EXPECT_LE(first.MeanAbsoluteError(test_x, test_y),
            second.MeanAbsoluteError(test_x, test_y) * 1.2);
}

TEST(RegressionTest, FitValidation) {
  PolynomialRegression reg(2, 1);
  EXPECT_FALSE(reg.Fit({{1, 2}}, {1.0}).ok());            // too few samples
  EXPECT_FALSE(reg.Fit({{1}, {2}, {3}}, {1, 2, 3}).ok()); // wrong dimension
  EXPECT_FALSE(reg.Fit({{1, 1}, {1, 1}, {1, 1}}, {1, 1, 1}).ok());  // singular
}

TEST(RegressionTest, SetCoefficients) {
  PolynomialRegression reg(2, 1);
  ASSERT_TRUE(reg.SetCoefficients({2.4717, 0.0077598, 2.3016e-05}).ok());
  EXPECT_NEAR(reg.Predict({100, 1000}), 2.4717 + 0.77598 + 0.023016, 1e-9);
  EXPECT_FALSE(reg.SetCoefficients({1.0}).ok());
}

TEST(LinearSolverTest, SolvesAndDetectsSingular) {
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem({{2, 1}, {1, 3}}, {5, 10}, &x).ok());
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_FALSE(SolveLinearSystem({{1, 2}, {2, 4}}, {1, 2}, &x).ok());
}

// ---------------------------------------------------------------------------
// LatencyModel
// ---------------------------------------------------------------------------

TEST(LatencyModelTest, Function1MonotoneInWindowAndThresholds) {
  LatencyModel model = LatencyModel::Default();
  EXPECT_LT(model.SingleRuleLatency(1, 10), model.SingleRuleLatency(100, 10));
  EXPECT_LT(model.SingleRuleLatency(100, 10),
            model.SingleRuleLatency(100, 10000));
  EXPECT_GE(model.SingleRuleLatency(0, 0), 0.0);
}

TEST(LatencyModelTest, MeasuredLatencyOverridesFunction1) {
  LatencyModel model = LatencyModel::Default();
  RuleCharacteristics rule;
  rule.window_length = 100;
  rule.num_thresholds = 50;
  rule.measured_latency_micros = 123.0;
  EXPECT_DOUBLE_EQ(model.RuleLatency(rule), 123.0);
}

TEST(LatencyModelTest, Function2ChainsForManyRules) {
  LatencyModel model = LatencyModel::Default();
  RuleCharacteristics rule;
  rule.window_length = 10;
  rule.num_thresholds = 10;
  double one = model.EngineLatency({rule});
  double two = model.EngineLatency({rule, rule});
  double four = model.EngineLatency({rule, rule, rule, rule});
  EXPECT_LT(one, two);
  EXPECT_LT(two, four);
  EXPECT_DOUBLE_EQ(model.EngineLatency({}), 0.0);
}

TEST(LatencyModelTest, Function3InflatesUnderColocation) {
  LatencyModel model = LatencyModel::Default();
  double alone = model.ColocatedLatency(10.0, {});
  double crowded = model.ColocatedLatency(10.0, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(alone, 10.0);
  EXPECT_GT(crowded, alone);
}

TEST(LatencyModelTest, EstimateAllRespectsNodePlacement) {
  LatencyModel model = LatencyModel::Default();
  RuleCharacteristics rule;
  rule.window_length = 100;
  rule.num_thresholds = 100;
  // Engines 0 and 1 share node 0; engine 2 is alone on node 1.
  auto latencies =
      model.EstimateAll({{rule}, {rule}, {rule}}, {0, 0, 1});
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_GT(latencies[0], latencies[2]);
  EXPECT_NEAR(latencies[0], latencies[1], 1e-9);
}

TEST(RollingRefitTest, RecalibratesFunctionOneFromWindows) {
  model::RollingRefit::Options options;
  options.min_measurements = 8;
  model::RollingRefit refit{options};
  model::LatencyModel model = model::LatencyModel::Default();

  // Synthetic truth: latency = 7 + 2*l + 5*t, observed over distinct rule
  // configurations — enough independent points for the quadratic basis.
  for (int l = 1; l <= 4; ++l) {
    for (int t = 0; t <= 2; ++t) {
      model::WindowMeasurement m;
      m.window_length = l;
      m.num_thresholds = t;
      m.avg_latency_micros = 7.0 + 2.0 * l + 5.0 * t;
      m.executed = 100;
      refit.Observe(m);
    }
  }
  EXPECT_EQ(refit.size(), 12u);
  EXPECT_TRUE(refit.MaybeRefit(&model));
  EXPECT_EQ(refit.refits(), 1u);
  EXPECT_NEAR(model.SingleRuleLatency(3, 2), 7.0 + 6.0 + 10.0, 0.5);

  // No new executions arrived: the gate holds, no second solve.
  EXPECT_FALSE(refit.MaybeRefit(&model));
}

TEST(RollingRefitTest, IgnoresEmptyWindowsAndRespectsMinimum) {
  model::RollingRefit refit;
  model::LatencyModel model = model::LatencyModel::Default();
  model::WindowMeasurement idle;
  idle.executed = 0;
  refit.Observe(idle);
  EXPECT_EQ(refit.size(), 0u);

  model::WindowMeasurement one;
  one.executed = 5;
  one.avg_latency_micros = 10;
  refit.Observe(one);
  EXPECT_FALSE(refit.MaybeRefit(&model));  // below min_measurements
  EXPECT_EQ(refit.refits(), 0u);
}

}  // namespace
}  // namespace model
}  // namespace insight
