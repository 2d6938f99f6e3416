// Statistical test tier: interval estimators against closed-form values
// (Wilson score, Student-t, inverse normal), and the adaptive replica
// allocation driver end-to-end — a fixed-seed proof that confidence-driven
// budgets reach a target max half-width with strictly fewer sessions than
// the uniform grid, byte-identical reports across worker counts, and the
// service- and coordinator-backed round executors landing on the exact
// bytes of the in-process driver.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "campaign/adaptive_driver.hpp"
#include "campaign/campaign_engine.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "service/session_service.hpp"
#include "util/stats.hpp"
#include "test_helpers.hpp"

namespace emutile {
namespace {

namespace fs = std::filesystem;

using test::ScratchDir;

// ---------------------------------------------------------- estimators ------

TEST(IntervalEstimators, NormalQuantileMatchesTables) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.95), 1.644854, 1e-5);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  // Symmetry and the tail branch of the approximation.
  EXPECT_NEAR(normal_quantile(0.025), -normal_quantile(0.975), 1e-9);
  EXPECT_NEAR(normal_quantile(0.001), -3.090232, 1e-5);
  EXPECT_THROW(static_cast<void>(normal_quantile(0.0)), CheckError);
  EXPECT_THROW(static_cast<void>(normal_quantile(1.0)), CheckError);
}

TEST(IntervalEstimators, StudentTQuantileMatchesTables) {
  // Exact closed forms.
  EXPECT_NEAR(student_t_quantile(1, 0.975), 12.7062, 1e-3);
  EXPECT_NEAR(student_t_quantile(2, 0.975), 4.30265, 1e-4);
  // Cornish–Fisher regime against the standard t-table.
  EXPECT_NEAR(student_t_quantile(5, 0.975), 2.57058, 5e-3);
  EXPECT_NEAR(student_t_quantile(10, 0.975), 2.22814, 1e-3);
  EXPECT_NEAR(student_t_quantile(30, 0.975), 2.04227, 1e-4);
  EXPECT_NEAR(student_t_quantile(120, 0.975), 1.97993, 1e-5);
  EXPECT_NEAR(student_t_quantile(10, 0.95), 1.81246, 1e-3);
  // Converges to the normal quantile as df grows.
  EXPECT_NEAR(student_t_quantile(100000, 0.975), normal_quantile(0.975),
              1e-4);
  // Symmetric about the median.
  EXPECT_NEAR(student_t_quantile(7, 0.1), -student_t_quantile(7, 0.9), 1e-9);
  EXPECT_THROW(static_cast<void>(student_t_quantile(0, 0.9)), CheckError);
}

TEST(IntervalEstimators, WilsonIntervalMatchesClosedForm) {
  // 8 successes in 10 trials at 95%: the textbook Wilson interval.
  const Interval i = wilson_interval(8, 10);
  EXPECT_NEAR(i.lo, 0.4902, 1e-3);
  EXPECT_NEAR(i.hi, 0.9433, 1e-3);
  EXPECT_NEAR(i.half_width(), 0.2266, 1e-3);

  // Degenerate proportions stay inside [0, 1] (the reason Wilson, not Wald).
  const Interval all = wilson_interval(20, 20);
  EXPECT_GT(all.lo, 0.8);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  const Interval none = wilson_interval(0, 20);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.2);
  // ...and the bound at the degenerate end is exact, not float residue.
  EXPECT_EQ(wilson_interval(0, 1).lo, 0.0);
  EXPECT_EQ(wilson_interval(50, 50).hi, 1.0);

  // Zero trials: the whole of [0, 1] — the widest a proportion gets.
  const Interval unknown = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(unknown.lo, 0.0);
  EXPECT_DOUBLE_EQ(unknown.hi, 1.0);
  EXPECT_DOUBLE_EQ(unknown.half_width(), 0.5);

  // Width shrinks with the sample at fixed p-hat.
  EXPECT_LT(wilson_interval(80, 100).half_width(),
            wilson_interval(8, 10).half_width());
  EXPECT_THROW(static_cast<void>(wilson_interval(3, 2)), CheckError);
}

TEST(IntervalEstimators, MeanIntervalMatchesClosedForm) {
  // Sample 1..10: mean 5.5, sd sqrt(110/12) = 3.02765, t(9, .975) = 2.26216,
  // half-width 2.16645.
  Accumulator acc;
  for (int x = 1; x <= 10; ++x) acc.add(static_cast<double>(x));
  const Interval i = mean_interval(acc);
  EXPECT_NEAR(i.lo, 5.5 - 2.16645, 5e-3);
  EXPECT_NEAR(i.hi, 5.5 + 2.16645, 5e-3);

  // Below two samples there is no variance information.
  Accumulator one;
  one.add(42.0);
  EXPECT_TRUE(std::isinf(mean_interval(one).half_width()));
  EXPECT_TRUE(std::isinf(mean_interval(Accumulator{}).half_width()));
}

TEST(IntervalEstimators, ScenarioAccessorsDeriveFromCounters) {
  ScenarioStats s;
  s.sessions = 12;
  s.failed = 1;
  s.cancelled = 1;  // completed() == 10
  s.detected = 8;
  s.clean = 6;
  EXPECT_EQ(s.completed(), 10u);
  const Interval det = s.detection_interval();
  const Interval ref = wilson_interval(8, 10);
  EXPECT_DOUBLE_EQ(det.lo, ref.lo);
  EXPECT_DOUBLE_EQ(det.hi, ref.hi);
  const Interval corr = s.correction_interval();
  const Interval corr_ref = wilson_interval(6, 8);
  EXPECT_DOUBLE_EQ(corr.lo, corr_ref.lo);
  EXPECT_DOUBLE_EQ(corr.hi, corr_ref.hi);
  EXPECT_TRUE(std::isinf(s.debug_work_interval().half_width()));
}

// ------------------------------------------------------- adaptive driver ----

/// One 55-LUT design, two error kinds with distinctly different detection
/// rates at 48 patterns (lut-function misses often, wrong-polarity almost
/// never) — the skew adaptive allocation exists to exploit.
CampaignSpec adaptive_spec(int sessions_per_scenario) {
  CampaignSpec spec;
  spec.add_design("rand-b", [](std::uint64_t s) {
    return test::make_random_netlist(55, s);
  });
  spec.error_kinds = {ErrorKind::kLutFunction, ErrorKind::kWrongPolarity};
  spec.sessions_per_scenario = sessions_per_scenario;
  spec.master_seed = 2026;
  spec.num_patterns = 48;
  spec.tilings[0].num_tiles = 6;
  spec.tilings[0].target_overhead = 0.3;
  return spec;
}

TEST(AdaptiveDriver, ReachesTargetHalfwidthWithFewerSessionsThanUniform) {
  // The uniform baseline: 18 replicas per scenario, and the max detection
  // half-width it lands on is the target the adaptive run must match.
  const CampaignSpec base = adaptive_spec(18);
  CampaignOptions engine;
  engine.num_threads = 4;
  const CampaignReport uniform = run_campaign(base, engine);
  ASSERT_EQ(uniform.sessions, 36u);
  double uniform_halfwidth = 0.0;
  for (const ScenarioStats& s : uniform.scenarios)
    uniform_halfwidth = std::max(
        uniform_halfwidth, AdaptiveCampaignDriver::scenario_halfwidth(
                               s, AdaptiveMetric::kDetection, 0.95));
  ASSERT_GT(uniform_halfwidth, 0.0);
  ASSERT_LT(uniform_halfwidth, 0.5);

  AdaptiveOptions options;
  options.target_halfwidth = uniform_halfwidth;
  options.initial_sessions = 5;
  options.round_budget = 4;
  options.engine = engine;
  // Wrap the default executor to capture the exploratory round's report.
  std::vector<CampaignReport> rounds;
  options.executor = [&](const CampaignSpec& round_spec, std::size_t) {
    CampaignReport r = run_campaign(round_spec, engine);
    rounds.push_back(r);
    return r;
  };
  AdaptiveCampaignDriver driver(options);
  const AdaptiveResult result = driver.run(base);

  // The acceptance bar: same (or tighter) max half-width, strictly fewer
  // sessions than the flat grid spent.
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.max_halfwidth, uniform_halfwidth);
  EXPECT_LT(result.total_sessions, uniform.sessions);
  EXPECT_EQ(result.total_sessions,
            static_cast<std::size_t>(result.report.sessions));
  ASSERT_EQ(result.round_log.size(), result.rounds);
  EXPECT_EQ(result.round_log.back().scenarios_above_target, 0u);

  // The budget went where the uncertainty was: the wide (lut-function)
  // scenario got more replicas than the narrow (wrong-polarity) one.
  ASSERT_EQ(result.report.scenarios.size(), 2u);
  EXPECT_GT(result.report.scenarios[0].sessions,
            result.report.scenarios[1].sessions);

  // Superset contract, executor-level: the exploratory round is the very
  // uniform campaign of initial_sessions replicas — byte-identical report —
  // because replica streams are per-scenario, not per-position.
  ASSERT_FALSE(rounds.empty());
  const CampaignReport uniform_initial =
      run_campaign(adaptive_spec(options.initial_sessions), engine);
  EXPECT_EQ(rounds[0].to_csv(), uniform_initial.to_csv());
  EXPECT_EQ(rounds[0].to_json(), uniform_initial.to_json());
}

TEST(AdaptiveDriver, ReportsAreByteIdenticalAcross1AndNThreads) {
  const CampaignSpec base = adaptive_spec(8);
  AdaptiveOptions options;
  options.target_halfwidth = 0.28;
  options.initial_sessions = 3;
  options.round_budget = 2;

  std::string csv_ref, json_ref;
  std::vector<AdaptiveRoundInfo> log_ref;
  for (const std::size_t threads : {1u, 4u}) {
    options.engine.num_threads = threads;
    AdaptiveCampaignDriver driver(options);
    const AdaptiveResult result = driver.run(base);
    EXPECT_GT(result.rounds, 0u);
    if (csv_ref.empty()) {
      csv_ref = result.report.to_csv();
      json_ref = result.report.to_json();
      log_ref = result.round_log;
    } else {
      // Same allocation decisions, same sessions, same bytes.
      EXPECT_EQ(result.report.to_csv(), csv_ref);
      EXPECT_EQ(result.report.to_json(), json_ref);
      ASSERT_EQ(result.round_log.size(), log_ref.size());
      for (std::size_t i = 0; i < log_ref.size(); ++i) {
        EXPECT_EQ(result.round_log[i].sessions, log_ref[i].sessions);
        EXPECT_DOUBLE_EQ(result.round_log[i].max_halfwidth,
                         log_ref[i].max_halfwidth);
      }
    }
  }
}

/// A tiny catalog campaign (wire-format-serializable, so it can travel to a
/// service or a fleet): one design, one error kind, quick convergence.
CampaignSpec catalog_adaptive_spec() {
  CampaignSpec spec;
  spec.add_catalog_design("9sym");
  spec.error_kinds = {ErrorKind::kWrongPolarity};
  spec.sessions_per_scenario = 10;  // the uniform reference budget
  spec.master_seed = 77;
  spec.num_patterns = 64;
  spec.tilings[0].num_tiles = 6;
  spec.tilings[0].target_overhead = 0.3;
  return spec;
}

AdaptiveOptions catalog_adaptive_options() {
  AdaptiveOptions options;
  options.target_halfwidth = 0.22;
  options.initial_sessions = 3;
  options.round_budget = 2;
  options.engine.num_threads = 2;
  return options;
}

TEST(AdaptiveDriver, ServiceBackedRoundsMatchInProcessBytes) {
  const CampaignSpec base = catalog_adaptive_spec();
  AdaptiveOptions options = catalog_adaptive_options();
  AdaptiveCampaignDriver in_process(options);
  const AdaptiveResult direct = in_process.run(base);

  ScratchDir scratch("adaptive-service");
  ServiceConfig config;
  config.root = scratch.path;
  config.num_threads = 2;
  config.snapshot_every = 0;
  SessionService service(config);
  options.executor = make_adaptive_executor(service);
  AdaptiveCampaignDriver via_service(options);
  const AdaptiveResult remote = via_service.run(base);

  EXPECT_EQ(remote.rounds, direct.rounds);
  EXPECT_EQ(remote.total_sessions, direct.total_sessions);
  EXPECT_EQ(remote.converged, direct.converged);
  EXPECT_EQ(remote.report.to_csv(), direct.report.to_csv());
  EXPECT_EQ(remote.report.to_json(), direct.report.to_json());

  // Re-running the whole adaptive campaign against the now-warm service
  // cache re-submits the same scenarios nearly for free: every session is
  // a cache hit.
  AdaptiveCampaignDriver again(options);
  const AdaptiveResult warm = again.run(base);
  EXPECT_EQ(warm.report.to_csv(), direct.report.to_csv());
  EXPECT_EQ(warm.report.cache_hits, warm.total_sessions);
  EXPECT_EQ(warm.report.cache_misses, 0u);
}

TEST(AdaptiveDriver, CoordinatorBackedRoundsMatchInProcessBytes) {
  const CampaignSpec base = catalog_adaptive_spec();
  AdaptiveOptions options = catalog_adaptive_options();
  AdaptiveCampaignDriver in_process(options);
  const AdaptiveResult direct = in_process.run(base);

  // An empty fleet exercises the coordinator's in-process fallback — the
  // degradation path must still produce the exact adaptive bytes.
  FleetConfig fleet;
  CoordinatorOptions coordinator_options;
  coordinator_options.local_threads = 2;
  CampaignCoordinator coordinator(fleet, coordinator_options);
  options.executor = make_adaptive_executor(coordinator);
  AdaptiveCampaignDriver via_fleet(options);
  const AdaptiveResult result = via_fleet.run(base);

  EXPECT_EQ(result.rounds, direct.rounds);
  EXPECT_EQ(result.total_sessions, direct.total_sessions);
  EXPECT_EQ(result.report.to_csv(), direct.report.to_csv());
  EXPECT_EQ(result.report.to_json(), direct.report.to_json());
}

TEST(AdaptiveDriver, RejectsSpecsItCannotOwn) {
  AdaptiveCampaignDriver driver;
  CampaignSpec sharded = adaptive_spec(4).shard(0, 2);
  EXPECT_THROW(static_cast<void>(driver.run(sharded)), CheckError);
  CampaignSpec budgeted = adaptive_spec(4);
  budgeted.sessions_by_scenario = {1, 1};
  EXPECT_THROW(static_cast<void>(driver.run(budgeted)), CheckError);
  CampaignSpec empty;  // no designs -> no scenarios
  EXPECT_THROW(static_cast<void>(driver.run(empty)), CheckError);
  AdaptiveOptions bad;
  bad.target_halfwidth = 0.0;
  AdaptiveCampaignDriver bad_driver(bad);
  EXPECT_THROW(static_cast<void>(bad_driver.run(adaptive_spec(4))),
               CheckError);
}

}  // namespace
}  // namespace emutile
