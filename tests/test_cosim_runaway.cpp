// Regression tests pinning the leakage-thermal runaway detection path in
// core/cosim.cpp: a floorplan driven past `runaway_rise_limit` must come
// back flagged as runaway — never silently clamped into a fake steady state
// — under both the Analytic and Fdm thermal backends.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"

namespace ptherm::core {
namespace {

using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

// An absurd leakage population (about 1000x a sane gate density) plus a hefty
// dynamic budget: the positive feedback T -> I_off(T) -> P -> T diverges.
floorplan::Floorplan unstable_plan() {
  Rng rng(4);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 40.0;
  cfg.gates_per_mm2 = 5e8;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

CosimOptions backend_opts(ThermalBackend backend) {
  CosimOptions opts;
  opts.backend = backend;
  if (backend == ThermalBackend::Fdm) {
    opts.fdm.nx = 16;
    opts.fdm.ny = 16;
    opts.fdm.nz = 8;
  }
  opts.runaway_rise_limit = 200.0;
  return opts;
}

class CosimRunaway : public ::testing::TestWithParam<ThermalBackend> {};

TEST_P(CosimRunaway, FlaggedNotSilentlyClamped) {
  ElectroThermalSolver solver(tech(), unstable_plan(), backend_opts(GetParam()));
  const auto r = solver.solve();
  EXPECT_TRUE(r.runaway);
  EXPECT_FALSE(r.converged);
  // The solver must stop promptly once the rise limit is crossed rather than
  // burning the full iteration budget on a diverging fixed point.
  EXPECT_LT(r.iterations, backend_opts(GetParam()).max_iterations);
  // The reported state is the diverging one, not a value clamped back under
  // the limit: the hottest block sits beyond sink + limit, and the last
  // update was nowhere near the convergence tolerance.
  EXPECT_GT(r.max_temperature, die_1mm().t_sink + 200.0);
  EXPECT_GT(r.max_delta_last, backend_opts(GetParam()).tol);
}

TEST_P(CosimRunaway, StablePlanWithSameOptionsDoesNotFlag) {
  // The detector must not fire on a healthy floorplan solved with the very
  // same options — runaway is a property of the physics, not of the limit.
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  ElectroThermalSolver solver(tech(), fp, backend_opts(GetParam()));
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
}

TEST_P(CosimRunaway, TighterLimitFlagsEarlier) {
  auto loose = backend_opts(GetParam());
  auto tight = backend_opts(GetParam());
  loose.runaway_rise_limit = 350.0;
  tight.runaway_rise_limit = 100.0;
  ElectroThermalSolver a(tech(), unstable_plan(), loose);
  ElectroThermalSolver b(tech(), unstable_plan(), tight);
  const auto ra = a.solve();
  const auto rb = b.solve();
  EXPECT_TRUE(ra.runaway);
  EXPECT_TRUE(rb.runaway);
  EXPECT_LE(rb.iterations, ra.iterations);
}

TEST_P(CosimRunaway, ContractionReadsTheLoopGain) {
  // The exit residual ratio r_k / r_{k-1}: a diverging fixed point reads at
  // least 1, a healthy plan under the same options well below it.
  ElectroThermalSolver unstable(tech(), unstable_plan(), backend_opts(GetParam()));
  const auto ru = unstable.solve();
  ASSERT_TRUE(ru.runaway);
  EXPECT_GE(ru.contraction, 1.0);

  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  ElectroThermalSolver stable(tech(), fp, backend_opts(GetParam()));
  const auto rs = stable.solve();
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(rs.contraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, CosimRunaway,
                         ::testing::Values(ThermalBackend::Analytic,
                                           ThermalBackend::Fdm),
                         [](const ::testing::TestParamInfo<ThermalBackend>& info) {
                           return info.param == ThermalBackend::Analytic ? "Analytic"
                                                                         : "Fdm";
                         });

TEST(CosimRunaway2, DivergenceBelowHardLimitIsStillCaught) {
  // Even with the hard rise limit parked far away, a monotonically growing
  // Picard update is divergence and must be reported as runaway instead of
  // exhausting max_iterations and returning converged == false ambiguously.
  auto opts = backend_opts(ThermalBackend::Analytic);
  opts.runaway_rise_limit = 1e6;
  opts.max_iterations = 2000;
  ElectroThermalSolver solver(tech(), unstable_plan(), opts);
  const auto r = solver.solve();
  EXPECT_TRUE(r.runaway);
  EXPECT_FALSE(r.converged);
  EXPECT_LT(r.iterations, opts.max_iterations);
}

}  // namespace
}  // namespace ptherm::core
