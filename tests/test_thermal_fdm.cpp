// Tests for the 3-D finite-difference reference solver: exact 1-D limits,
// energy bookkeeping, grid convergence, transients, and agreement with the
// analytic image model at die scale.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "thermal/fdm.hpp"

namespace ptherm::thermal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Die die_1mm() {
  Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 300.0;
  return d;
}

TEST(Fdm, UniformHeatingMatchesOneDimensionalConduction) {
  // Whole top surface heated uniformly: pure 1-D conduction with flux q'' =
  // P/A. Cell-centred with Dirichlet bottom: surface cell rise =
  // q''*(t - dz/2)/k.
  const auto die = die_1mm();
  FdmOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 20;
  FdmThermalSolver solver(die, opts);
  const double p = 1.0;
  const std::vector<HeatSource> sources = {
      {0.5e-3, 0.5e-3, 1e-3, 1e-3, p}};
  const auto sol = solver.solve_steady(sources);
  ASSERT_TRUE(sol.converged);
  const double q_flux = p / (die.width * die.height);
  const double dz = die.thickness / opts.nz;
  const double expected_surface = q_flux * (die.thickness - 0.5 * dz) / die.k_si;
  EXPECT_NEAR(solver.surface_rise(sol, 0.5e-3, 0.5e-3), expected_surface,
              0.01 * expected_surface);
  // And laterally uniform.
  EXPECT_NEAR(solver.surface_rise(sol, 0.1e-3, 0.9e-3),
              solver.surface_rise(sol, 0.9e-3, 0.1e-3), 1e-9);
}

TEST(Fdm, SurfacePowerConservesTotal) {
  FdmThermalSolver solver(die_1mm(), {});
  const std::vector<HeatSource> sources = {
      {0.3e-3, 0.4e-3, 0.17e-3, 0.23e-3, 0.7},
      {0.7e-3, 0.7e-3, 0.05e-3, 0.05e-3, 0.3}};
  const auto q = solver.surface_power(sources);
  const double total = std::accumulate(q.begin(), q.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // All power lands in the top layer.
  for (int k = 1; k < solver.nz(); ++k) {
    for (int j = 0; j < solver.ny(); ++j) {
      for (int i = 0; i < solver.nx(); ++i) {
        EXPECT_EQ(q[solver.cell_index(i, j, k)], 0.0);
      }
    }
  }
}

TEST(Fdm, SurfacePowerConservesClippedSourcePower) {
  // The clipping policy: interior sources deposit their power, straddling
  // sources deposit their FULL power over the in-die part of the footprint,
  // fully off-die sources deposit nothing. sum(rhs) must equal the clipped
  // source power budget to 1e-12.
  FdmThermalSolver solver(die_1mm(), {});
  const std::vector<HeatSource> sources = {
      {0.3e-3, 0.4e-3, 0.17e-3, 0.23e-3, 0.7},    // interior
      {0.02e-3, 0.5e-3, 0.2e-3, 0.15e-3, 0.4},    // straddles the x = 0 edge
      {0.98e-3, 0.99e-3, 0.1e-3, 0.1e-3, 0.25},   // straddles the far corner
      {1.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, 5.0}};     // fully off the die
  const auto q = solver.surface_power(sources);
  const double total = std::accumulate(q.begin(), q.end(), 0.0);
  const double expected = 0.7 + 0.4 + 0.25;  // off-die source contributes 0
  EXPECT_NEAR(total, expected, 1e-12 * expected);
}

TEST(Fdm, StraddlingSourceDepositsFullPowerOnDie) {
  FdmThermalSolver solver(die_1mm(), {});
  // Half the footprint hangs off the left edge; the seed build lost that
  // half's wattage silently.
  const std::vector<HeatSource> sources = {{0.0, 0.5e-3, 0.2e-3, 0.2e-3, 1.0}};
  const auto q = solver.surface_power(sources);
  const double total = std::accumulate(q.begin(), q.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Fdm, FullyOffDieSourceDepositsNothing) {
  FdmThermalSolver solver(die_1mm(), {});
  const std::vector<HeatSource> sources = {{-0.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, 3.0}};
  const auto q = solver.surface_power(sources);
  for (double v : q) EXPECT_EQ(v, 0.0);
}

TEST(Fdm, DegenerateSourceIsRejectedAtEveryEntryPoint) {
  FdmThermalSolver solver(die_1mm(), {});
  const std::vector<HeatSource> zero_w = {{0.5e-3, 0.5e-3, 0.0, 0.1e-3, 1.0}};
  const std::vector<HeatSource> neg_l = {{0.5e-3, 0.5e-3, 0.1e-3, -0.1e-3, 1.0}};
  EXPECT_THROW((void)solver.surface_power(zero_w), PreconditionError);
  EXPECT_THROW((void)solver.surface_power(neg_l), PreconditionError);
  EXPECT_THROW((void)solver.solve_steady(zero_w), PreconditionError);
  std::vector<double> field(solver.cell_count(), 0.0);
  EXPECT_THROW((void)solver.step_transient(field, 1e-3, neg_l), PreconditionError);
}

TEST(Fdm, TransientRejectsNonFiniteSourcesAndKeepsTheField) {
  const auto die = die_1mm();
  FdmOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 6;
  FdmThermalSolver solver(die, opts);
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 1.0}};
  std::vector<double> field(solver.cell_count(), 0.0);
  solver.step_transient(field, 1e-4, sources);
  const auto before = field;
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    auto power = sources;
    power[0].power = bad;
    EXPECT_THROW((void)solver.step_transient(field, 1e-4, power), PreconditionError);
    auto footprint = sources;
    footprint[0].cy = bad;
    EXPECT_THROW((void)solver.step_transient(field, 1e-4, footprint), PreconditionError);
    EXPECT_EQ(field, before);
  }
  // The rejected steps left nothing behind: the next finite step is the
  // one an untouched field takes.
  solver.step_transient(field, 1e-4, sources);
  std::vector<double> twin = before;
  FdmThermalSolver(die, opts).step_transient(twin, 1e-4, sources);
  for (std::size_t c = 0; c < field.size(); ++c) {
    ASSERT_TRUE(std::isfinite(field[c]));
    ASSERT_NEAR(field[c], twin[c], 1e-12);
  }
}

TEST(Fdm, TransientOperatorCacheSurvivesChangingDt) {
  // step_transient caches the shifted operator keyed by dt; alternating time
  // steps must still match a cache-cold solver stepping the same sequence.
  const auto die = die_1mm();
  FdmOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 6;
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 1.0}};
  const double dts[] = {0.4e-3, 0.1e-3, 0.4e-3, 0.1e-3, 0.4e-3};

  FdmThermalSolver cached(die, opts);
  std::vector<double> rise_cached(cached.cell_count(), 0.0);
  std::vector<double> rise_cold(cached.cell_count(), 0.0);
  for (const double dt : dts) {
    cached.step_transient(rise_cached, dt, sources);
    // A fresh solver per step can never reuse a stale operator.
    FdmThermalSolver cold(die, opts);
    cold.step_transient(rise_cold, dt, sources);
    for (std::size_t c = 0; c < rise_cached.size(); ++c) {
      ASSERT_NEAR(rise_cached[c], rise_cold[c], 1e-12);
    }
  }
}

TEST(Fdm, PartialCellOverlapIsWeighted) {
  FdmOptions opts;
  opts.nx = 10;
  opts.ny = 10;
  opts.nz = 4;
  FdmThermalSolver solver(die_1mm(), opts);
  // A source covering exactly half of one 100x100 um cell in x.
  const std::vector<HeatSource> sources = {{0.05e-3, 0.05e-3, 0.05e-3, 0.1e-3, 1.0}};
  const auto q = solver.surface_power(sources);
  EXPECT_NEAR(q[solver.cell_index(0, 0, 0)], 1.0, 1e-9);
}

TEST(Fdm, HotterAboveTheSourceThanFarAway) {
  FdmThermalSolver solver(die_1mm(), {});
  const std::vector<HeatSource> sources = {{0.25e-3, 0.25e-3, 0.1e-3, 0.1e-3, 0.5}};
  const auto sol = solver.solve_steady(sources);
  ASSERT_TRUE(sol.converged);
  EXPECT_GT(solver.surface_rise(sol, 0.25e-3, 0.25e-3),
            2.0 * solver.surface_rise(sol, 0.85e-3, 0.85e-3));
  EXPECT_GT(solver.surface_rise(sol, 0.85e-3, 0.85e-3), 0.0);
}

TEST(Fdm, GridRefinementConverges) {
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, 1.0}};
  auto rise = [&](int n) {
    FdmOptions opts;
    opts.nx = n;
    opts.ny = n;
    opts.nz = n / 2;
    FdmThermalSolver solver(die_1mm(), opts);
    const auto sol = solver.solve_steady(sources);
    return solver.surface_rise(sol, 0.5e-3, 0.5e-3);
  };
  const double c16 = rise(16);
  const double c24 = rise(24);
  const double c32 = rise(32);
  EXPECT_LT(std::abs(c32 - c24), std::abs(c24 - c16));
  EXPECT_NEAR(c32 / c24, 1.0, 0.08);
}

TEST(Fdm, MatchesAnalyticImageModelAtDieScale) {
  // Die-scale cross-validation of the paper's §3 model: centre-of-block
  // temperatures within ~15% between FDM and the image-method closed form.
  const auto die = die_1mm();
  const std::vector<HeatSource> sources = {{0.35e-3, 0.5e-3, 0.2e-3, 0.2e-3, 0.5}};
  FdmOptions opts;
  opts.nx = 40;
  opts.ny = 40;
  opts.nz = 24;
  FdmThermalSolver fdm(die, opts);
  const auto sol = fdm.solve_steady(sources);
  ASSERT_TRUE(sol.converged);
  ImageOptions iopts;
  iopts.lateral_order = 3;
  ChipThermalModel analytic(die, sources, iopts);
  for (const auto& p : {std::pair{0.35e-3, 0.5e-3}, std::pair{0.6e-3, 0.5e-3},
                        std::pair{0.9e-3, 0.9e-3}}) {
    const double t_fdm = fdm.surface_rise(sol, p.first, p.second);
    const double t_ana = analytic.rise(p.first, p.second);
    EXPECT_NEAR(t_ana / t_fdm, 1.0, 0.18)
        << "at (" << p.first << ", " << p.second << ")";
  }
}

TEST(Fdm, TransientApproachesSteadyState) {
  const auto die = die_1mm();
  FdmOptions opts;
  opts.nx = 12;
  opts.ny = 12;
  opts.nz = 10;
  FdmThermalSolver solver(die, opts);
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 1.0}};
  const auto steady = solver.solve_steady(sources);
  ASSERT_TRUE(steady.converged);

  std::vector<double> rise(solver.cell_count(), 0.0);
  // Thermal time constant of the die ~ cv*t^2/k ~ 1.3 ms; step well past it.
  const double dt = 0.5e-3;
  double max_seen = 0.0;
  for (int s = 0; s < 40; ++s) {
    solver.step_transient(rise, dt, sources);
    max_seen = std::max(max_seen, solver.surface_rise({rise, 0, true, false, 0.0, {}}, 0.5e-3, 0.5e-3));
  }
  const double t_final = solver.surface_rise({rise, 0, true, false, 0.0, {}}, 0.5e-3, 0.5e-3);
  const double t_steady = solver.surface_rise(steady, 0.5e-3, 0.5e-3);
  EXPECT_NEAR(t_final / t_steady, 1.0, 0.02);
  // Monotone heating: the final value is the max.
  EXPECT_NEAR(max_seen, t_final, 1e-9);
}

TEST(Fdm, TransientCoolsAfterPowerOff) {
  const auto die = die_1mm();
  FdmOptions opts;
  opts.nx = 10;
  opts.ny = 10;
  opts.nz = 8;
  FdmThermalSolver solver(die, opts);
  const std::vector<HeatSource> on = {{0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 1.0}};
  const std::vector<HeatSource> off = {};
  std::vector<double> rise(solver.cell_count(), 0.0);
  for (int s = 0; s < 20; ++s) solver.step_transient(rise, 0.5e-3, on);
  const double hot = solver.surface_rise({rise, 0, true, false, 0.0, {}}, 0.5e-3, 0.5e-3);
  for (int s = 0; s < 20; ++s) solver.step_transient(rise, 0.5e-3, off);
  const double cooled = solver.surface_rise({rise, 0, true, false, 0.0, {}}, 0.5e-3, 0.5e-3);
  EXPECT_LT(cooled, 0.15 * hot);
}

TEST(Fdm, IsothermalSidesRunCoolerThanAdiabatic) {
  const auto die = die_1mm();
  const std::vector<HeatSource> sources = {{0.15e-3, 0.5e-3, 0.1e-3, 0.1e-3, 0.5}};
  FdmOptions adiabatic;
  adiabatic.nx = 20;
  adiabatic.ny = 20;
  adiabatic.nz = 12;
  FdmOptions isothermal = adiabatic;
  isothermal.lateral = LateralBoundary::Isothermal;
  FdmThermalSolver sa(die, adiabatic);
  FdmThermalSolver si(die, isothermal);
  const auto ra = sa.solve_steady(sources);
  const auto ri = si.solve_steady(sources);
  EXPECT_GT(sa.surface_rise(ra, 0.15e-3, 0.5e-3), si.surface_rise(ri, 0.15e-3, 0.5e-3));
}

TEST(Fdm, TransientThrowsInsteadOfIntegratingAnUnconvergedField) {
  FdmOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 6;
  opts.cg.max_iterations = 1;  // no solve can finish in one iteration...
  FdmThermalSolver solver(die_1mm(), opts);
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.3e-3, 0.3e-3, 1.0}};
  std::vector<double> rise(solver.cell_count(), 0.0);
  // ...provided the operator is not near-diagonal: a huge dt makes the
  // shifted system essentially the steady Laplacian.
  EXPECT_THROW((void)solver.step_transient(rise, 10.0, sources), ConvergenceError);
  // The field must be untouched by the failed step.
  for (double v : rise) EXPECT_EQ(v, 0.0);
}

TEST(Fdm, RejectsBadInput) {
  FdmOptions tiny;
  tiny.nx = 1;
  tiny.ny = 8;
  tiny.nz = 8;
  EXPECT_THROW(FdmThermalSolver(die_1mm(), tiny), PreconditionError);
  // The die's single-layer stack rejects a non-positive conductivity.
  Die no_k = die_1mm();
  no_k.k_si = 0.0;
  EXPECT_THROW(FdmThermalSolver(no_k, {}), PreconditionError);
  FdmThermalSolver solver(die_1mm(), {});
  std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(solver.step_transient(wrong_size, 1e-3, {}), PreconditionError);
  std::vector<double> field(solver.cell_count(), 0.0);
  EXPECT_THROW(solver.step_transient(field, -1.0, {}), PreconditionError);
}

}  // namespace
}  // namespace ptherm::thermal
