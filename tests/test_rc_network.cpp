// Tests for the compact block-level thermal RC network: steady-state
// equivalence with the concurrent solver (by construction), transient
// plausibility against the FDM transient, and speed-path invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/rc_network.hpp"
#include "core/transient.hpp"
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

floorplan::Floorplan plan(double p_total = 3.0) {
  Rng rng(77);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

ActivityProfile constant_activity() {
  return [](std::size_t, double) { return 1.0; };
}

TEST(RcNetwork, ConductanceMatrixInvertsInfluence) {
  const auto fp = plan();
  RcThermalNetwork net(tech(), fp, {});
  ElectroThermalSolver steady(tech(), fp, {});
  const auto& r = steady.influence_matrix();
  const auto& g = net.conductances();
  const std::size_t n = r.size();
  // R * G must be the identity.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += r.at(i, k) * g[k][j];
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(RcNetwork, LongTransientLandsOnSteadyFixedPoint) {
  const auto fp = plan();
  RcNetworkOptions opts;
  opts.t_stop = 80e-3;  // many block time constants
  opts.dt = 5e-5;
  RcThermalNetwork net(tech(), fp, opts);
  const auto r = net.solve(constant_activity());

  ElectroThermalSolver steady(tech(), fp, {});
  const auto s = steady.solve();
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    EXPECT_NEAR(r.block_temps.back()[i], s.blocks[i].temperature, 0.05) << "block " << i;
  }
}

TEST(RcNetwork, HeatsMonotonicallyUnderConstantPower) {
  RcThermalNetwork net(tech(), plan(), {});
  const auto r = net.solve(constant_activity());
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    for (std::size_t i = 0; i < r.block_temps[k].size(); ++i) {
      EXPECT_GE(r.block_temps[k][i], r.block_temps[k - 1][i] - 1e-9);
    }
  }
}

TEST(RcNetwork, TimeConstantComparableToFdmTransient) {
  // Compare the time each model needs to cover half of its own final rise
  // under a power step. A single-pole-per-block reduction cannot match the
  // FDM's multi-scale response exactly; a factor-2 band is the fidelity
  // claim we make for it.
  const auto fp = plan(4.0);
  auto half_time = [](const TransientCosimResult& r, double t_sink) {
    const double final_rise = r.block_temps.back()[0] - t_sink;
    for (std::size_t k = 0; k < r.times.size(); ++k) {
      if (r.block_temps[k][0] - t_sink > 0.5 * final_rise) return r.times[k];
    }
    return r.times.back();
  };
  RcNetworkOptions ropts;
  ropts.t_stop = 40e-3;
  RcThermalNetwork net(tech(), fp, ropts);
  const auto rc = net.solve(constant_activity());

  TransientCosimOptions fopts;
  fopts.fdm.nx = 16;
  fopts.fdm.ny = 16;
  fopts.fdm.nz = 10;
  fopts.dt = 2e-4;
  fopts.t_stop = 40e-3;
  const auto fdm = solve_transient_cosim(tech(), fp, constant_activity(), fopts);

  const double t_rc = half_time(rc, die_1mm().t_sink);
  const double t_fdm = half_time(fdm, die_1mm().t_sink);
  EXPECT_GT(t_rc / t_fdm, 0.5);
  EXPECT_LT(t_rc / t_fdm, 2.0);
}

TEST(RcNetwork, BurstyProfileCycles) {
  RcNetworkOptions opts;
  opts.t_stop = 24e-3;
  RcThermalNetwork net(tech(), plan(4.0), opts);
  ActivityProfile pulse = [](std::size_t, double t) { return t < 8e-3 ? 1.5 : 0.0; };
  const auto r = net.solve(pulse);
  const double peak = r.peak_temperature();
  EXPECT_LT(r.block_temps.back()[0], peak - 0.5);  // cooled after the burst
  EXPECT_GT(peak, die_1mm().t_sink + 1.0);
}

TEST(RcNetwork, CapacitancesScaleWithArea) {
  const auto fp = plan();
  RcThermalNetwork net(tech(), fp, {});
  const auto& c = net.capacitances();
  ASSERT_EQ(c.size(), fp.blocks().size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GT(c[i], 0.0);
    // Equal-area uniform grid: equal capacitances.
    EXPECT_NEAR(c[i], c[0], 1e-12 * c[0]);
  }
}

TEST(RcNetwork, RejectsBadConfiguration) {
  RcNetworkOptions bad;
  bad.depth_fraction = 0.0;
  EXPECT_THROW(RcThermalNetwork(tech(), plan(), bad), PreconditionError);
  bad = {};
  bad.record_every = 0;  // would reach k % 0 in solve
  EXPECT_THROW(RcThermalNetwork(tech(), plan(), bad), PreconditionError);
  RcThermalNetwork ok(tech(), plan(), {});
  EXPECT_THROW(ok.solve(ActivityProfile{}), PreconditionError);
}

}  // namespace
}  // namespace ptherm::core
