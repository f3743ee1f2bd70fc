// Tests for the concurrent electro-thermal solver: fixed-point convergence,
// the temperature-leakage feedback, backend agreement, and runaway detection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "netlist/cells.hpp"

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
  d.t_sink = 318.15;  // 45 C heat sink
  return d;
}

floorplan::Floorplan small_plan(double p_total = 2.0, double gates_per_mm2 = 50e3) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = gates_per_mm2;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

TEST(Cosim, ConvergesOnModestFloorplan) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  EXPECT_GT(r.iterations, 1);
  EXPECT_EQ(r.blocks.size(), 9u);
}

TEST(Cosim, BlockTemperaturesExceedSink) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  for (const auto& b : r.blocks) {
    EXPECT_GT(b.temperature, die_1mm().t_sink);
    EXPECT_GT(b.p_leakage, 0.0);
  }
  EXPECT_GE(r.max_temperature, die_1mm().t_sink);
}

TEST(Cosim, LeakageAtConvergenceExceedsColdLeakage) {
  // The whole point of the concurrent solve: evaluating leakage at the sink
  // temperature underestimates it.
  const auto fp = small_plan(5.0);
  ElectroThermalSolver solver(tech(), fp, {});
  const auto r = solver.solve();
  ASSERT_TRUE(r.converged);
  double cold_leak = 0.0;
  for (const auto& b : fp.blocks()) {
    cold_leak += b.leakage_power(tech(), die_1mm().t_sink);
  }
  EXPECT_GT(r.total_leakage, cold_leak);
}

TEST(Cosim, FixedPointSatisfiesThermalEquation) {
  // At convergence, T_i - T_sink must equal sum_j R_ij * P_j within tol.
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  ASSERT_TRUE(r.converged);
  const auto& influence = solver.influence_matrix();
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    double rise = 0.0;
    for (std::size_t j = 0; j < r.blocks.size(); ++j) {
      rise += influence.at(i, j) * r.blocks[j].p_total();
    }
    EXPECT_NEAR(r.blocks[i].temperature - die_1mm().t_sink, rise, 0.02);
  }
}

TEST(Cosim, InfluenceMatrixIsPositiveWithDominantDiagonal) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto& m = solver.influence_matrix();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_GT(m.at(i, j), 0.0);
      if (i != j) {
        EXPECT_GT(m.at(i, i), m.at(i, j));  // self-heating dominates
      }
    }
  }
}

TEST(Cosim, MorePowerMeansHotter) {
  ElectroThermalSolver cool(tech(), small_plan(1.0), {});
  ElectroThermalSolver hot(tech(), small_plan(4.0), {});
  const auto rc = cool.solve();
  const auto rh = hot.solve();
  ASSERT_TRUE(rc.converged && rh.converged);
  EXPECT_GT(rh.max_temperature, rc.max_temperature);
  EXPECT_GT(rh.total_leakage, rc.total_leakage);
}

TEST(Cosim, DampingOnlyActsAsTheSafeguard) {
  // A contracting plan never makes the residual grow, so the safeguard never
  // engages and the relaxation setting cannot touch the trajectory. The
  // engaged safeguard is pinned on scalar maps in test_numerics_fixed_point.
  CosimOptions fast;
  fast.damping = 1.0;
  CosimOptions slow;
  slow.damping = 0.3;
  ElectroThermalSolver a(tech(), small_plan(), fast);
  ElectroThermalSolver b(tech(), small_plan(), slow);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.max_delta_last, rb.max_delta_last);
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_EQ(ra.blocks[i].temperature, rb.blocks[i].temperature) << "block " << i;
  }
}

TEST(Cosim, FdmBackendAgreesWithAnalytic) {
  CosimOptions ana;
  CosimOptions fdm;
  fdm.backend = ThermalBackend::Fdm;
  fdm.fdm.nx = 24;
  fdm.fdm.ny = 24;
  fdm.fdm.nz = 16;
  const auto fp = small_plan(3.0);
  ElectroThermalSolver a(tech(), fp, ana);
  ElectroThermalSolver f(tech(), fp, fdm);
  const auto ra = a.solve();
  const auto rf = f.solve();
  ASSERT_TRUE(ra.converged && rf.converged);
  const double rise_a = ra.max_temperature - die_1mm().t_sink;
  const double rise_f = rf.max_temperature - die_1mm().t_sink;
  EXPECT_NEAR(rise_a / rise_f, 1.0, 0.25);
  EXPECT_NEAR(ra.total_leakage / rf.total_leakage, 1.0, 0.25);
}

TEST(Cosim, RunawayIsDetectedNotHidden) {
  // An absurd leakage population turns the fixed point unstable: the solver
  // must flag runaway (or at minimum fail to converge) rather than return a
  // bogus steady state.
  Rng rng(4);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 40.0;
  cfg.gates_per_mm2 = 5e8;  // ~1000x a sane density
  auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  CosimOptions opts;
  opts.runaway_rise_limit = 200.0;
  ElectroThermalSolver solver(tech(), fp, opts);
  const auto r = solver.solve();
  EXPECT_TRUE(r.runaway || !r.converged);
}

TEST(Cosim, BodyBiasLowersLeakage) {
  CosimOptions base;
  CosimOptions rbb;
  rbb.vb = -0.3;
  const auto fp = small_plan(2.0);
  ElectroThermalSolver a(tech(), fp, base);
  ElectroThermalSolver b(tech(), fp, rbb);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  EXPECT_LT(rb.total_leakage, ra.total_leakage);
  EXPECT_LT(rb.max_temperature, ra.max_temperature + 1e-9);
}

TEST(Cosim, ExitLeakageIsEachBlocksLeakageAtItsExitTemperature) {
  // The per-block exit leakage comes from the same single evaluation that
  // total_leakage sums, with and without installed adjustments.
  for (const bool adjusted : {false, true}) {
    ElectroThermalSolver solver(tech(), small_plan(), {});
    if (adjusted) {
      std::vector<LeakageAdjust> adjust(9);
      for (std::size_t i = 0; i < adjust.size(); ++i) adjust[i] = {1.0 + 0.05 * i, 0.01 * i};
      solver.set_leakage_adjust(adjust);
    }
    const auto r = solver.solve();
    double total = 0.0;
    for (std::size_t i = 0; i < r.blocks.size(); ++i) {
      EXPECT_EQ(r.blocks[i].p_leakage, solver.block_leakage_power(i, r.blocks[i].temperature))
          << "block " << i << (adjusted ? " (adjusted)" : "");
      total += r.blocks[i].p_leakage;
    }
    EXPECT_EQ(r.total_leakage, total);
  }
}

TEST(Cosim, RejectsBadConfiguration) {
  const auto fp = small_plan();
  CosimOptions bad;
  bad.damping = 0.0;
  EXPECT_THROW(ElectroThermalSolver(tech(), fp, bad), PreconditionError);
  floorplan::Floorplan empty(die_1mm());
  EXPECT_THROW(ElectroThermalSolver(tech(), empty, {}), PreconditionError);
}

TEST(Cosim, NonFiniteInputsAreRejectedByName) {
  auto fp = small_plan();
  floorplan::Block nan_block = fp.blocks().front();
  nan_block.name = "nan_block";
  nan_block.rect = {0.0, 0.0, 1e-5, 1e-5};
  floorplan::Floorplan empty(die_1mm());
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    nan_block.p_dynamic = bad;
    EXPECT_THROW(empty.add_block(nan_block), PreconditionError) << bad;
  }
  ElectroThermalSolver solver(tech(), fp, {});
  std::vector<LeakageAdjust> adjust(fp.blocks().size());
  adjust[3].scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver.set_leakage_adjust(adjust), PreconditionError);
  adjust[3] = {1.0, std::nan("")};
  EXPECT_THROW(solver.set_leakage_adjust(adjust), PreconditionError);
  try {
    solver.set_leakage_adjust(adjust);
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
  }
}

TEST(Cosim, NonFiniteResidualEndsTheSolveUnconvergedWithADiagnostic) {
  // A NaN power that reaches the loop past add_block (the plan's blocks are
  // mutable) makes the first residual NaN, which a std::max reduction would
  // drop and read as converged. It must end the solve unconverged, named,
  // at the last finite iterate.
  auto fp = small_plan();
  fp.blocks()[4].p_dynamic = std::nan("");
  ElectroThermalSolver solver(tech(), fp, {});
  const auto r = solver.solve();
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.runaway);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_TRUE(std::isnan(r.max_delta_last));
  ASSERT_TRUE(r.diagnostics.has_value());
  EXPECT_EQ(r.diagnostics->stage, "non-finite residual");
  EXPECT_EQ(r.max_temperature, die_1mm().t_sink);
  for (const auto& b : r.blocks) EXPECT_EQ(b.temperature, die_1mm().t_sink);
}

TEST(Cosim, TotalsAreSumsOverBlocks) {
  ElectroThermalSolver solver(tech(), small_plan(), {});
  const auto r = solver.solve();
  double dyn = 0.0, leak = 0.0;
  for (const auto& b : r.blocks) {
    dyn += b.p_dynamic;
    leak += b.p_leakage;
  }
  EXPECT_NEAR(r.total_dynamic, dyn, 1e-12);
  EXPECT_NEAR(r.total_leakage, leak, 1e-12);
  EXPECT_NEAR(r.total_power(), dyn + leak, 1e-12);
}


TEST(Cosim, PackageResistanceRaisesEveryBlockUniformly) {
  CosimOptions bare;
  CosimOptions packaged;
  packaged.r_package = 0.5;  // K/W
  const auto fp = small_plan(2.0);
  ElectroThermalSolver a(tech(), fp, bare);
  ElectroThermalSolver b(tech(), fp, packaged);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  // Expected extra rise ~ R_pkg * P_total, identical for every block.
  const double extra = packaged.r_package * rb.total_power();
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_NEAR(rb.blocks[i].temperature - ra.blocks[i].temperature, extra,
                0.15 * extra);
  }
  EXPECT_GT(rb.total_leakage, ra.total_leakage);  // hotter die leaks more
}

TEST(Cosim, BoundaryFoldResistanceSumsPackageAndStackNetwork) {
  CosimOptions opts;
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.0);
  opts.r_package = 0.3;
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3);
  // An isothermal stack adds nothing; an RC-network boundary adds its DC
  // resistance on top of the scalar option.
  opts.stack = thermal::DieStack::single(die_1mm());
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3);
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 0.1}, {0.3, 2.0}});
  opts.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);
  EXPECT_DOUBLE_EQ(boundary_fold_resistance(opts), 0.3 + 0.8);
}

TEST(Cosim, RcBoundaryStackIsTheScalarRPackageAtSteadyState) {
  // One r_package semantics: a trivial stack closed by an RC network with
  // total resistance R must reproduce the scalar r_package = R run exactly
  // (same conduction operator, same fold — bitwise, not approximately).
  const auto fp = small_plan(2.0);
  CosimOptions scalar;
  scalar.r_package = 0.8;
  CosimOptions stacked;
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 0.1}, {0.3, 2.0}});
  stacked.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);
  ElectroThermalSolver a(tech(), fp, scalar);
  ElectroThermalSolver b(tech(), fp, stacked);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  ASSERT_EQ(ra.blocks.size(), rb.blocks.size());
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(rb.blocks[i].temperature, ra.blocks[i].temperature);
    EXPECT_DOUBLE_EQ(rb.blocks[i].p_leakage, ra.blocks[i].p_leakage);
  }
}

TEST(Cosim, DenseAndMatrixFreeFoldTheSameBoundaryResistance) {
  // The satellite contract for the unified boundary fold: with r_package AND
  // an RC-network stack in play, the dense build (fold inside the matrix)
  // and the matrix-free path (fold applied per Picard iteration) must
  // realize identical influence entries and agree on the solve.
  const auto fp = small_plan(2.0);
  CosimOptions base;
  base.backend = ThermalBackend::Spectral;
  base.r_package = 0.4;
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.6, 0.05}});
  base.stack = thermal::DieStack(
      {{"die", die_1mm().thickness, die_1mm().k_si, die_1mm().cv_si}}, rc);

  CosimOptions dense = base;
  dense.influence = InfluenceMode::Dense;
  CosimOptions free = base;
  free.influence = InfluenceMode::MatrixFree;

  ElectroThermalSolver d(tech(), fp, dense);
  ElectroThermalSolver f(tech(), fp, free);
  const auto rd = d.solve();
  const auto rf = f.solve();
  ASSERT_TRUE(rd.converged && rf.converged);
  EXPECT_FALSE(d.matrix_free());
  EXPECT_TRUE(f.matrix_free());

  // The lazily realised dense view of the matrix-free solver goes through
  // the same boundary_fold_resistance helper: identical entries.
  const auto& md = d.influence_matrix();
  const auto& mf = f.influence_matrix();
  ASSERT_EQ(md.size(), mf.size());
  for (std::size_t i = 0; i < md.size(); ++i) {
    for (std::size_t j = 0; j < md.size(); ++j) {
      EXPECT_DOUBLE_EQ(mf.at(i, j), md.at(i, j)) << "entry (" << i << ", " << j << ")";
    }
  }
  for (std::size_t i = 0; i < rd.blocks.size(); ++i) {
    EXPECT_NEAR(rf.blocks[i].temperature, rd.blocks[i].temperature, 1e-9);
  }
}

// Property: from T_sink, undamped Picard iterates rise monotonically. Power
// grows with temperature, so each sweep adds R * (P(T_k) - P(T_{k-1})) with
// a non-negative power step; the truncated operators carry small negative
// entries, so this is checked here, not assumed. Iterate k is the exit state
// of a solve capped at max_iterations = k. Leakage here is dense enough to
// be a visible share of the power at the 85 C sink. The analytic backend is
// left out: its point-kernel images give below-sink rises on dies much
// wider than thick.
enum class PlanKind { Manycore, Hotspot, Random };

floorplan::Floorplan property_plan(PlanKind kind, double t_sink, std::uint64_t seed) {
  thermal::Die die = die_1mm();
  die.width = die.height = 2e-3;
  die.t_sink = t_sink;
  Rng rng(seed);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 4.0;
  cfg.gates_per_mm2 = 2e8;
  if (kind == PlanKind::Manycore) return floorplan::make_manycore(tech(), die, 3, 3, cfg, rng);
  if (kind == PlanKind::Hotspot) return floorplan::make_hotspot_map(tech(), die, 4, 0.5, cfg, rng);
  // Random: each tile of a 4 x 4 grid shrunk to a random sub-rectangle, with
  // random dynamic power and leakage population.
  auto fp = floorplan::make_uniform_grid(tech(), die, 4, 4, cfg, rng);
  for (auto& b : fp.blocks()) {
    const double sx = rng.uniform(0.4, 1.0);
    const double sy = rng.uniform(0.4, 1.0);
    b.rect.x += rng.uniform(0.0, 1.0 - sx) * b.rect.w;
    b.rect.y += rng.uniform(0.0, 1.0 - sy) * b.rect.h;
    b.rect.w *= sx;
    b.rect.h *= sy;
    b.p_dynamic *= rng.uniform(0.0, 2.0);
    for (auto& g : b.gate_groups) g.count *= rng.uniform(0.0, 2.0) * sx * sy;
  }
  return fp;
}

class UndampedIterates : public ::testing::TestWithParam<ThermalBackend> {};

TEST_P(UndampedIterates, RiseMonotonicallyFromTheSink) {
  CosimOptions opts;
  opts.backend = GetParam();
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 8;
  opts.damping = 1.0;
  opts.tol = 1e-6;
  for (const PlanKind kind : {PlanKind::Manycore, PlanKind::Hotspot, PlanKind::Random}) {
    for (const double t_sink : {318.15, 358.15}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "plan " << static_cast<int>(kind) << " sink "
                                          << t_sink << " seed " << seed);
        const auto fp = property_plan(kind, t_sink, seed);
        const auto full = ElectroThermalSolver(tech(), fp, opts).solve();
        ASSERT_TRUE(full.converged);
        ASSERT_GT(full.iterations, 2) << "feedback too weak to test";
        std::vector<double> prev(fp.blocks().size(), t_sink);
        for (int k = 1; k <= full.iterations; ++k) {
          CosimOptions capped = opts;
          capped.max_iterations = k;
          const auto r = ElectroThermalSolver(tech(), fp, capped).solve();
          for (std::size_t i = 0; i < prev.size(); ++i) {
            ASSERT_GE(r.blocks[i].temperature, prev[i]) << "iterate " << k << " block " << i;
            prev[i] = r.blocks[i].temperature;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SpectralAndFdm, UndampedIterates,
                         ::testing::Values(ThermalBackend::Spectral, ThermalBackend::Fdm),
                         [](const ::testing::TestParamInfo<ThermalBackend>& info) {
                           return info.param == ThermalBackend::Spectral ? "Spectral" : "Fdm";
                         });

TEST(Cosim, NominalAdjustmentSkipsTheMultiplierBitwise) {
  // A zero dVT0 of either sign skips leakage_multiplier: exp(-+0 / nVT) is
  // exactly 1, so the adjusted power is bitwise the full expression.
  const Technology t = tech();
  for (const double base : {0.0, 1.25e-3, 7.5e-9, 3.0}) {
    for (const double temp : {300.0, 345.5, 390.0}) {
      for (const double scale : {1.0, 0.8, 1.37}) {
        for (const double dvt0 : {0.0, -0.0}) {
          const double full = scale * (device::leakage_multiplier(t, dvt0, temp) * base);
          const double adjusted = adjusted_leakage_power(t, base, temp, {scale, dvt0});
          EXPECT_EQ(std::bit_cast<std::uint64_t>(adjusted), std::bit_cast<std::uint64_t>(full))
              << base << " W at " << temp << " K, scale " << scale << ", dVT0 " << dvt0;
          EXPECT_EQ(device::leakage_multiplier(t, dvt0, temp), 1.0);
        }
      }
    }
  }
  // A non-zero dVT0 still applies the multiplier.
  EXPECT_LT(adjusted_leakage_power(t, 1.0, 330.0, {1.0, 0.02}), 1.0);
  EXPECT_GT(adjusted_leakage_power(t, 1.0, 330.0, {1.0, -0.02}), 1.0);
}

}  // namespace
}  // namespace ptherm::core
