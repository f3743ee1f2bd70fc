// Layered die-stack tests across the thermal backends and the co-simulation
// drivers: the N-layer spectral transfer matrices against the layered FDM
// reference (steady and transient), the 1-layer degenerate stack against the
// legacy single-die closed forms, the matrix-free influence path on layered
// stacks, and the dynamic package boundary (case temperature as co-simulated
// state) end to end through the transient cosim and the RTM loop.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "thermal/backend.hpp"
#include "thermal/fdm.hpp"
#include "thermal/spectral.hpp"
#include "thermal/stack.hpp"

namespace ptherm {
namespace {

constexpr double kK = 148.0;
constexpr double kCv = 1.631e6;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = kK;
  d.t_sink = 318.15;
  d.cv_si = kCv;
  return d;
}

thermal::StackLayer silicon(double thickness) { return {"die", thickness, kK, kCv}; }
thermal::StackLayer tim() { return {"tim", 25e-6, 4.0, 2.2e6}; }
thermal::StackLayer copper(double thickness) { return {"spreader", thickness, 390.0, 3.4e6}; }

/// Die + TIM + copper spreader over an isothermal case plane — the package
/// sandwich every multi-layer test below exercises.
thermal::DieStack sandwich_stack() {
  return thermal::DieStack({silicon(350e-6), tim(), copper(500e-6)});
}

std::vector<thermal::HeatSource> block_sources() {
  // One half-die slab plus one quarter-die block: laterally smooth enough
  // that a 16 x 16 FDM grid resolves them, asymmetric enough to excite many
  // modes.
  return {{0.25e-3, 0.5e-3, 0.5e-3, 1e-3, 1.5},
          {0.75e-3, 0.75e-3, 0.5e-3, 0.5e-3, 0.8}};
}

/// Quadratic extrapolation of the FDM z-column under lateral cell (i, j) to
/// the true surface z = 0 — removes the top-cell-centre offset so surface
/// readings of the two discretizations compare like for like.
double fdm_surface_extrapolated(const thermal::FdmThermalSolver& fdm,
                                const std::vector<double>& rise, int i, int j) {
  const double z0 = fdm.cell_depth(0), z1 = fdm.cell_depth(1), z2 = fdm.cell_depth(2);
  const double t0 = rise[fdm.cell_index(i, j, 0)];
  const double t1 = rise[fdm.cell_index(i, j, 1)];
  const double t2 = rise[fdm.cell_index(i, j, 2)];
  // Lagrange basis at z = 0.
  const double l0 = (z1 * z2) / ((z0 - z1) * (z0 - z2));
  const double l1 = (z0 * z2) / ((z1 - z0) * (z1 - z2));
  const double l2 = (z0 * z1) / ((z2 - z0) * (z2 - z1));
  return l0 * t0 + l1 * t1 + l2 * t2;
}

// ------------------------------------------------------------ spectral DC

TEST(LayeredSpectral, UniformPowerReproducesSeriesResistanceExactly) {
  // A full-die uniform source excites only the DC mode, whose layered
  // transfer is the 1-D series resistance — an exactness identity, not a
  // discretization comparison. Convective closure included: the film's 1/h
  // is part of the series path.
  const thermal::Die die = die_1mm();
  thermal::BoundarySpec conv;
  conv.kind = thermal::BoundaryKind::Convective;
  conv.h = 1.2e4;
  const thermal::DieStack stack({silicon(350e-6), tim(), copper(500e-6)}, conv);
  const thermal::SpectralThermalSolver solver(die, stack, {});
  ASSERT_TRUE(solver.layered());

  const double p = 3.0;
  const std::vector<thermal::HeatSource> uniform = {{0.5e-3, 0.5e-3, 1e-3, 1e-3, p}};
  const auto sol = solver.solve_steady(uniform);
  const double expect = p / (die.width * die.height) * stack.series_resistance_per_area();
  EXPECT_NEAR(solver.surface_rise(sol, 0.5e-3, 0.5e-3), expect, 1e-9 * expect);
  EXPECT_NEAR(solver.surface_rise(sol, 0.1e-3, 0.9e-3), expect, 1e-9 * expect);
}

// ------------------------------------------------- degenerate stack routes

TEST(LayeredSpectral, TrivialStackReproducesLegacySolverBitwise) {
  const thermal::Die die = die_1mm();
  const thermal::SpectralThermalSolver legacy(die, {});
  const thermal::SpectralThermalSolver routed(die, thermal::DieStack::single(die), {});
  EXPECT_FALSE(routed.layered());

  const auto sources = block_sources();
  const auto want = legacy.solve_steady(sources);
  const auto got = routed.solve_steady(sources);
  ASSERT_EQ(got.coeff.size(), want.coeff.size());
  for (std::size_t m = 0; m < want.coeff.size(); ++m) {
    ASSERT_DOUBLE_EQ(got.coeff[m], want.coeff[m]) << "mode " << m;
  }

  auto s_legacy = legacy.make_transient();
  auto s_routed = routed.make_transient();
  for (int s = 0; s < 20; ++s) {
    legacy.step_transient(s_legacy, 5e-5, sources);
    routed.step_transient(s_routed, 5e-5, sources);
  }
  for (std::size_t m = 0; m < s_legacy.surface.coeff.size(); ++m) {
    ASSERT_DOUBLE_EQ(s_routed.surface.coeff[m], s_legacy.surface.coeff[m]) << "mode " << m;
  }
}

// FNV-1a over the bit patterns of a field.
std::uint64_t field_hash(const std::vector<double>& field) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const double v : field) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3u;
  }
  return h;
}

/// Bits of an FDM run: the steady field, and the field after 20 backward-
/// Euler steps from zero, each as a hash plus its first and last cells.
struct FdmPin {
  std::uint64_t steady_hash;
  double steady_first, steady_last;
  std::uint64_t transient_hash;
  double transient_first, transient_last;
};

/// 16 x 16 x 12 grid under block_sources(): a steady solve, then 20 steps
/// of 10 us (held powers for 10 steps, then the second block at 2 W). The
/// expected bits were captured from the library while the single-die grid
/// still had its own constructor body, so they pin that a single die and
/// DieStack::single of it build one grid.
void expect_fdm_pinned(const thermal::FdmThermalSolver& fdm, const FdmPin& pin) {
  auto sources = block_sources();
  const auto steady = fdm.solve_steady(sources);
  ASSERT_TRUE(steady.converged);
  std::vector<double> rise(fdm.cell_count(), 0.0);
  for (int s = 0; s < 20; ++s) {
    if (s == 10) sources[1].power = 2.0;
    fdm.step_transient(rise, 1e-5, sources);
  }
  EXPECT_EQ(field_hash(steady.rise), pin.steady_hash)
      << "steady hash 0x" << std::hex << field_hash(steady.rise);
  EXPECT_EQ(field_hash(rise), pin.transient_hash)
      << "transient hash 0x" << std::hex << field_hash(rise);
  const double got[] = {steady.rise.front(), steady.rise.back(), rise.front(), rise.back()};
  const double want[] = {pin.steady_first, pin.steady_last, pin.transient_first,
                         pin.transient_last};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]), std::bit_cast<std::uint64_t>(want[k]))
        << "value " << k << " = " << std::hexfloat << got[k];
  }
}

TEST(LayeredFdm, SingleDieGridMatchesCapturedBits) {
  const thermal::Die die = die_1mm();
  thermal::FdmOptions fo;
  fo.nx = 16;
  fo.ny = 16;
  fo.nz = 12;
  const FdmPin pin{0xb7fc4de8d6581787u, 0x1.962654a98f36cp+2, 0x1.1f5374b00350dp-2,
                   0xf84a281858bf10ffu, 0x1.6284ce6ac5dc5p+1, 0x1.befa736baadfcp-5};
  const thermal::FdmThermalSolver from_die(die, fo);
  EXPECT_FALSE(from_die.layered());
  expect_fdm_pinned(from_die, pin);
  const thermal::FdmThermalSolver from_stack(die, thermal::DieStack::single(die), fo);
  EXPECT_FALSE(from_stack.layered());
  expect_fdm_pinned(from_stack, pin);
}

TEST(LayeredSpectral, SplitSiliconStackMatchesTheSingleLayer) {
  // Two half-thickness silicon layers are physically the same die; the
  // layered impedance recursion must agree with tanh(g t)/(k g) to rounding.
  const thermal::Die die = die_1mm();
  const thermal::SpectralThermalSolver legacy(die, {});
  const thermal::SpectralThermalSolver split(
      die, thermal::DieStack({silicon(175e-6), silicon(175e-6)}), {});
  ASSERT_TRUE(split.layered());

  const auto sources = block_sources();
  const auto want = legacy.solve_steady(sources);
  const auto got = split.solve_steady(sources);
  for (const auto& q : sources) {
    const double a = legacy.surface_rise(want, q.cx, q.cy);
    const double b = split.surface_rise(got, q.cx, q.cy);
    EXPECT_NEAR(b, a, 1e-9 * std::abs(a));
  }
}

// --------------------------------------------- spectral vs layered FDM

TEST(LayeredSteady, SpectralMatchesLayeredFdmAtMatchedDepths) {
  // The N-layer acceptance bar: steady block-centre rises against the
  // layered FDM reference, compared at the FDM cell-centre depths via the
  // slab-by-slab transmission-line depth profile — in the die, in the TIM,
  // and deep in the spreader.
  const thermal::Die die = die_1mm();
  const auto stack = sandwich_stack();
  thermal::FdmOptions fo;
  fo.nx = 24;
  fo.ny = 24;
  fo.nz = 35;  // 350/25/500 um split 14/1/20: dz = 25 um in every layer
  const thermal::FdmThermalSolver fdm(die, stack, fo);
  ASSERT_TRUE(fdm.layered());
  const thermal::SpectralThermalSolver spectral(die, stack, {});

  const auto sources = block_sources();
  const auto fdm_sol = fdm.solve_steady(sources);
  ASSERT_TRUE(fdm_sol.converged);
  const auto sp_sol = spectral.solve_steady(sources);

  // kz 0 = top die cell, kz 14 = the TIM cell, kz 25 = mid-spreader.
  for (const int kz : {0, 7, 14, 25}) {
    const double z = fdm.cell_depth(kz);
    for (const auto& q : sources) {
      // Evaluate at the lateral cell centre nearest the block centre so the
      // FDM value needs no lateral interpolation.
      const int i = std::min(fo.nx - 1, static_cast<int>(q.cx / die.width * fo.nx));
      const int j = std::min(fo.ny - 1, static_cast<int>(q.cy / die.height * fo.ny));
      const double x = die.width * (i + 0.5) / fo.nx;
      const double y = die.height * (j + 0.5) / fo.ny;
      const double ref = fdm_sol.rise[fdm.cell_index(i, j, kz)];
      const double got = spectral.rise_at_depth(sp_sol, x, y, z);
      EXPECT_NEAR(got, ref, 0.02 * ref) << "kz " << kz << " block (" << q.cx << ", " << q.cy
                                        << ")";
    }
  }
}

TEST(LayeredTransient, SpectralMatchesLayeredFdmTrajectory) {
  // Transient acceptance bar: the layered modal integrator against a fine-dt
  // layered backward-Euler FDM run. The spectral surface (z = 0) is compared
  // against the FDM column extrapolated to z = 0, removing the top-cell
  // offset; 2% covers the reference's own O(dt) + O(h^2) error.
  const thermal::Die die = die_1mm();
  const thermal::DieStack stack({silicon(350e-6), copper(650e-6)});
  thermal::FdmOptions fo;
  fo.nx = 16;
  fo.ny = 16;
  fo.nz = 48;
  const thermal::FdmThermalSolver fdm(die, stack, fo);
  const thermal::SpectralThermalSolver spectral(die, stack, {});
  ASSERT_TRUE(spectral.layered());

  const auto sources = block_sources();
  const double dt = 1e-5;
  const int steps = 150;  // to 1.5 ms, past the die's own tau
  std::vector<double> rise(fdm.cell_count(), 0.0);
  auto state = spectral.make_transient();
  for (int s = 1; s <= steps; ++s) {
    fdm.step_transient(rise, dt, sources);
    spectral.step_transient(state, dt, sources);
    if (s % 30 != 0) continue;
    for (const auto& q : sources) {
      const int i = std::min(fo.nx - 1, static_cast<int>(q.cx / die.width * fo.nx));
      const int j = std::min(fo.ny - 1, static_cast<int>(q.cy / die.height * fo.ny));
      const double x = die.width * (i + 0.5) / fo.nx;
      const double y = die.height * (j + 0.5) / fo.ny;
      const double ref = fdm_surface_extrapolated(fdm, rise, i, j);
      const double got = spectral.surface_rise(state, x, y);
      EXPECT_NEAR(got, ref, 0.02 * ref) << "t = " << s * dt << " block (" << q.cx << ", "
                                        << q.cy << ")";
    }
  }
}

TEST(LayeredTransient, LongTimeLimitReproducesTheSteadySolve) {
  // The quasi-static tail is folded against the EXACT continuous transfer,
  // so the layered transient's plateau is solve_steady to rounding — the
  // same identity the single-die integrator pins.
  const thermal::Die die = die_1mm();
  const auto stack = sandwich_stack();
  const thermal::SpectralThermalSolver solver(die, stack, {});
  const auto sources = block_sources();
  const auto steady = solver.solve_steady(sources);
  auto state = solver.make_transient();
  // One exact step across many package time constants IS the plateau.
  solver.step_transient(state, 10.0, sources);
  for (const auto& q : sources) {
    const double want = solver.surface_rise(steady, q.cx, q.cy);
    const double got = solver.surface_rise(state, q.cx, q.cy);
    EXPECT_NEAR(got, want, 1e-9 * std::abs(want));
  }
}

TEST(LayeredTransient, DepthQueryOnLayeredFieldThrows) {
  const thermal::Die die = die_1mm();
  const thermal::SpectralThermalSolver solver(die, sandwich_stack(), {});
  auto state = solver.make_transient();
  solver.step_transient(state, 1e-4, block_sources());
  EXPECT_THROW((void)solver.rise_at_depth(state, 0.5e-3, 0.5e-3, 10e-6), PreconditionError);
}

// ------------------------------------------------ matrix-free influence

TEST(LayeredInfluence, MatrixFreeApplyMatchesTheDenseBuild) {
  // The manycore-scale contract: the mode-space influence apply on a layered
  // stack equals the densely built matrix column by column.
  const thermal::Die die = die_1mm();
  const thermal::SpectralBackend backend(die, sandwich_stack(), {});
  const auto sources = block_sources();
  std::vector<thermal::SurfaceSample> samples;
  for (const auto& q : sources) samples.push_back({q.cx, q.cy});

  const auto dense = backend.build_influence(sources, samples);
  const auto apply = backend.make_influence_apply(sources, samples);
  ASSERT_EQ(apply->size(), sources.size());

  std::vector<double> powers(sources.size(), 0.0);
  std::vector<double> rises(sources.size(), 0.0);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    std::fill(powers.begin(), powers.end(), 0.0);
    powers[j] = 1.0;
    apply->apply(powers, rises);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_NEAR(rises[i], dense(i, j), 1e-10 * std::abs(dense(i, j)) + 1e-15)
          << "entry (" << i << ", " << j << ")";
    }
  }
}

// --------------------------------------------------- cosim + RTM closure

device::Technology tech() { return device::Technology::cmos012(); }

floorplan::Floorplan small_plan(double p_total) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

TEST(LayeredCosim, SpectralSteadyCosimConvergesOnASandwichStack) {
  core::CosimOptions bare;
  bare.backend = core::ThermalBackend::Spectral;
  core::CosimOptions layered = bare;
  layered.stack = sandwich_stack();
  const auto fp = small_plan(2.0);
  core::ElectroThermalSolver a(tech(), fp, bare);
  core::ElectroThermalSolver b(tech(), fp, layered);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_TRUE(ra.converged && rb.converged);
  // TIM + spreader add series resistance below the die: every block hotter
  // than with the ideal sink at the die bottom.
  for (std::size_t i = 0; i < ra.blocks.size(); ++i) {
    EXPECT_GT(rb.blocks[i].temperature, ra.blocks[i].temperature);
  }
  EXPECT_GT(rb.total_leakage, ra.total_leakage);
}

TEST(LayeredCosim, AnalyticBackendRejectsGenuinelyLayeredStacks) {
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Analytic;
  opts.stack = sandwich_stack();
  EXPECT_THROW(core::ElectroThermalSolver(tech(), small_plan(2.0), opts), PreconditionError);
  // A trivial stack routes onto the closed forms and is accepted.
  opts.stack = thermal::DieStack::single(die_1mm());
  const auto r = core::ElectroThermalSolver(tech(), small_plan(2.0), opts).solve();
  EXPECT_TRUE(r.converged);
}

TEST(LayeredTransientCosim, RcBoundaryMakesTheCaseACosimState) {
  const auto fp = small_plan(4.0);
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 40e-3;
  opts.record_every = 10;

  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 2e-3}, {1.5, 0.05}});
  core::TransientCosimOptions with_pkg = opts;
  with_pkg.stack = thermal::DieStack({silicon(350e-6)}, rc);

  const auto activity = [](std::size_t, double) { return 1.0; };
  const auto fixed = core::solve_transient_cosim(tech(), fp, activity, opts);
  const auto dynamic = core::solve_transient_cosim(tech(), fp, activity, with_pkg);

  ASSERT_EQ(dynamic.case_rise.size(), dynamic.times.size());
  // Constant-sink run records an all-zero case trace.
  for (double c : fixed.case_rise) EXPECT_DOUBLE_EQ(c, 0.0);
  // The case charges monotonically under sustained power and ends warm.
  for (std::size_t k = 1; k < dynamic.case_rise.size(); ++k) {
    EXPECT_GE(dynamic.case_rise[k], dynamic.case_rise[k - 1] - 1e-12);
  }
  EXPECT_GT(dynamic.case_rise.back(), 0.5);
  // Every block rides the case rise: strictly hotter than the fixed-sink run
  // at the final instant.
  const auto& t_fixed = fixed.block_temps.back();
  const auto& t_dyn = dynamic.block_temps.back();
  for (std::size_t i = 0; i < t_fixed.size(); ++i) EXPECT_GT(t_dyn[i], t_fixed[i]);
}

TEST(LayeredRtm, PackageStackRunsAreBitwiseDeterministic) {
  // The RTM acceptance bar: a closed-loop run over a dynamic-sink stack
  // reproduces bitwise — policies, sensors, package state and all.
  Rng rng(99);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 12.0;
  cfg.gates_per_mm2 = 3e5;
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  rtm::BurstPattern pat;
  pat.period = 4e-3;
  pat.duty = 0.75;
  const auto trace = rtm::make_burst_trace(4, 20, 1e-3, pat);

  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.dt = 1e-4;
  opts.steps_per_epoch = 2;
  opts.temperature_cap = 368.15;
  opts.record_every = 5;
  thermal::BoundarySpec rc;
  rc.kind = thermal::BoundaryKind::RcNetwork;
  rc.rc.emplace(std::vector<thermal::ThermalRc>{{0.4, 5e-3}, {0.8, 0.1}});
  opts.stack = thermal::DieStack({silicon(350e-6)}, rc);

  const auto run = [&] {
    rtm::ThresholdPolicy policy;
    rtm::Actuator actuator(tech(), fp,
                           rtm::VfLadder::uniform(tech().vdd, 2e9, 4, 0.8, 0.45));
    return rtm::run_rtm(tech(), fp, trace, policy, actuator, opts);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.final_temps.size(), b.final_temps.size());
  for (std::size_t i = 0; i < a.final_temps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.final_temps[i], b.final_temps[i]);
  }
  EXPECT_EQ(a.metrics.interventions, b.metrics.interventions);
  EXPECT_DOUBLE_EQ(a.metrics.peak_temperature, b.metrics.peak_temperature);
  EXPECT_DOUBLE_EQ(a.metrics.energy, b.metrics.energy);
  ASSERT_EQ(a.peak_temps.size(), b.peak_temps.size());
  for (std::size_t k = 0; k < a.peak_temps.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.peak_temps[k], b.peak_temps[k]);
  }
}

}  // namespace
}  // namespace ptherm
