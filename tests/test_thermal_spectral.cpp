// Tests for the spectral (cosine-series) Green's-function solver: exact
// identities (uniform source, DC-mode power conservation, depth limits),
// agreement with the FDM reference at matched depth (the acceptance bar for
// the backend), FFT-vs-direct map equivalence, the source-clipping policy
// shared with the other backends, and the transient integrator — whose
// per-mode exponential updates must be exact for piecewise-constant power,
// land exactly on the steady solve in the long-time limit, and track the
// backward-Euler FDM trajectory at matched depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "floorplan/generators.hpp"
#include "thermal/fdm.hpp"
#include "thermal/spectral.hpp"

namespace ptherm::thermal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Die die_1mm() {
  Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

std::vector<HeatSource> grid_sources(int n, double p_total) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  const auto tech = device::Technology::cmos012();
  const auto fp = floorplan::make_uniform_grid(tech, die_1mm(), n, n, cfg, rng);
  return fp.heat_sources(tech);
}

TEST(Spectral, RejectsBadConfiguration) {
  Die bad = die_1mm();
  bad.thickness = 0.0;
  EXPECT_THROW(SpectralThermalSolver(bad, {}), PreconditionError);
  SpectralOptions no_modes;
  no_modes.modes_x = 0;
  EXPECT_THROW(SpectralThermalSolver(die_1mm(), no_modes), PreconditionError);
  // The die's single-layer stack rejects a non-positive heat capacity at
  // construction, before any transient is asked for.
  Die no_cv = die_1mm();
  no_cv.cv_si = 0.0;
  EXPECT_THROW(SpectralThermalSolver(no_cv, {}), PreconditionError);
  const SpectralThermalSolver solver(die_1mm(), {});
  EXPECT_THROW((void)solver.solve_steady({{0.5e-3, 0.5e-3, 0.0, 0.1e-3, 1.0}}),
               PreconditionError);  // degenerate source
}

TEST(Spectral, UniformSourceGivesTheExactOneDimensionalRise) {
  // A source covering the whole die excites only the DC mode (every m > 0
  // footprint integral vanishes), whose closed form is P * t / (k * A) —
  // the 1-D conduction answer, exact to rounding everywhere on the surface.
  const Die die = die_1mm();
  const double p = 3.0;
  const SpectralThermalSolver solver(die, {});
  const auto sol =
      solver.solve_steady({{die.width / 2, die.height / 2, die.width, die.height, p}});
  const double expect = p * die.thickness / (die.k_si * die.width * die.height);
  for (double x : {0.1e-3, 0.5e-3, 0.9e-3}) {
    for (double y : {0.2e-3, 0.7e-3}) {
      EXPECT_NEAR(solver.surface_rise(sol, x, y), expect, 1e-12 * expect);
    }
  }
}

TEST(Spectral, MeanSurfaceRiseConservesPower) {
  // Only the DC mode carries net heat to the sink, so the surface-map mean
  // must equal P_total * t / (k * A) for ANY source arrangement — the
  // spectral power-conservation identity.
  const Die die = die_1mm();
  const auto sources = grid_sources(3, 2.0);
  const double p_total =
      std::accumulate(sources.begin(), sources.end(), 0.0,
                      [](double acc, const HeatSource& s) { return acc + s.power; });
  const SpectralThermalSolver solver(die, {});
  const auto sol = solver.solve_steady(sources);
  const auto map = solver.surface_map(sol, 64, 64);
  const double mean = std::accumulate(map.begin(), map.end(), 0.0) / map.size();
  const double expect = p_total * die.thickness / (die.k_si * die.width * die.height);
  EXPECT_NEAR(mean, expect, 1e-9 * expect);
  EXPECT_NEAR(sol.coeff[0], expect, 1e-12 * expect);  // the DC coefficient itself
}

TEST(Spectral, ClippingConservesStraddlingPowerAndDropsOffDieSources) {
  const Die die = die_1mm();
  const SpectralThermalSolver solver(die, {});
  // Half the footprint hangs off the die: the full watt still deposits.
  const auto straddle = solver.solve_steady({{0.0, 0.5e-3, 0.2e-3, 0.2e-3, 1.0}});
  const double expect = 1.0 * die.thickness / (die.k_si * die.width * die.height);
  EXPECT_NEAR(straddle.coeff[0], expect, 1e-12 * expect);
  // Fully off-die: no field at all.
  const auto off = solver.solve_steady({{-1e-3, 0.5e-3, 0.2e-3, 0.2e-3, 1.0}});
  for (double c : off.coeff) EXPECT_EQ(c, 0.0);
}

TEST(Spectral, DepthTransferLimitsAreExact) {
  const Die die = die_1mm();
  const SpectralThermalSolver solver(die, {});
  const auto sol = solver.solve_steady(grid_sources(2, 1.0));
  const double x = 0.3e-3, y = 0.6e-3;
  // z = 0 reduces to the surface sum; z = t sits on the isothermal sink.
  EXPECT_NEAR(solver.rise_at_depth(sol, x, y, 0.0), solver.surface_rise(sol, x, y), 1e-12);
  EXPECT_NEAR(solver.rise_at_depth(sol, x, y, die.thickness), 0.0, 1e-12);
  // Monotone decay toward the sink.
  double prev = solver.surface_rise(sol, x, y);
  for (double z : {0.25, 0.5, 0.75, 1.0}) {
    const double r = solver.rise_at_depth(sol, x, y, z * die.thickness);
    EXPECT_LE(r, prev + 1e-12);
    prev = r;
  }
}

TEST(Spectral, AgreesWithFdmReferenceWithinTwoPercent) {
  // The acceptance bar: block-centre rises on the seed validation floorplan
  // against the 32x32x16 FDM reference. FDM reports its top LAYER at the
  // cell-centre depth dz/2, so the spectral field is evaluated at that same
  // depth (rise_at_depth) — comparing models at two different depths would
  // charge the cell-centre offset, not the solvers, with the difference.
  const Die die = die_1mm();
  FdmOptions fo;
  fo.nx = 32;
  fo.ny = 32;
  fo.nz = 16;
  const FdmThermalSolver fdm(die, fo);
  const SpectralThermalSolver spectral(die, {});
  const auto sources = grid_sources(3, 2.0);
  const auto fdm_sol = fdm.solve_steady(sources);
  ASSERT_TRUE(fdm_sol.converged);
  const auto sp_sol = spectral.solve_steady(sources);
  const double layer_depth = die.thickness / fo.nz / 2.0;
  for (const auto& s : sources) {
    const double ref = fdm.surface_rise(fdm_sol, s.cx, s.cy);
    const double got = spectral.rise_at_depth(sp_sol, s.cx, s.cy, layer_depth);
    EXPECT_NEAR(got, ref, 0.02 * ref) << "block centred at (" << s.cx << ", " << s.cy << ")";
  }
}

TEST(Spectral, FftMapMatchesDirectEvaluation) {
  const Die die = die_1mm();
  const SpectralThermalSolver solver(die, {});
  const auto sol = solver.solve_steady(grid_sources(3, 2.0));
  const int nx = 32, ny = 16;  // powers of two: the DCT-synthesis path
  const auto before = solver.fft_calls();
  const auto map = solver.surface_map(sol, nx, ny);
  EXPECT_GT(solver.fft_calls(), before);  // counter moved: FFT path taken
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double x = die.width * (i + 0.5) / nx;
      const double y = die.height * (j + 0.5) / ny;
      ASSERT_NEAR(map[static_cast<std::size_t>(j) * nx + i], solver.surface_rise(sol, x, y),
                  1e-9)
          << "grid point (" << i << ", " << j << ")";
    }
  }
}

TEST(Spectral, NonPowerOfTwoMapFallsBackToDirectSynthesis) {
  const Die die = die_1mm();
  const SpectralThermalSolver solver(die, {});
  const auto sol = solver.solve_steady(grid_sources(2, 1.0));
  const int nx = 30, ny = 10;
  const auto before = solver.fft_calls();
  const auto map = solver.surface_map(sol, nx, ny);
  EXPECT_EQ(solver.fft_calls(), before);  // no FFT on this path
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double x = die.width * (i + 0.5) / nx;
      const double y = die.height * (j + 0.5) / ny;
      ASSERT_NEAR(map[static_cast<std::size_t>(j) * nx + i], solver.surface_rise(sol, x, y),
                  1e-9);
    }
  }
}

// ------------------------------------------------------------------ transient

std::vector<HeatSource> two_sources() {
  return {{0.3e-3, 0.4e-3, 0.25e-3, 0.2e-3, 1.5}, {0.7e-3, 0.6e-3, 0.2e-3, 0.3e-3, 0.8}};
}

TEST(SpectralTransient, RejectsBadConfiguration) {
  SpectralOptions no_z;
  no_z.modes_z = 0;
  EXPECT_THROW(SpectralThermalSolver(die_1mm(), no_z), PreconditionError);

  const SpectralThermalSolver solver(die_1mm(), {});
  auto state = solver.make_transient();
  EXPECT_THROW(solver.step_transient(state, 0.0, two_sources()), PreconditionError);
  EXPECT_THROW(solver.step_transient(state, -1e-4, two_sources()), PreconditionError);
  EXPECT_THROW(solver.step_transient(state, 1e-4, {{0.5e-3, 0.5e-3, 0.0, 0.1e-3, 1.0}}),
               PreconditionError);  // degenerate source
  // A state from a differently-sized solver is rejected, not misread.
  SpectralOptions other;
  other.modes_x = 32;
  const SpectralThermalSolver small(die_1mm(), other);
  auto small_state = small.make_transient();
  EXPECT_THROW(solver.step_transient(small_state, 1e-4, two_sources()), PreconditionError);
}

TEST(SpectralTransient, RejectsNonFiniteSourcesAndKeepsTheState) {
  // One NaN power would stay in every amplitude it reaches for good, so a
  // moved power or footprint must be finite; the rejected step changes
  // nothing, and the next finite step is bitwise the one an untouched field
  // takes.
  const SpectralThermalSolver solver(die_1mm(), {});
  const auto sources = two_sources();
  auto state = solver.make_transient();
  solver.step_transient(state, 1e-4, sources);
  auto twin = state;
  const long long updates = solver.transient_power_updates();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    auto power = sources;
    power[1].power = bad;
    EXPECT_THROW(solver.step_transient(state, 1e-4, power), PreconditionError);
    for (const int field : {0, 1, 2, 3}) {
      auto footprint = sources;
      double* at[] = {&footprint[0].cx, &footprint[0].cy, &footprint[0].w, &footprint[0].l};
      *at[field] = bad;
      EXPECT_THROW(solver.step_transient(state, 1e-4, footprint), PreconditionError);
    }
  }
  EXPECT_EQ(solver.transient_power_updates(), updates);
  auto moved = sources;
  moved[0].power = 0.4;
  for (int s = 0; s < 3; ++s) {
    solver.step_transient(state, 1e-4, s == 0 ? sources : moved);
    solver.step_transient(twin, 1e-4, s == 0 ? sources : moved);
  }
  EXPECT_EQ(state.amps, twin.amps);
  EXPECT_EQ(state.surface.coeff, twin.surface.coeff);
  EXPECT_TRUE(std::isfinite(solver.surface_rise(state, 0.5e-3, 0.5e-3)));
}

TEST(SpectralTransient, ExactForPiecewiseConstantPower) {
  // The per-mode update is the closed-form solution of the mode ODE, so one
  // step of h must equal k sub-steps of h/k to rounding — accuracy does not
  // depend on the step size.
  const SpectralThermalSolver solver(die_1mm(), {});
  const auto sources = two_sources();
  const double h = 3e-4;
  auto one = solver.make_transient();
  solver.step_transient(one, h, sources);
  auto sub = solver.make_transient();
  for (int i = 0; i < 4; ++i) solver.step_transient(sub, h / 4.0, sources);
  for (double x : {0.3e-3, 0.5e-3, 0.8e-3}) {
    for (double y : {0.4e-3, 0.6e-3}) {
      const double a = solver.surface_rise(one, x, y);
      const double b = solver.surface_rise(sub, x, y);
      EXPECT_NEAR(a, b, 1e-12 * std::abs(a)) << "at (" << x << ", " << y << ")";
    }
  }
  // Depth evaluation is consistent between the two paths too, and the depth
  // limits hold mid-transient: z = 0 is the surface sum, z = t the sink.
  const double z = die_1mm().thickness / 3.0;
  EXPECT_NEAR(solver.rise_at_depth(one, 0.4e-3, 0.5e-3, z),
              solver.rise_at_depth(sub, 0.4e-3, 0.5e-3, z),
              1e-12 * solver.rise_at_depth(one, 0.4e-3, 0.5e-3, z));
  EXPECT_NEAR(solver.rise_at_depth(one, 0.4e-3, 0.5e-3, 0.0),
              solver.surface_rise(one, 0.4e-3, 0.5e-3), 1e-12);
  EXPECT_NEAR(solver.rise_at_depth(one, 0.4e-3, 0.5e-3, die_1mm().thickness), 0.0, 1e-12);
}

TEST(SpectralTransient, LongTimeLimitIsTheSteadySolve) {
  // The z-mode gains sum to the steady transfer by construction (the
  // truncated tail is carried quasi-statically), so a fully-settled
  // transient IS the steady solve — to rounding, not to a model tolerance.
  const SpectralThermalSolver solver(die_1mm(), {});
  const auto sources = two_sources();
  const auto steady = solver.solve_steady(sources);
  auto settled = solver.make_transient();
  solver.step_transient(settled, 10.0, sources);  // one giant exact step
  auto stepped = solver.make_transient();
  for (int s = 0; s < 300; ++s) solver.step_transient(stepped, 2e-5, sources);  // 6 ms ~ 11 tau
  for (const auto& s : sources) {
    const double ref = solver.surface_rise(steady, s.cx, s.cy);
    EXPECT_NEAR(solver.surface_rise(settled, s.cx, s.cy), ref, 1e-12 * ref);
    EXPECT_NEAR(solver.surface_rise(stepped, s.cx, s.cy), ref, 1e-3 * ref);
  }
  // Cut the power: the field must decay back to the sink everywhere.
  auto cooled = settled;
  auto off = sources;
  for (auto& s : off) s.power = 0.0;
  solver.step_transient(cooled, 10.0, off);
  EXPECT_NEAR(solver.surface_rise(cooled, sources[0].cx, sources[0].cy), 0.0, 1e-10);
}

TEST(SpectralTransient, ProjectionCacheFollowsGeometryAndPowerChanges) {
  const SpectralThermalSolver solver(die_1mm(), {});
  const auto first = two_sources();
  // Power-only changes ride the cached projections as a scaled accumulate:
  // settling with doubled powers must give exactly twice the steady field
  // (linearity), even though the geometry entries were cached on step one.
  auto state = solver.make_transient();
  solver.step_transient(state, 1e-4, first);
  auto doubled = first;
  for (auto& s : doubled) s.power *= 2.0;
  solver.step_transient(state, 10.0, doubled);
  const auto steady = solver.solve_steady(first);
  const double ref = 2.0 * solver.surface_rise(steady, first[0].cx, first[0].cy);
  EXPECT_NEAR(solver.surface_rise(state, first[0].cx, first[0].cy), ref, 1e-12 * ref);
  // A geometry change must rebuild the stale entries: settle under a moved
  // footprint and the field is the moved footprint's steady solve, not the
  // cached one's.
  auto moved = first;
  moved[0].cx = 0.55e-3;
  moved[0].w = 0.3e-3;
  moved[1].power = 0.0;
  solver.step_transient(state, 10.0, moved);
  const auto moved_steady = solver.solve_steady(moved);
  for (double x : {0.2e-3, 0.55e-3, 0.8e-3}) {
    const double want = solver.surface_rise(moved_steady, x, 0.5e-3);
    EXPECT_NEAR(solver.surface_rise(state, x, 0.5e-3), want, 1e-12 * std::abs(want));
  }
}

TEST(SpectralTransient, MovedFootprintWithHeldPowersReprojects) {
  // The source half is keyed by the whole geometry: a footprint that moves
  // while every power is held must still re-project, and an unchanged
  // repeat step must not.
  const SpectralThermalSolver solver(die_1mm(), {});
  const auto first = two_sources();
  auto state = solver.make_transient();
  solver.step_transient(state, 1e-4, first);
  const long long after_first = solver.transient_power_updates();
  solver.step_transient(state, 1e-4, first);
  EXPECT_EQ(solver.transient_power_updates(), after_first);
  auto moved = first;
  moved[1].cy = 0.35e-3;
  solver.step_transient(state, 10.0, moved);
  EXPECT_EQ(solver.transient_power_updates(), after_first + 1);
  const auto moved_steady = solver.solve_steady(moved);
  for (double y : {0.2e-3, 0.35e-3, 0.6e-3}) {
    const double want = solver.surface_rise(moved_steady, moved[1].cx, y);
    EXPECT_NEAR(solver.surface_rise(state, moved[1].cx, y), want, 1e-12 * std::abs(want));
  }
}

TEST(SpectralTransient, MatchedDepthAgreementWithFdmTrajectory) {
  // The transient acceptance bar: against a fine-dt backward-Euler FDM
  // reference (32 x 32 x 16), the spectral trajectory stays within 2% at
  // the source centres at every compared time. FDM reports its top layer at
  // depth dz/2, so the spectral field is read there (rise_at_depth); the
  // residual difference is the reference's own O(dt) + O(h^2) error, which
  // the refinement test below pins down.
  const Die die = die_1mm();
  FdmOptions fo;
  fo.nx = 32;
  fo.ny = 32;
  fo.nz = 16;
  const FdmThermalSolver fdm(die, fo);
  const SpectralThermalSolver spectral(die, {});
  const auto sources = two_sources();
  const double dt = 5e-6;
  const int steps = 120;  // to 600 us, ~1.1 die time constants
  const double z_query = die.thickness / fo.nz / 2.0;
  std::vector<double> rise(fdm.cell_count(), 0.0);
  auto state = spectral.make_transient();
  FdmThermalSolver::Solution fdm_view;
  fdm_view.converged = true;
  for (int s = 1; s <= steps; ++s) {
    fdm.step_transient(rise, dt, sources);
    spectral.step_transient(state, dt, sources);
    const double t = s * dt;
    if (t < 1.5e-4 || s % 10 != 0) continue;
    fdm_view.rise = std::move(rise);
    for (const auto& q : sources) {
      const double ref = fdm.surface_rise(fdm_view, q.cx, q.cy);
      const double got = spectral.rise_at_depth(state, q.cx, q.cy, z_query);
      EXPECT_NEAR(got, ref, 0.02 * ref) << "t = " << t << " s at (" << q.cx << ", " << q.cy
                                        << ")";
    }
    rise = std::move(fdm_view.rise);
  }
}

TEST(SpectralTransient, FdmFromTheDieHonoursItsHeatCapacity) {
  // Both solvers take the heat capacity from Die::cv_si. At twice the
  // silicon value the die heats more slowly; the FDM top cell must still
  // track the spectral field read at the cell-centre depth, to the 2% of
  // the matched-depth trajectory test.
  Die die = die_1mm();
  die.cv_si *= 2.0;
  FdmOptions fo;
  fo.nx = 16;
  fo.ny = 16;
  fo.nz = 16;
  const FdmThermalSolver fdm(die, fo);
  const SpectralThermalSolver spectral(die, {});
  const std::vector<HeatSource> sources = {{0.5e-3, 0.5e-3, 0.25e-3, 0.25e-3, 1.0}};
  std::vector<double> rise(fdm.cell_count(), 0.0);
  auto state = spectral.make_transient();
  for (int s = 0; s < 20; ++s) {
    fdm.step_transient(rise, 1e-5, sources);
    spectral.step_transient(state, 1e-5, sources);
  }
  const int i = fo.nx / 2;
  const int j = fo.ny / 2;
  const double ref = rise[fdm.cell_index(i, j, 0)];
  const double got = spectral.rise_at_depth(state, die.width * (i + 0.5) / fo.nx,
                                            die.height * (j + 0.5) / fo.ny, fdm.cell_depth(0));
  EXPECT_NEAR(got, ref, 0.02 * ref);
}

TEST(SpectralTransient, FdmTrajectoryConvergesTowardSpectralUnderDtRefinement) {
  // The spectral update is exact in time, so refining the FDM reference's dt
  // must shrink the disagreement — the difference is the reference's error,
  // not the integrator's.
  const Die die = die_1mm();
  FdmOptions fo;
  fo.nx = 32;
  fo.ny = 32;
  fo.nz = 16;
  const FdmThermalSolver fdm(die, fo);
  const SpectralThermalSolver spectral(die, {});
  const auto sources = two_sources();
  const double t_end = 3e-4;
  const double z_query = die.thickness / fo.nz / 2.0;
  auto max_deviation = [&](double dt) {
    std::vector<double> rise(fdm.cell_count(), 0.0);
    auto state = spectral.make_transient();
    const int steps = static_cast<int>(std::llround(t_end / dt));
    for (int s = 0; s < steps; ++s) {
      fdm.step_transient(rise, dt, sources);
      spectral.step_transient(state, dt, sources);
    }
    FdmThermalSolver::Solution view;
    view.rise = std::move(rise);
    view.converged = true;
    double worst = 0.0;
    for (const auto& q : sources) {
      const double ref = fdm.surface_rise(view, q.cx, q.cy);
      const double got = spectral.rise_at_depth(state, q.cx, q.cy, z_query);
      worst = std::max(worst, std::abs(got - ref) / ref);
    }
    return worst;
  };
  const double coarse = max_deviation(3e-5);
  const double fine = max_deviation(7.5e-6);
  EXPECT_LT(fine, coarse);
  // O(dt) error should shrink roughly linearly; allow generous slack for the
  // dt-independent spatial floor underneath.
  EXPECT_LT(fine, 0.75 * coarse);
}

// ------------------------------------------------ transient bit pins

// Amplitude (lateral mode, z-mode p) of a transient field (p-major).
double amplitude(const SpectralThermalSolver::TransientSolution& state, std::size_t mode,
                 std::size_t p) {
  return state.amps[p * state.surface.coeff.size() + mode];
}

// FNV-1a over bit patterns, one value at a time.
void hash_bits(std::uint64_t& h, double v) {
  h ^= std::bit_cast<std::uint64_t>(v);
  h *= 0x100000001b3u;
}

// Bits of a transient run: a running hash of every surface coefficient and
// every amplitude after every step, plus the final first and last of each.
struct TransientPin {
  std::uint64_t coeff_hash, amps_hash;
  double coeff_first, coeff_last, amp_first, amp_last;
};

// Steps a field through held and moving powers, a -0.0 power, all-zero
// powers and h re-keys (h = 1e-4, 1e-3, 1e-6 and a 0.1 s step that drives
// most (mode, p) entries below the fully-decayed floor), hashing the
// surface coefficients and the amplitudes, both read in (mode, p) order,
// after each step. The expected bits were captured from the library while
// the amplitudes were stored lateral-mode major and the single die and the
// layered stack advanced them in separate loops. Amplitudes are compared
// with -0.0 folded to +0.0: a fully decayed entry may carry either sign of
// a zero amplitude, which no sum downstream can see (every sum starts at
// +0.0). Surface coefficients are compared with their sign bits.
void expect_transient_pinned(const SpectralThermalSolver& solver,
                             std::vector<HeatSource> sources, const TransientPin& pin) {
  const std::size_t modes = static_cast<std::size_t>(solver.mode_count());
  const std::size_t mz = static_cast<std::size_t>(solver.modes_z());
  Rng rng(57);
  auto state = solver.make_transient();
  std::uint64_t coeff_hash = 0xcbf29ce484222325u;
  std::uint64_t amps_hash = 0xcbf29ce484222325u;
  const auto step = [&](double h) {
    solver.step_transient(state, h, sources);
    for (std::size_t mode = 0; mode < modes; ++mode) {
      hash_bits(coeff_hash, state.surface.coeff[mode]);
      for (std::size_t p = 0; p < mz; ++p) {
        const double a = amplitude(state, mode, p);
        hash_bits(amps_hash, a == 0.0 ? 0.0 : a);
      }
    }
  };
  const auto move_powers = [&] {
    for (auto& s : sources) s.power *= rng.uniform(0.5, 1.5);
  };
  for (int i = 0; i < 3; ++i) step(1e-4);  // held
  for (int i = 0; i < 4; ++i) {
    move_powers();
    step(1e-4);
  }
  sources[0].power = -0.0;
  step(1e-4);
  move_powers();
  step(1e-3);
  step(1e-3);
  move_powers();
  step(1e-6);
  step(1e-6);
  step(0.1);
  const auto held = sources;
  for (auto& s : sources) s.power = 0.0;
  step(0.1);
  step(1e-4);
  sources = held;
  sources[1].power = 2.5;
  for (int i = 0; i < 3; ++i) step(1e-4);

  EXPECT_EQ(coeff_hash, pin.coeff_hash) << "coefficient hash 0x" << std::hex << coeff_hash;
  EXPECT_EQ(amps_hash, pin.amps_hash) << "amplitude hash 0x" << std::hex << amps_hash;
  const double got[] = {state.surface.coeff.front(), state.surface.coeff.back(),
                        amplitude(state, 0, 0), amplitude(state, modes - 1, mz - 1)};
  const double want[] = {pin.coeff_first, pin.coeff_last, pin.amp_first, pin.amp_last};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]), std::bit_cast<std::uint64_t>(want[k]))
        << "value " << k << " = " << std::hexfloat << got[k];
  }
}

TEST(SpectralTransient, StepMatchesCapturedBits) {
  {
    // The 36-block plan at 32 x 32 x 8 modes (the RTM trace's size).
    SpectralOptions opts;
    opts.modes_x = 32;
    opts.modes_y = 32;
    expect_transient_pinned(SpectralThermalSolver(die_1mm(), opts), grid_sources(6, 16.0),
                            {0x8cf0b0a33720e22bu, 0x5e05b7abbbf10618u, 0x1.68ad8c93ef711p+4,
                             0x1.bcc3e0fb50572p-11, 0x1.d0da309a5036fp+3, 0x1.dc9ff09ed61f5p-16});
  }
  {
    // 132 lateral modes, not a multiple of any register tile.
    SpectralOptions opts;
    opts.modes_x = 12;
    opts.modes_y = 11;
    opts.modes_z = 5;
    expect_transient_pinned(SpectralThermalSolver(die_1mm(), opts), grid_sources(3, 2.0),
                            {0x159a2bd57e3bad71u, 0xfe86ad47504423f4u, 0x1.38618ae06dca7p+2,
                             0x1.2746c4837a442p-8, 0x1.929b185028f93p+1, 0x1.4ab17c2c21f5p-12});
  }
  {
    // Layered: die + TIM + copper spreader, layer diffusivities differ.
    const Die die = die_1mm();
    const DieStack stack({{"die", die.thickness, die.k_si, die.cv_si},
                          {"tim", 25e-6, 4.0, 2.2e6},
                          {"spreader", 500e-6, 390.0, 3.4e6}});
    SpectralOptions opts;
    opts.modes_x = 16;
    opts.modes_y = 16;
    const SpectralThermalSolver solver(die, stack, opts);
    ASSERT_TRUE(solver.layered());
    expect_transient_pinned(solver, grid_sources(3, 2.0),
                            {0xc86ab6eeb2c44143u, 0xe058e032c0236602u, 0x1.39c7616d114bcp+2,
                             -0x1.5a0915571937bp-11, 0x1.041123daa153ap+1, -0x1.933d008b44cd6p-37});
  }
}

TEST(Spectral, MapSynthesisFoldsModesBeyondTheGrid) {
  // More modes than grid points: the folded DCT synthesis must still equal
  // the direct (full) mode sum at every cell centre.
  const Die die = die_1mm();
  SpectralOptions opts;
  opts.modes_x = 96;
  opts.modes_y = 80;
  const SpectralThermalSolver solver(die, opts);
  const auto sol = solver.solve_steady(grid_sources(3, 2.0));
  const int nx = 16, ny = 16;
  const auto map = solver.surface_map(sol, nx, ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double x = die.width * (i + 0.5) / nx;
      const double y = die.height * (j + 0.5) / ny;
      ASSERT_NEAR(map[static_cast<std::size_t>(j) * nx + i], solver.surface_rise(sol, x, y),
                  1e-9);
    }
  }
}

}  // namespace
}  // namespace ptherm::thermal
