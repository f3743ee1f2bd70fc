// Tests for the pluggable thermal-backend layer: the factory, the
// parametrized backend matrix (every backend must run the concurrent solve
// and produce physically sane, mutually consistent results), pairwise
// influence-operator agreement, transient capability gating, and the
// option-validation contracts at solver construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
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

floorplan::Floorplan small_plan(double p_total = 2.0) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

CosimOptions backend_opts(ThermalBackend backend) {
  CosimOptions opts;
  opts.backend = backend;
  if (backend == ThermalBackend::Fdm) {
    opts.fdm.nx = 24;
    opts.fdm.ny = 24;
    opts.fdm.nz = 12;
  }
  return opts;
}

const char* backend_label(ThermalBackend b) {
  switch (b) {
    case ThermalBackend::Analytic: return "Analytic";
    case ThermalBackend::Fdm: return "Fdm";
    case ThermalBackend::Spectral: return "Spectral";
  }
  return "Unknown";
}

class BackendMatrix : public ::testing::TestWithParam<ThermalBackend> {};

TEST_P(BackendMatrix, FactoryReportsTheSelectedBackend) {
  const auto backend = make_thermal_backend(die_1mm(), backend_opts(GetParam()));
  ASSERT_NE(backend, nullptr);
  std::string expect = backend_label(GetParam());
  for (auto& c : expect) c = static_cast<char>(std::tolower(c));
  EXPECT_EQ(backend->name(), expect);
}

TEST_P(BackendMatrix, CosimConvergesWithSaneTemperatures) {
  ElectroThermalSolver solver(tech(), small_plan(), backend_opts(GetParam()));
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  for (const auto& b : r.blocks) {
    EXPECT_GT(b.temperature, die_1mm().t_sink);
    EXPECT_GT(b.p_leakage, 0.0);
  }
}

TEST_P(BackendMatrix, InfluenceIsPositiveWithDominantDiagonal) {
  ElectroThermalSolver solver(tech(), small_plan(), backend_opts(GetParam()));
  const auto& m = solver.influence_matrix();
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_GT(m.at(i, j), 0.0);
      if (i != j) {
        EXPECT_GT(m.at(i, i), m.at(i, j));
      }
    }
  }
}

TEST_P(BackendMatrix, InfluenceColumnsMatchUnitSourceSurfaceRises) {
  // The influence build and the steady-solve query path must describe the
  // same physics: column j of R equals the backend's surface rises for a
  // unit-power source j at the block centres.
  const auto fp = small_plan();
  const auto opts = backend_opts(GetParam());
  const auto backend = make_thermal_backend(fp.die(), opts);
  const auto samples = block_centre_samples(fp);
  auto sources = fp.heat_sources(tech());
  const auto r = backend->build_influence(sources, samples);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    std::vector<thermal::HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const auto rises = backend->surface_rises(one, samples);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_NEAR(r(i, j), rises[i], 1e-9 * rises[i]) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST_P(BackendMatrix, SurfaceRiseMapAgreesWithPointQueries) {
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(GetParam()));
  const auto sources = fp.heat_sources(tech());
  const int nx = 8, ny = 8;
  const auto map = backend->surface_rise_map(sources, nx, ny);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(nx) * ny);
  // Spot-check the centre cell against the point-query path.
  const std::vector<thermal::SurfaceSample> centre = {
      {fp.die().width * 4.5 / nx, fp.die().height * 4.5 / ny}};
  const auto rise = backend->surface_rises(sources, centre);
  EXPECT_NEAR(map[4 * nx + 4], rise[0], 1e-9 * rise[0]);
}

TEST_P(BackendMatrix, TransientCapabilityIsGatedNotSilentlyIgnored) {
  const auto backend = make_thermal_backend(die_1mm(), backend_opts(GetParam()));
  if (GetParam() == ThermalBackend::Fdm || GetParam() == ThermalBackend::Spectral) {
    EXPECT_TRUE(backend->supports_transient());
    EXPECT_NE(backend->make_transient_state(), nullptr);
  } else {
    EXPECT_FALSE(backend->supports_transient());
    EXPECT_THROW((void)backend->make_transient_state(), PreconditionError);
  }
}

TEST_P(BackendMatrix, RejectsANonFiniteOrDegenerateSourceAtEveryEntry) {
  // A NaN footprint clips to an empty rectangle that reads as off-die; every
  // entry must throw on it (and on the other bad sources) rather than drop
  // the source's power. Influence builds ignore powers (the cosim lets a
  // NaN power reach its loop and names it there), so they check footprints.
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(GetParam()));
  const auto samples = block_centre_samples(fp);
  const auto good = fp.heat_sources(tech());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [&](auto edit) {
    thermal::HeatSource s = good[4];
    edit(s);
    return s;
  };
  struct Bad {
    const char* label;
    thermal::HeatSource source;
    bool footprint;  ///< a geometry fault; influence builds ignore powers
  };
  const Bad bad[] = {
      {"NaN centre", with([&](thermal::HeatSource& s) { s.cx = nan; }), true},
      {"infinite power", with([&](thermal::HeatSource& s) { s.power = inf; }), false},
      {"NaN width", with([&](thermal::HeatSource& s) { s.w = nan; }), true},
      {"negative width", with([](thermal::HeatSource& s) { s.w = -s.w; }), true},
  };
  for (const auto& [label, source, footprint] : bad) {
    auto sources = good;
    sources[4] = source;
    EXPECT_THROW((void)backend->surface_rises(sources, samples), PreconditionError) << label;
    EXPECT_THROW((void)backend->surface_rise_map(sources, 8, 8), PreconditionError) << label;
    if (footprint) {
      EXPECT_THROW((void)backend->build_influence(sources, samples), PreconditionError)
          << label;
      EXPECT_THROW((void)thermal::resolve_influence_apply(*backend, sources, samples),
                   PreconditionError)
          << label;
    } else {
      EXPECT_NO_THROW((void)thermal::resolve_influence_apply(*backend, sources, samples))
          << label;
    }
    if (!backend->supports_transient()) continue;
    const auto fresh = backend->make_transient_state();
    EXPECT_THROW(backend->step_transient(*fresh, 1e-4, sources), PreconditionError) << label;
    // Also when only this source changes after a valid step.
    const auto held = backend->make_transient_state();
    backend->step_transient(*held, 1e-4, good);
    EXPECT_THROW(backend->step_transient(*held, 1e-4, sources), PreconditionError) << label;
  }
}

TEST_P(BackendMatrix, BatchedTransientReadbackMatchesPointQueries) {
  // The per-step block-temperature readback goes through the batched
  // surface_rises (spectral: the interned two-pass synthesis; FDM: cached
  // bilinear stencils) — it must agree with the per-point virtual to
  // rounding.
  if (GetParam() == ThermalBackend::Analytic) GTEST_SKIP() << "steady-only backend";
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(GetParam()));
  const auto state = backend->make_transient_state();
  auto sources = fp.heat_sources(tech());
  backend->step_transient(*state, 5e-4, sources);
  const auto samples = block_centre_samples(fp);
  std::vector<double> batched(samples.size());
  state->surface_rises(samples, batched);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double want = state->surface_rise(samples[i].x, samples[i].y);
    EXPECT_GT(want, 0.0);
    EXPECT_NEAR(batched[i], want, 1e-12 * want) << "sample " << i;
  }
  // Changing the query points must re-key the cached tables, not reuse them.
  std::vector<thermal::SurfaceSample> moved(samples.begin(), samples.end());
  moved[0].x *= 0.5;
  std::vector<double> batched_moved(moved.size());
  state->surface_rises(moved, batched_moved);
  EXPECT_NEAR(batched_moved[0], state->surface_rise(moved[0].x, moved[0].y),
              1e-12 * batched_moved[0]);
  EXPECT_NE(batched_moved[0], batched[0]);
  // The point count is independent of the source count: a denser set of
  // off-centre points must agree as well.
  std::vector<thermal::SurfaceSample> dense(53);
  for (std::size_t p = 0; p < dense.size(); ++p) {
    dense[p] = {fp.die().width * std::fmod(0.05 + 0.618034 * static_cast<double>(p), 1.0),
                fp.die().height * (static_cast<double>(p) + 0.5) / 53.0};
  }
  ASSERT_NE(dense.size(), sources.size());
  std::vector<double> batched_dense(dense.size());
  state->surface_rises(dense, batched_dense);
  double scale = 0.0;
  for (const double r : batched) scale = std::max(scale, r);
  for (std::size_t p = 0; p < dense.size(); ++p) {
    EXPECT_NEAR(batched_dense[p], state->surface_rise(dense[p].x, dense[p].y), 1e-12 * scale)
        << "dense point " << p;
  }
}

TEST(BackendAgreement, FdmStencilReadbackIsBitwiseIdenticalToPointQueries) {
  // The FDM transient state's batched readback hoists the per-point
  // bounds/centre arithmetic into cached bilinear stencils. The cached path
  // keeps the exact term order of FdmThermalSolver::surface_rise, so it is
  // not merely close — it is the same doubles, including at the clamped rim
  // and corners.
  const auto fp = small_plan();
  const auto backend = make_thermal_backend(fp.die(), backend_opts(ThermalBackend::Fdm));
  const auto state = backend->make_transient_state();
  auto sources = fp.heat_sources(tech());
  backend->step_transient(*state, 5e-4, sources);
  const double w = fp.die().width;
  const double h = fp.die().height;
  const std::vector<thermal::SurfaceSample> points = {
      {0.0, 0.0},          // corner: both axes clamped
      {w, h},              // far corner
      {w * 0.5, 0.0},      // edge
      {w * 0.013, h * 0.87},
      {w * 0.5, h * 0.5},
      {w * 0.25, h * 0.75},
  };
  std::vector<double> batched(points.size());
  state->surface_rises(points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], state->surface_rise(points[i].x, points[i].y)) << "point " << i;
  }
  // Stepping further reuses the cached stencils on the fresh field.
  backend->step_transient(*state, 5e-4, sources);
  state->surface_rises(points, batched);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batched[i], state->surface_rise(points[i].x, points[i].y))
        << "point " << i << " after second step";
  }
}

TEST(BackendAgreement, TransientStateIsRejectedByAForeignBackend) {
  // A state minted by one backend must not be silently integrated by
  // another — the field layouts are incompatible.
  CosimOptions fdm_opts = backend_opts(ThermalBackend::Fdm);
  const auto fdm = make_thermal_backend(die_1mm(), fdm_opts);
  const auto spectral = make_thermal_backend(die_1mm(), backend_opts(ThermalBackend::Spectral));
  const auto fdm_state = fdm->make_transient_state();
  const auto sp_state = spectral->make_transient_state();
  const auto sources = small_plan().heat_sources(tech());
  EXPECT_THROW(spectral->step_transient(*fdm_state, 1e-4, sources), PreconditionError);
  EXPECT_THROW(fdm->step_transient(*sp_state, 1e-4, sources), PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendMatrix,
                         ::testing::Values(ThermalBackend::Analytic, ThermalBackend::Fdm,
                                           ThermalBackend::Spectral),
                         [](const ::testing::TestParamInfo<ThermalBackend>& info) {
                           return backend_label(info.param);
                         });

TEST(BackendAgreement, CosimResultsAgreeAcrossAllThreeBackends) {
  // Spectral and FDM both solve the boundary-value problem near-exactly, so
  // they must agree tightly; the analytic image model carries the paper's
  // min-estimator modeling error, so its band is the looser seed tolerance.
  const auto fp = small_plan(3.0);
  CosimResult results[3];
  const ThermalBackend backends[] = {ThermalBackend::Analytic, ThermalBackend::Fdm,
                                     ThermalBackend::Spectral};
  for (int b = 0; b < 3; ++b) {
    ElectroThermalSolver solver(tech(), fp, backend_opts(backends[b]));
    results[b] = solver.solve();
    ASSERT_TRUE(results[b].converged) << backend_label(backends[b]);
  }
  const double sink = die_1mm().t_sink;
  const double rise_a = results[0].max_temperature - sink;
  const double rise_f = results[1].max_temperature - sink;
  const double rise_s = results[2].max_temperature - sink;
  EXPECT_NEAR(rise_s / rise_f, 1.0, 0.10);  // two near-exact solvers
  EXPECT_NEAR(rise_a / rise_f, 1.0, 0.25);  // paper's estimator band
  EXPECT_NEAR(rise_a / rise_s, 1.0, 0.25);
  EXPECT_NEAR(results[2].total_leakage / results[1].total_leakage, 1.0, 0.10);
}

TEST(BackendAgreement, InfluenceOperatorsAgreePairwise) {
  const auto fp = small_plan();
  const auto samples = block_centre_samples(fp);
  const auto sources = fp.heat_sources(tech());

  const auto analytic =
      thermal::analytic_influence_columns(fp.die(), sources, samples, thermal::ImageOptions{});
  thermal::FdmOptions fo;
  fo.nx = 24;
  fo.ny = 24;
  fo.nz = 12;
  const thermal::FdmThermalSolver fdm_solver(fp.die(), fo);
  const auto fdm = thermal::fdm_influence_columns(fdm_solver, sources, samples, true);
  const thermal::SpectralThermalSolver sp_solver(fp.die(), {});
  thermal::BackendCostStats sp_stats;
  const auto spectral =
      thermal::spectral_influence_columns(sp_solver, sources, samples, &sp_stats);

  ASSERT_EQ(analytic.rows(), fdm.rows());
  ASSERT_EQ(analytic.rows(), spectral.rows());
  EXPECT_EQ(sp_stats.influence_columns, static_cast<int>(sources.size()));
  EXPECT_EQ(sp_stats.modes, sp_solver.mode_count());
  for (std::size_t i = 0; i < analytic.rows(); ++i) {
    for (std::size_t j = 0; j < analytic.rows(); ++j) {
      // Spectral vs FDM: discretization plus the top-layer cell-centre depth
      // offset (FDM reports dz/2 below the surface). That offset concentrates
      // in the sharply peaked self-coupling, so the diagonal gets a wider
      // band; the matched-depth comparison in test_thermal_spectral.cpp pins
      // the solvers themselves to 2%.
      const double band = (i == j) ? 0.15 : 0.10;
      EXPECT_NEAR(spectral(i, j), fdm(i, j), band * fdm(i, j))
          << "spectral/fdm entry (" << i << ", " << j << ")";
      // Analytic carries the Eq. (20) min-estimator error on top.
      EXPECT_NEAR(analytic(i, j), spectral(i, j), 0.25 * spectral(i, j))
          << "analytic/spectral entry (" << i << ", " << j << ")";
    }
  }
}

TEST(BackendAgreement, SpectralInfluenceIsReciprocalOnSymmetricFloorplan) {
  const auto fp = small_plan();
  const thermal::SpectralThermalSolver solver(fp.die(), {});
  const auto r = thermal::spectral_influence_columns(solver, fp.heat_sources(tech()),
                                                     block_centre_samples(fp));
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = i + 1; j < r.rows(); ++j) {
      EXPECT_NEAR(r(i, j), r(j, i), 1e-9 * r(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(OptionValidation, CosimOptionsAreCheckedAtConstruction) {
  const auto fp = small_plan();
  auto expect_throw = [&](auto mutate) {
    CosimOptions opts;
    mutate(opts);
    EXPECT_THROW(ElectroThermalSolver(tech(), fp, opts), PreconditionError);
  };
  expect_throw([](CosimOptions& o) { o.damping = 0.0; });
  expect_throw([](CosimOptions& o) { o.damping = 1.5; });
  expect_throw([](CosimOptions& o) { o.tol = 0.0; });
  expect_throw([](CosimOptions& o) { o.tol = -1e-3; });
  expect_throw([](CosimOptions& o) { o.max_iterations = 0; });
  expect_throw([](CosimOptions& o) { o.runaway_rise_limit = 0.0; });
  expect_throw([](CosimOptions& o) { o.r_package = -0.1; });
}

TEST(OptionValidation, TransientOptionsAreCheckedAtEntry) {
  const auto fp = small_plan();
  const ActivityProfile nominal = [](std::size_t, double) { return 1.0; };
  auto expect_throw = [&](auto mutate) {
    TransientCosimOptions opts;
    opts.fdm.nx = 8;
    opts.fdm.ny = 8;
    opts.fdm.nz = 4;
    mutate(opts);
    EXPECT_THROW((void)solve_transient_cosim(tech(), fp, nominal, opts), PreconditionError);
  };
  expect_throw([](TransientCosimOptions& o) { o.dt = 0.0; });
  expect_throw([](TransientCosimOptions& o) { o.dt = -1e-4; });
  expect_throw([](TransientCosimOptions& o) { o.t_stop = 0.5e-4; });  // < dt
  expect_throw([](TransientCosimOptions& o) { o.record_every = 0; });
  // A steady-only backend must be rejected up front, not fail mid-run.
  // (Spectral is transient-capable since the exponential-integrator backend;
  // only the analytic image model remains steady-only.)
  expect_throw([](TransientCosimOptions& o) { o.backend = ThermalBackend::Analytic; });
}

TEST(OptionValidation, TransientRunsOnEveryTransientCapableBackend) {
  const auto fp = small_plan(1.0);
  const ActivityProfile nominal = [](std::size_t, double) { return 1.0; };
  for (ThermalBackend b : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    TransientCosimOptions opts;
    opts.backend = b;
    opts.fdm.nx = 8;
    opts.fdm.ny = 8;
    opts.fdm.nz = 4;
    opts.dt = 1e-3;
    opts.t_stop = 5e-3;
    const auto r = solve_transient_cosim(tech(), fp, nominal, opts);
    EXPECT_EQ(r.times.size(), r.block_temps.size()) << backend_label(b);
    EXPECT_GT(r.peak_temperature(), die_1mm().t_sink) << backend_label(b);
    EXPECT_GT(r.total_cg_iterations, 0) << backend_label(b);
    EXPECT_EQ(r.backend_stats.transient_steps, 5) << backend_label(b);
  }
}

}  // namespace
}  // namespace ptherm::core
