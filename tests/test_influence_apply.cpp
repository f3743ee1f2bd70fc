// Tests for the influence-apply seam: the spectral matrix-free operator
// against the dense build (operator-level and full-cosim equivalence,
// including a lumped package resistance, and the dense spectral columns
// bitwise against unit-vector applies), mode resolution/rejection of the
// InfluenceMode selector, the lazy dense realization, manycore-scale
// convergence without an n x n matrix, batch-vs-single bitwise equality of
// apply_batch (at every block count and remainder of the spectral apply,
// with zero, -0.0 and NaN vectors among finite ones), the spectral passes
// and point/map synthesis against pinned bit patterns, the interned spectral
// tables (shared edges, unshared random sources, clipped and off-die
// sources, duplicate samples), the dispatched block path (AVX2 or baseline)
// lane by lane against lone applies on odd mode counts, one x-interval,
// resumed pass-2 tiles and duplicate samples, and the transient step and
// readback that share the factored projection's halves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "numerics/explog.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {
namespace {

using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_2mm() {
  thermal::Die d;
  d.width = 2e-3;
  d.height = 2e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan manycore_plan(int tiles, double p_total = 4.0) {
  Rng rng(23);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(tech(), die_2mm(), tiles, tiles, cfg, rng);
}

CosimOptions spectral_opts(InfluenceMode mode) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = mode;
  return opts;
}

TEST(InfluenceApply, SpectralOperatorMatchesDenseMatvec) {
  // The seam itself: one matrix-free apply against the dense columns, same
  // sources, same samples, random powers.
  const auto fp = manycore_plan(3);  // 36 blocks
  const auto sources = fp.heat_sources(tech());
  const auto samples = block_centre_samples(fp);
  const thermal::SpectralBackend backend(fp.die(), {});

  const auto op = backend.make_influence_apply(sources, samples);
  ASSERT_EQ(op->size(), sources.size());
  EXPECT_EQ(op->kind(), "spectral-mode-space");

  const thermal::DenseInfluenceApply dense(backend.build_influence(sources, samples));
  Rng rng(99);
  std::vector<double> powers(sources.size());
  for (auto& p : powers) p = rng.uniform(0.0, 2.0);
  std::vector<double> free_rises(sources.size());
  std::vector<double> dense_rises(sources.size());
  op->apply(powers, free_rises);
  dense.apply(powers, dense_rises);
  for (std::size_t i = 0; i < powers.size(); ++i) {
    EXPECT_NEAR(free_rises[i], dense_rises[i], 1e-10) << "sample " << i;
  }
}

TEST(InfluenceApply, ApplyChecksSpanSizes) {
  const auto fp = manycore_plan(3);
  const auto sources = fp.heat_sources(tech());
  const auto samples = block_centre_samples(fp);
  const thermal::SpectralBackend backend(fp.die(), {});
  const auto op = backend.make_influence_apply(sources, samples);
  std::vector<double> powers(sources.size(), 1.0);
  std::vector<double> short_out(sources.size() - 1);
  std::vector<double> rises(sources.size());
  EXPECT_THROW(op->apply(powers, short_out), PreconditionError);
  const std::vector<double> short_powers(sources.size() - 1, 1.0);
  EXPECT_THROW(op->apply(short_powers, rises), PreconditionError);
}

TEST(InfluenceApply, DenseOnlyBackendsRejectForcedMatrixFree) {
  const auto fp = manycore_plan(3);
  for (const ThermalBackend backend : {ThermalBackend::Analytic, ThermalBackend::Fdm}) {
    CosimOptions opts;
    opts.backend = backend;
    opts.influence = InfluenceMode::MatrixFree;
    if (backend == ThermalBackend::Fdm) {
      opts.fdm.nx = 16;
      opts.fdm.ny = 16;
      opts.fdm.nz = 8;
    }
    EXPECT_THROW(ElectroThermalSolver(tech(), fp, opts), PreconditionError);
  }
}

TEST(InfluenceApply, AutoResolvesPerBackendCapability) {
  const auto fp = manycore_plan(3);
  ElectroThermalSolver spectral(tech(), fp, spectral_opts(InfluenceMode::Auto));
  EXPECT_TRUE(spectral.matrix_free());
  EXPECT_EQ(spectral.influence_apply().kind(), "spectral-mode-space");

  ElectroThermalSolver analytic(tech(), fp, {});
  EXPECT_FALSE(analytic.matrix_free());
  EXPECT_EQ(analytic.influence_apply().kind(), "dense");

  ElectroThermalSolver forced_dense(tech(), fp, spectral_opts(InfluenceMode::Dense));
  EXPECT_FALSE(forced_dense.matrix_free());
  EXPECT_EQ(forced_dense.influence_apply().kind(), "dense");
}

TEST(InfluenceApply, MatrixFreeCosimMatchesDenseCosim) {
  // The acceptance bar: the full concurrent solve, matrix-free versus the
  // dense reference, agrees to <= 1e-10 max |dT| at 36 blocks with the SAME
  // Picard iteration count.
  const auto fp = manycore_plan(3);
  ElectroThermalSolver dense(tech(), fp, spectral_opts(InfluenceMode::Dense));
  ElectroThermalSolver free_solver(tech(), fp, spectral_opts(InfluenceMode::MatrixFree));
  const auto rd = dense.solve();
  const auto rf = free_solver.solve();
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rf.converged);
  EXPECT_EQ(rd.iterations, rf.iterations);
  ASSERT_EQ(rd.blocks.size(), rf.blocks.size());
  for (std::size_t i = 0; i < rd.blocks.size(); ++i) {
    EXPECT_NEAR(rf.blocks[i].temperature, rd.blocks[i].temperature, 1e-10) << "block " << i;
  }
}

TEST(InfluenceApply, MatrixFreeCosimMatchesDenseCosimWithPackageResistance) {
  // r_package lives inside the dense matrix (add_uniform) but is folded in
  // analytically as r_pkg * sum(P) on the matrix-free path; the two must
  // still agree to the same bar.
  auto dense_opts = spectral_opts(InfluenceMode::Dense);
  auto free_opts = spectral_opts(InfluenceMode::MatrixFree);
  dense_opts.r_package = 0.5;
  free_opts.r_package = 0.5;
  const auto fp = manycore_plan(3);
  ElectroThermalSolver dense(tech(), fp, dense_opts);
  ElectroThermalSolver free_solver(tech(), fp, free_opts);
  const auto rd = dense.solve();
  const auto rf = free_solver.solve();
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rf.converged);
  EXPECT_EQ(rd.iterations, rf.iterations);
  for (std::size_t i = 0; i < rd.blocks.size(); ++i) {
    EXPECT_NEAR(rf.blocks[i].temperature, rd.blocks[i].temperature, 1e-10) << "block " << i;
  }
  // And the package term is genuinely in play: hotter than the bare solve.
  ElectroThermalSolver bare(tech(), fp, spectral_opts(InfluenceMode::MatrixFree));
  const auto rb = bare.solve();
  EXPECT_GT(rf.max_temperature, rb.max_temperature + 0.1);
}

TEST(InfluenceApply, LazyDenseRealizationMatchesTheOperator) {
  // influence_matrix() on a matrix-free solver realizes the dense matrix on
  // demand (including r_package) — the ablation/RC-network escape hatch.
  auto opts = spectral_opts(InfluenceMode::MatrixFree);
  opts.r_package = 0.25;
  const auto fp = manycore_plan(3);
  ElectroThermalSolver solver(tech(), fp, opts);
  const auto& dense = solver.influence_matrix();
  ASSERT_EQ(dense.size(), fp.blocks().size());

  std::vector<double> powers(dense.size(), 1.0);
  std::vector<double> from_matrix(dense.size());
  std::vector<double> from_operator(dense.size());
  dense.apply(powers, from_matrix);
  solver.influence_apply().apply(powers, from_operator);
  double p_total = 0.0;
  for (const double p : powers) p_total += p;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    // The operator excludes the package term; the realized matrix includes it.
    EXPECT_NEAR(from_matrix[i], from_operator[i] + opts.r_package * p_total, 1e-10);
  }
}

std::vector<double> random_powers(std::size_t n, Rng& rng) {
  std::vector<double> powers(n);
  for (auto& p : powers) p = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
  return powers;
}

// The matrix-free apply against the dense build on the same sources and
// samples, several random power vectors at once.
void expect_grouped_apply_matches_dense(const thermal::SpectralBackend& backend,
                                        const std::vector<thermal::HeatSource>& sources,
                                        const std::vector<thermal::SurfaceSample>& samples) {
  const auto op = backend.make_influence_apply(sources, samples);
  const thermal::DenseInfluenceApply dense(backend.build_influence(sources, samples));
  const std::size_t n = sources.size();
  constexpr std::size_t kVectors = 3;
  Rng rng(314);
  const auto powers = random_powers(kVectors * n, rng);
  std::vector<double> free_rises(kVectors * n);
  std::vector<double> dense_rises(kVectors * n);
  op->apply_batch(powers, free_rises, kVectors);
  dense.apply_batch(powers, dense_rises, kVectors);
  for (std::size_t i = 0; i < kVectors * n; ++i) {
    EXPECT_NEAR(free_rises[i], dense_rises[i], 1e-10) << "vector " << i / n << " sample " << i % n;
  }
}

std::vector<thermal::SurfaceSample> random_samples(const thermal::Die& die, std::size_t n,
                                                   Rng& rng) {
  std::vector<thermal::SurfaceSample> samples(n);
  for (auto& s : samples) s = {rng.uniform(0.0, die.width), rng.uniform(0.0, die.height)};
  return samples;
}

TEST(InfluenceApply, BatchApplyEqualsPerVectorAppliesBitwise) {
  // A vector's arithmetic does not depend on how many vectors share the
  // apply: count-k rises equal k count-1 applies bit for bit, on both
  // operators. Zero powers exercise the skip paths.
  const auto fp = manycore_plan(3);
  const auto sources = fp.heat_sources(tech());
  const auto samples = block_centre_samples(fp);
  const thermal::SpectralBackend backend(fp.die(), {});
  const auto spectral = backend.make_influence_apply(sources, samples);
  const thermal::DenseInfluenceApply dense(backend.build_influence(sources, samples));
  const std::size_t n = sources.size();
  constexpr std::size_t kVectors = 5;
  Rng rng(7);
  const auto powers = random_powers(kVectors * n, rng);
  const std::vector<const thermal::InfluenceApply*> ops = {spectral.get(), &dense};
  for (const auto* op : ops) {
    std::vector<double> batched(kVectors * n);
    op->apply_batch(powers, batched, kVectors);
    for (std::size_t k = 0; k < kVectors; ++k) {
      std::vector<double> single(n);
      op->apply_batch({powers.data() + k * n, n}, single, 1);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batched[k * n + i], single[i])
            << op->kind() << " vector " << k << " sample " << i;
      }
    }
  }
}

std::vector<thermal::HeatSource> random_sources(const thermal::Die& die, std::size_t n, Rng& rng) {
  std::vector<thermal::HeatSource> sources(n);
  for (auto& s : sources) {
    s.w = rng.uniform(50e-6, 400e-6);
    s.l = rng.uniform(50e-6, 400e-6);
    s.cx = rng.uniform(0.5 * s.w, die.width - 0.5 * s.w);
    s.cy = rng.uniform(0.5 * s.l, die.height - 0.5 * s.l);
  }
  return sources;
}

// Every count from 1 to 9 (no, one and two full blocks of the spectral
// apply, and every remainder) against lone count-1 applies. Vector 1 is all
// zero, vector 2 all -0.0 and vector 5 carries one NaN power among finite
// vectors: a finite vector's rises must match its lone apply bit for bit,
// and the NaN must stay in its own vector with its lone apply's pattern.
void expect_lanes_equal_lone_applies(const thermal::SpectralBackend& backend,
                                     const std::vector<thermal::HeatSource>& sources,
                                     const std::vector<thermal::SurfaceSample>& samples) {
  constexpr std::size_t kMaxVectors = 9;
  const std::size_t n = sources.size();
  Rng rng(2718);
  auto powers = random_powers(kMaxVectors * n, rng);
  std::fill_n(powers.begin() + n, n, 0.0);
  std::fill_n(powers.begin() + 2 * n, n, -0.0);
  powers[5 * n + n / 2] = std::numeric_limits<double>::quiet_NaN();
  const auto op = backend.make_influence_apply(sources, samples);
  std::vector<double> lone(kMaxVectors * n);
  for (std::size_t k = 0; k < kMaxVectors; ++k) {
    op->apply_batch({powers.data() + k * n, n}, {lone.data() + k * n, n}, 1);
  }
  for (std::size_t count = 1; count <= kMaxVectors; ++count) {
    std::vector<double> batched(count * n);
    op->apply_batch({powers.data(), count * n}, batched, count);
    for (std::size_t i = 0; i < count * n; ++i) {
      if (std::isnan(lone[i])) {
        EXPECT_TRUE(std::isnan(batched[i]))
            << "count " << count << " vector " << i / n << " sample " << i % n;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i]), std::bit_cast<std::uint64_t>(lone[i]))
            << "count " << count << " vector " << i / n << " sample " << i % n;
      }
    }
  }
  // The fixture exercises what it claims: zero vectors read back +0.0, the
  // NaN reaches its vector's rises and no other vector's.
  for (std::size_t i = n; i < 3 * n; ++i) EXPECT_EQ(std::bit_cast<std::uint64_t>(lone[i]), 0u);
  EXPECT_TRUE(std::isnan(lone[5 * n]));
  EXPECT_FALSE(std::isnan(lone[4 * n]) || std::isnan(lone[6 * n]));
}

TEST(InfluenceApply, BlockedApplyLanesEqualLoneAppliesBitwise) {
  {
    const auto fp = manycore_plan(3);  // 36 blocks, shared edges
    const thermal::SpectralBackend backend(fp.die(), {});
    expect_lanes_equal_lone_applies(backend, fp.heat_sources(tech()), block_centre_samples(fp));
  }
  {
    // Nothing shared: one table row per source and per sample (G = n), and
    // more x-intervals than one pass-2 tile of the block kernel.
    const auto die = die_2mm();
    Rng rng(13);
    const auto sources = random_sources(die, 150, rng);
    const auto samples = random_samples(die, sources.size(), rng);
    const thermal::SpectralBackend backend(die, {});
    ASSERT_EQ(backend.solver().make_influence_projection(sources, samples).source.x_intervals(),
              sources.size());
    expect_lanes_equal_lone_applies(backend, sources, samples);
  }
}

// The dispatched block path (F64x4 sums in the AVX2 clone, SSE2 pairs in
// the baseline build) against lone count-1 applies at counts 1-9 (every
// remainder), 64 (the batch engine's chunk) and 67 (a chunk plus a
// remainder of 3). Vectors 1, 2 and 5 of every eight are all +0.0, all
// -0.0 and finite with one NaN power; every other vector is finite.
void expect_dispatched_lanes_equal_lone_applies(
    const thermal::SpectralBackend& backend, const std::vector<thermal::HeatSource>& sources,
    const std::vector<thermal::SurfaceSample>& samples) {
  SCOPED_TRACE(numerics::dispatched_isa() == numerics::Isa::Avx2 ? "dispatched: AVX2"
                                                                 : "dispatched: baseline");
  constexpr std::size_t kMaxVectors = 67;
  const std::size_t n = sources.size();
  Rng rng(1618);
  auto powers = random_powers(kMaxVectors * n, rng);
  for (std::size_t k = 0; k < kMaxVectors; ++k) {
    if (k % 8 == 1) std::fill_n(powers.begin() + k * n, n, 0.0);
    if (k % 8 == 2) std::fill_n(powers.begin() + k * n, n, -0.0);
    if (k % 8 == 5) powers[k * n + (k % n)] = std::numeric_limits<double>::quiet_NaN();
  }
  const auto op = backend.make_influence_apply(sources, samples);
  std::vector<double> lone(kMaxVectors * n);
  for (std::size_t k = 0; k < kMaxVectors; ++k) {
    op->apply_batch({powers.data() + k * n, n}, {lone.data() + k * n, n}, 1);
  }
  for (const std::size_t count : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 67}) {
    std::vector<double> batched(count * n);
    op->apply_batch({powers.data(), count * n}, batched, count);
    for (std::size_t i = 0; i < count * n; ++i) {
      if (std::isnan(lone[i])) {
        ASSERT_TRUE(std::isnan(batched[i]))
            << "count " << count << " vector " << i / n << " sample " << i % n;
      } else {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[i]), std::bit_cast<std::uint64_t>(lone[i]))
            << "count " << count << " vector " << i / n << " sample " << i % n;
      }
    }
  }
  // The fixture exercises what it claims: zero vectors read back +0.0, a
  // NaN reaches its own vector's rises only.
  for (std::size_t i = n; i < 3 * n; ++i) EXPECT_EQ(std::bit_cast<std::uint64_t>(lone[i]), 0u);
  EXPECT_TRUE(std::isnan(lone[5 * n]));
  EXPECT_FALSE(std::isnan(lone[4 * n]) || std::isnan(lone[6 * n]));
}

TEST(InfluenceApply, DispatchedBlockLanesEqualLoneAppliesBitwise) {
  // 30 x 17 modes: neither axis a multiple of the block path's eight sums
  // per pass-2 sweep or eight rows per pass-4 call, so the single-sum tails
  // run in every block.
  thermal::SpectralOptions odd;
  odd.modes_x = 30;
  odd.modes_y = 17;
  const auto die = die_2mm();
  {
    const auto fp = manycore_plan(3);  // 36 blocks, shared edges
    const thermal::SpectralBackend backend(fp.die(), odd);
    expect_dispatched_lanes_equal_lone_applies(backend, fp.heat_sources(tech()),
                                               block_centre_samples(fp));
  }
  {
    // Gx = 1: every source spans the same x-interval, stacked along y.
    std::vector<thermal::HeatSource> sources(12);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      sources[j].w = 300e-6;
      sources[j].l = 120e-6;
      sources[j].cx = 0.8e-3;
      sources[j].cy = 0.1e-3 + 0.15e-3 * static_cast<double>(j);
    }
    Rng rng(3);
    const auto samples = random_samples(die, sources.size(), rng);
    const thermal::SpectralBackend backend(die, odd);
    ASSERT_EQ(backend.solver().make_influence_projection(sources, samples).source.x_intervals(),
              1u);
    expect_dispatched_lanes_equal_lone_applies(backend, sources, samples);
  }
  {
    // Gx > kIntervalTile (64): pass 2 resumes its sums across tiles.
    Rng rng(37);
    const auto sources = random_sources(die, 150, rng);
    const auto samples = random_samples(die, sources.size(), rng);
    const thermal::SpectralBackend backend(die, odd);
    ASSERT_GT(backend.solver().make_influence_projection(sources, samples).source.x_intervals(),
              64u);
    expect_dispatched_lanes_equal_lone_applies(backend, sources, samples);
  }
  {
    // Duplicate samples: several rises read the same synthesized column.
    const auto fp = manycore_plan(3);
    auto samples = block_centre_samples(fp);
    for (std::size_t p = 1; p < samples.size(); p += 2) samples[p] = samples[p - 1];
    const thermal::SpectralBackend backend(fp.die(), odd);
    expect_dispatched_lanes_equal_lone_applies(backend, fp.heat_sources(tech()), samples);
  }
  {
    // The default 64 x 64 modes on the shared-edge plan.
    const auto fp = manycore_plan(3);
    const thermal::SpectralBackend backend(fp.die(), {});
    expect_dispatched_lanes_equal_lone_applies(backend, fp.heat_sources(tech()),
                                               block_centre_samples(fp));
  }
}

// The dense spectral build is the matrix-free operator entry for entry:
// column j is bitwise a count-1 apply of the unit vector e_j.
void expect_dense_columns_equal_unit_applies(const thermal::SpectralBackend& backend,
                                             const std::vector<thermal::HeatSource>& sources,
                                             const std::vector<thermal::SurfaceSample>& samples) {
  const std::size_t n = sources.size();
  const auto dense = backend.build_influence(sources, samples);
  const auto op = backend.make_influence_apply(sources, samples);
  std::vector<double> unit(n, 0.0);
  std::vector<double> column(n);
  for (std::size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    op->apply_batch(unit, column, 1);
    unit[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dense(i, j)), std::bit_cast<std::uint64_t>(column[i]))
          << n << " sources, entry (" << i << ", " << j << ")";
    }
  }
}

TEST(InfluenceApply, SpectralDenseColumnsEqualUnitAppliesBitwise) {
  const auto fp = manycore_plan(3);
  expect_dense_columns_equal_unit_applies(thermal::SpectralBackend(fp.die(), {}),
                                          fp.heat_sources(tech()), block_centre_samples(fp));
  const auto die = die_2mm();
  Rng rng(19);
  const auto sources = random_sources(die, 40, rng);
  expect_dense_columns_equal_unit_applies(thermal::SpectralBackend(die, {}), sources,
                                          random_samples(die, sources.size(), rng));
}

// A fingerprint of every bit pattern of `values` plus four of them in full.
// The expected patterns were captured from the library when the projection
// and synthesis passes still had separate one-vector and four-vector
// bodies, and surface_rise and the non-power-of-two surface_map still
// summed their own cosines; they pin that the shared passes changed no bit.
struct PinnedValues {
  std::uint64_t hash;
  double first, third, two_thirds, last;
};

std::uint64_t bit_hash(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3u;
  }
  return h;
}

void expect_pinned(std::span<const double> values, const PinnedValues& pin, const char* what) {
  ASSERT_GE(values.size(), 4u) << what;
  const std::size_t n = values.size();
  const std::size_t at[] = {0, n / 3, 2 * n / 3, n - 1};
  const double want[] = {pin.first, pin.third, pin.two_thirds, pin.last};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(values[at[k]]), std::bit_cast<std::uint64_t>(want[k]))
        << what << "[" << at[k] << "] = " << std::hexfloat << values[at[k]];
  }
  EXPECT_EQ(bit_hash(values), pin.hash) << what << " hash 0x" << std::hex << bit_hash(values);
}

struct PinnedPlan {
  PinnedValues rises, flux, synthesized, surface_rise, map;
};

// One plan's count-1 apply, project flux, synthesized values, surface_rise
// at every sample and a 24 x 23 surface_map (the grid the radix-2 DCT cannot
// take), each against its pin; surface_rise must also be bitwise a
// one-point synthesize.
void expect_plan_pinned(const thermal::Die& die, std::vector<thermal::HeatSource> sources,
                        const std::vector<thermal::SurfaceSample>& samples,
                        const PinnedPlan& pin) {
  const std::size_t n = sources.size();
  Rng rng(41);
  const auto powers = random_powers(n, rng);
  for (std::size_t j = 0; j < n; ++j) sources[j].power = powers[j];
  const thermal::SpectralThermalSolver solver(die, {});
  const std::size_t modes = static_cast<std::size_t>(solver.mode_count());

  auto influence = solver.make_influence_projection(sources, samples);
  std::vector<double> rises(n);
  solver.apply_influence_batch(influence, powers, rises, 1);
  expect_pinned(rises, pin.rises, "rises");

  auto source = solver.make_source_projection(sources);
  std::vector<double> flux(modes);
  source.project(powers, flux);
  expect_pinned(flux, pin.flux, "flux");

  const auto sol = solver.solve_steady(sources);
  auto sample = solver.make_sample_synthesis(samples);
  std::vector<double> synthesized(samples.size());
  sample.synthesize(sol.coeff, synthesized);
  expect_pinned(synthesized, pin.synthesized, "synthesized");

  std::vector<double> point_rises(samples.size());
  for (std::size_t p = 0; p < samples.size(); ++p) {
    point_rises[p] = solver.surface_rise(sol, samples[p].x, samples[p].y);
    auto one = solver.make_sample_synthesis({&samples[p], 1});
    double value = 0.0;
    one.synthesize(sol.coeff, {&value, 1});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(point_rises[p]), std::bit_cast<std::uint64_t>(value))
        << "sample " << p;
  }
  expect_pinned(point_rises, pin.surface_rise, "surface_rise");

  expect_pinned(solver.surface_map(sol, 24, 23), pin.map, "surface_map");
}

TEST(InfluenceApply, SpectralPassesMatchParentCapturedBits) {
  {
    const auto fp = manycore_plan(3);  // 36 blocks, shared edges
    expect_plan_pinned(fp.die(), fp.heat_sources(tech()), block_centre_samples(fp),
                       {{0xe9de7267146b8fabu, 0x1.11342a50f394p+3, 0x1.28f87181996f6p+3,
                         0x1.c05da6152e665p+2, 0x1.c4e31374adfcp+4},
                        {0xc05743dfc047f975u, 0x1.d1ae97648b26bp+22, -0x1.987a2fbfd66cbp+12,
                         0x1.5918e246cfce4p+10, -0x1.3ebb5ba2fedcdp+9},
                        {0x6adc3f7877ea58d7u, 0x1.11342a50f3942p+3, 0x1.28f87181996f7p+3,
                         0x1.c05da6152e664p+2, 0x1.c4e31374adfcp+4},
                        {0x6adc3f7877ea58d7u, 0x1.11342a50f3942p+3, 0x1.28f87181996f7p+3,
                         0x1.c05da6152e664p+2, 0x1.c4e31374adfcp+4},
                        {0xd862bbd0a1159399u, 0x1.aff32987b6576p+1, 0x1.63402e266469ap+4,
                         0x1.18e93724efc9fp+4, 0x1.8a4867e682905p+3}});
  }
  {
    // Nothing shared, and more x-intervals than one pass-2 tile.
    const auto die = die_2mm();
    Rng rng(29);
    const auto sources = random_sources(die, 150, rng);
    const auto samples = random_samples(die, sources.size(), rng);
    expect_plan_pinned(die, sources, samples,
                       {{0x4db73da86c3a0617u, 0x1.28470eb414001p+6, 0x1.11104f8d3cc25p+4,
                         0x1.c19c6542c6eacp+5, 0x1.d98235493fbfap+5},
                        {0xe07f3ad7be07fffau, 0x1.c4a844fd1bba5p+24, 0x1.994a43c6de66ep+20,
                         0x1.5743bcdf4d044p+16, 0x1.2594644201e64p+10},
                        {0xc9a1190426661d18u, 0x1.28470eb414003p+6, 0x1.11104f8d3cc25p+4,
                         0x1.c19c6542c6eabp+5, 0x1.d98235493fbfap+5},
                        {0xc9a1190426661d18u, 0x1.28470eb414003p+6, 0x1.11104f8d3cc25p+4,
                         0x1.c19c6542c6eabp+5, 0x1.d98235493fbfap+5},
                        {0x9a4acfdd39d10a16u, 0x1.306289b2342eap+4, 0x1.36215f6ec3e1bp+6,
                         0x1.1c74d47f92d1bp+7, 0x1.9f0bfedd1172ap+4}});
  }
}

TEST(InfluenceApply, GroupedApplyMatchesDenseOnManycore) {
  // Shared footprint edges and sample columns: the interned tables carry
  // many sources per row.
  const auto fp = manycore_plan(4);
  const thermal::SpectralBackend backend(fp.die(), {});
  expect_grouped_apply_matches_dense(backend, fp.heat_sources(tech()), block_centre_samples(fp));
}

TEST(InfluenceApply, GroupedApplyMatchesDenseOnRandomSources) {
  // Nothing aligned: every source and sample is its own table row.
  const auto die = die_2mm();
  Rng rng(11);
  const auto sources = random_sources(die, 40, rng);
  const auto samples = random_samples(die, sources.size(), rng);
  const thermal::SpectralBackend backend(die, {});
  const auto proj = backend.solver().make_influence_projection(sources, samples);
  EXPECT_EQ(proj.source.x_intervals(), sources.size());
  EXPECT_EQ(proj.source.flux_y.size() / proj.source.modes_y, sources.size());
  EXPECT_EQ(proj.sample.sample_xs(), sources.size());
  expect_grouped_apply_matches_dense(backend, sources, samples);
}

TEST(InfluenceApply, GroupedApplyMatchesDenseWithClippedAndOffDieSources) {
  // Partially clipped sources deposit their full power over the clipped
  // footprint; fully off-die sources contribute nothing. Two sources that
  // clip to the same interval share its row.
  const auto die = die_2mm();
  const std::vector<thermal::HeatSource> sources = {
      {0.5e-3, 0.5e-3, 0.4e-3, 0.4e-3, 0.0},    // on die
      {0.0, 1.0e-3, 0.5e-3, 0.3e-3, 0.0},       // clipped at x = 0
      {-0.25e-3, 1.4e-3, 1.0e-3, 0.3e-3, 0.0},  // clips to the same x-interval
      {1.9e-3, 1.95e-3, 0.4e-3, 0.4e-3, 0.0},   // clipped at both far edges
      {3.0e-3, 1.0e-3, 0.2e-3, 0.2e-3, 0.0},    // fully off die in x
      {1.0e-3, -0.5e-3, 0.2e-3, 0.2e-3, 0.0},   // fully off die in y
  };
  const std::vector<thermal::SurfaceSample> samples = {
      {0.5e-3, 0.5e-3},  // source centre
      {0.1e-3, 1.0e-3},  // inside the shared clipped interval
      {0.2e-3, 1.0e-3},  // same
      {1.9e-3, 1.9e-3},  // near the far corner
      {2.0e-3, 1.0e-3},  // on the x = W edge
      {1.0e-3, 0.0},     // on the y = 0 edge
  };
  const thermal::SpectralBackend backend(die, {});
  const auto proj = backend.solver().make_influence_projection(sources, samples);
  EXPECT_EQ(proj.source.x_intervals(), 3u);
  EXPECT_EQ(proj.source.sources[4].weight, 0.0);
  EXPECT_EQ(proj.source.sources[5].weight, 0.0);
  expect_grouped_apply_matches_dense(backend, sources, samples);
}

TEST(InfluenceApply, GroupedApplyMatchesDenseWithDuplicateSamples) {
  const auto fp = manycore_plan(3);
  auto samples = block_centre_samples(fp);
  for (std::size_t p = 1; p < samples.size(); p += 2) samples[p] = samples[p - 1];
  const auto sources = fp.heat_sources(tech());
  const thermal::SpectralBackend backend(fp.die(), {});
  expect_grouped_apply_matches_dense(backend, sources, samples);

  const auto op = backend.make_influence_apply(sources, samples);
  std::vector<double> rises(sources.size());
  op->apply(std::vector<double>(sources.size(), 1.0), rises);
  for (std::size_t p = 1; p < samples.size(); p += 2) EXPECT_EQ(rises[p], rises[p - 1]);
}

TEST(InfluenceApply, ManycoreProjectionInternsThreeIntervalsPerTileColumn) {
  // A t x t tile grid has 4 t^2 blocks but only 3t distinct clipped
  // x-intervals and 3t distinct block-centre x-coordinates.
  for (const int t : {3, 8}) {
    const auto fp = manycore_plan(t);
    const thermal::SpectralThermalSolver solver(fp.die(), {});
    const auto proj =
        solver.make_influence_projection(fp.heat_sources(tech()), block_centre_samples(fp));
    EXPECT_EQ(proj.count, static_cast<std::size_t>(4 * t * t));
    EXPECT_EQ(proj.source.x_intervals(), static_cast<std::size_t>(3 * t)) << t << " x " << t;
    EXPECT_EQ(proj.sample.sample_xs(), static_cast<std::size_t>(3 * t)) << t << " x " << t;
  }
}

TEST(InfluenceApply, ManycoreScaleCosimConvergesMatrixFree) {
  // 16x16 tiles = 1024 blocks: the scale the dense build exists to avoid
  // (the n x n matrix alone would be 8 MB and O(n^2 modes) to fill). The
  // matrix-free solve must converge with the usual iteration budget.
  const auto fp = manycore_plan(16, 30.0);
  ASSERT_EQ(fp.blocks().size(), 1024u);
  ElectroThermalSolver solver(tech(), fp, spectral_opts(InfluenceMode::Auto));
  EXPECT_TRUE(solver.matrix_free());
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  EXPECT_EQ(r.blocks.size(), 1024u);
  EXPECT_GT(r.max_temperature, fp.die().t_sink);
}

// After one held-power step long enough that every z-mode has fully
// decayed, the spectral transient field is the steady solve; read back
// through the transient's sample half it must equal the steady influence
// apply over the same geometry, whose source and sample halves are the same
// tables (different summation order, so rounding-level, not bitwise).
void expect_settled_transient_matches_steady_apply(
    const std::vector<thermal::HeatSource>& sources,
    const std::vector<thermal::SurfaceSample>& samples) {
  const thermal::SpectralBackend backend(die_2mm(), {});
  const auto state = backend.make_transient_state();
  backend.step_transient(*state, 10.0, sources);  // ~2e4 slowest time constants
  std::vector<double> settled(samples.size());
  state->surface_rises(samples, settled);

  std::vector<double> powers;
  for (const auto& s : sources) powers.push_back(s.power);
  std::vector<double> steady(samples.size());
  backend.make_influence_apply(sources, samples)->apply(powers, steady);
  const double scale = *std::max_element(steady.begin(), steady.end());
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_NEAR(settled[i], steady[i], 1e-10 * scale) << "sample " << i;
  }
}

TEST(TransientProjection, SettledFieldEqualsSteadyApplyOnTiledPlan) {
  const auto fp = manycore_plan(3);
  auto sources = fp.heat_sources(tech());
  const auto samples = block_centre_samples(fp);
  Rng rng(5);
  for (auto& s : sources) s.power = rng.uniform(0.1, 2.0);
  const thermal::SpectralThermalSolver solver(fp.die(), {});
  ASSERT_LT(solver.make_source_projection(sources).x_intervals(), sources.size());
  expect_settled_transient_matches_steady_apply(sources, samples);
}

TEST(TransientProjection, SettledFieldEqualsSteadyApplyOnRandomPlan) {
  // Nothing aligned (one table row per source), plus a source straddling
  // the x = 0 edge and one fully off the die.
  const auto die = die_2mm();
  Rng rng(17);
  std::vector<thermal::HeatSource> sources(30);
  for (auto& s : sources) {
    s.w = rng.uniform(50e-6, 400e-6);
    s.l = rng.uniform(50e-6, 400e-6);
    s.cx = rng.uniform(0.5 * s.w, die.width - 0.5 * s.w);
    s.cy = rng.uniform(0.5 * s.l, die.height - 0.5 * s.l);
    s.power = rng.uniform(0.1, 2.0);
  }
  sources.push_back({0.0, 1.0e-3, 0.5e-3, 0.3e-3, 1.5});     // straddles x = 0
  sources.push_back({3.0e-3, 1.0e-3, 0.2e-3, 0.2e-3, 2.0});  // fully off die
  const thermal::SpectralThermalSolver solver(die, {});
  ASSERT_EQ(solver.make_source_projection(sources).x_intervals(), sources.size() - 1);
  expect_settled_transient_matches_steady_apply(sources, random_samples(die, sources.size(), rng));
}

}  // namespace
}  // namespace ptherm::core
