#include "thermal/backend.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::thermal {

DenseInfluenceApply::DenseInfluenceApply(numerics::Matrix r) : r_(std::move(r)) {
  PTHERM_REQUIRE(r_.rows() == r_.cols(),
                 "DenseInfluenceApply: influence matrix must be square");
}

double DenseInfluenceApply::at(std::size_t i, std::size_t j) const {
  PTHERM_REQUIRE(i < size() && j < size(), "DenseInfluenceApply: index out of range");
  return r_(i, j);
}

void DenseInfluenceApply::add_uniform(double resistance) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) r_(i, j) += resistance;
  }
}

std::vector<double> DenseInfluenceApply::apply(std::span<const double> powers) const {
  std::vector<double> rises(size());
  apply(powers, rises);
  return rises;
}

void DenseInfluenceApply::apply_batch(std::span<const double> powers,
                                      std::span<double> rises, std::size_t count) const {
  // The documented contract, enforced: a silent mismatch would be an
  // out-of-bounds matvec.
  PTHERM_REQUIRE(powers.size() == count * size() && rises.size() == count * size(),
                 "InfluenceApply::apply_batch: powers/rises must have count * size() elements");
  TELEMETRY_SPAN("dense/apply_influence");
  r_.multiply_batch(powers, rises, count);
}

std::unique_ptr<InfluenceApply> resolve_influence_apply(
    const SolverBackend& backend, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples) {
  if (backend.supports_matrix_free_influence()) {
    return backend.make_influence_apply(sources, samples);
  }
  return std::make_unique<DenseInfluenceApply>(backend.build_influence(sources, samples));
}

std::unique_ptr<InfluenceApply> SolverBackend::make_influence_apply(
    std::span<const HeatSource>, std::span<const SurfaceSample>) const {
  std::ostringstream os;
  os << "thermal backend '" << name()
     << "' has no matrix-free influence path (build_influence instead)";
  throw PreconditionError(os.str());
}

std::unique_ptr<SolverBackend::TransientState> SolverBackend::make_transient_state() const {
  std::ostringstream os;
  os << "thermal backend '" << name() << "' does not support transients";
  throw PreconditionError(os.str());
}

int SolverBackend::step_transient(TransientState&, double,
                                  const std::vector<HeatSource>&) const {
  std::ostringstream os;
  os << "thermal backend '" << name() << "' does not support transients";
  throw PreconditionError(os.str());
}

void SolverBackend::TransientState::surface_rises(std::span<const SurfaceSample> points,
                                                  std::span<double> out) const {
  PTHERM_REQUIRE(out.size() == points.size(),
                 "TransientState::surface_rises: output size mismatch");
  for (std::size_t p = 0; p < points.size(); ++p) {
    out[p] = surface_rise(points[p].x, points[p].y);
  }
}

std::vector<double> SolverBackend::surface_rise_map(const std::vector<HeatSource>& sources,
                                                    int nx, int ny) const {
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_rise_map: need at least a 2x2 grid");
  std::vector<SurfaceSample> points;
  points.reserve(static_cast<std::size_t>(nx) * ny);
  for (int j = 0; j < ny; ++j) {
    const double y = die().height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      points.push_back({die().width * (i + 0.5) / nx, y});
    }
  }
  return surface_rises(sources, points);
}

// ------------------------------------------------------------------ analytic

AnalyticImagesBackend::AnalyticImagesBackend(Die die, ImageOptions opts)
    : die_(die), opts_(opts) {}

std::vector<double> AnalyticImagesBackend::surface_rises(
    const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const {
  const ChipThermalModel model(die_, sources, opts_);
  ++stats_.steady_solves;
  std::vector<double> rises(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    rises[p] = model.rise(points[p].x, points[p].y);
  }
  return rises;
}

numerics::Matrix AnalyticImagesBackend::build_influence(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return analytic_influence_columns(die_, sources, samples, opts_, &stats_);
}

// ---------------------------------------------------------------------- fdm

namespace {

/// Whether two point sets are the same points in the same order — the key
/// check of the transient states' readback caches.
bool same_points(std::span<const SurfaceSample> a, std::span<const SurfaceSample> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SurfaceSample& p, const SurfaceSample& q) {
                      return p.x == q.x && p.y == q.y;
                    });
}

/// FDM transient field: the backward-Euler state plus the solver handle that
/// interprets it. Batched readback caches the per-point bilinear stencils
/// (top-layer cell indices + weights) keyed by the query points: transient
/// drivers ask for the same block centres every epoch, so the bounds
/// clamping and centre arithmetic of FdmThermalSolver::surface_rise is paid
/// once per point set, not once per point per step.
class FdmTransientState final : public SolverBackend::TransientState {
 public:
  explicit FdmTransientState(const FdmThermalSolver& solver) : solver_(&solver) {
    field_.rise.assign(solver.cell_count(), 0.0);
    field_.converged = true;
  }

  [[nodiscard]] double surface_rise(double x, double y) const override {
    return solver_->surface_rise(field_, x, y);
  }

  void surface_rises(std::span<const SurfaceSample> points,
                     std::span<double> out) const override {
    PTHERM_REQUIRE(out.size() == points.size(),
                   "TransientState::surface_rises: output size mismatch");
    if (!same_points(stencil_points_, points)) rebuild_stencil(points);
    const double* rise = field_.rise.data();
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::size_t* idx = stencil_index_.data() + 4 * p;
      const double* w = stencil_weight_.data() + 4 * p;
      // Same term order and grouping as surface_rise, so the cached path is
      // bitwise-identical to the per-point one (tested).
      out[p] = w[0] * rise[idx[0]] + w[1] * rise[idx[1]] + w[2] * rise[idx[2]] +
               w[3] * rise[idx[3]];
    }
  }

  [[nodiscard]] std::vector<double>& rise() noexcept { return field_.rise; }
  [[nodiscard]] const FdmThermalSolver* solver() const noexcept { return solver_; }

 private:
  void rebuild_stencil(std::span<const SurfaceSample> points) const {
    stencil_index_.resize(4 * points.size());
    stencil_weight_.resize(4 * points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      // The solver owns the clamp/centre arithmetic (surface_stencil is the
      // one implementation); this cache merely hoists it out of the
      // per-step loop.
      solver_->surface_stencil(points[p].x, points[p].y, stencil_index_.data() + 4 * p,
                               stencil_weight_.data() + 4 * p);
    }
    stencil_points_.assign(points.begin(), points.end());
  }

  const FdmThermalSolver* solver_;
  FdmThermalSolver::Solution field_;
  mutable std::vector<SurfaceSample> stencil_points_;
  mutable std::vector<std::size_t> stencil_index_;
  mutable std::vector<double> stencil_weight_;
};

}  // namespace

FdmBackend::FdmBackend(Die die, FdmOptions opts)
    : FdmBackend(die, DieStack::single(die), opts) {}

FdmBackend::FdmBackend(Die die, DieStack stack, FdmOptions opts)
    : solver_(die, std::move(stack), opts) {}

std::vector<double> FdmBackend::surface_rises(const std::vector<HeatSource>& sources,
                                              std::span<const SurfaceSample> points) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  stats_.cg_iterations += sol.cg_iterations;
  if (!sol.converged) {
    std::ostringstream os;
    os << "FdmBackend: steady solve failed: "
       << (sol.breakdown ? "CG breakdown (operator not positive definite)"
                         : "CG hit the iteration limit")
       << ", relative residual " << sol.residual << " after " << sol.cg_iterations
       << " iterations";
    throw ConvergenceError(os.str());
  }
  std::vector<double> rises(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    rises[p] = solver_.surface_rise(sol, points[p].x, points[p].y);
  }
  return rises;
}

numerics::Matrix FdmBackend::build_influence(std::span<const HeatSource> sources,
                                             std::span<const SurfaceSample> samples) const {
  return fdm_influence_columns(solver_, sources, samples, true, &stats_);
}

std::unique_ptr<SolverBackend::TransientState> FdmBackend::make_transient_state() const {
  return std::make_unique<FdmTransientState>(solver_);
}

int FdmBackend::step_transient(TransientState& state, double dt,
                               const std::vector<HeatSource>& sources) const {
  auto* fdm_state = dynamic_cast<FdmTransientState*>(&state);
  PTHERM_REQUIRE(fdm_state != nullptr && fdm_state->solver() == &solver_,
                 "FdmBackend: transient state belongs to a different backend");
  const int iterations = solver_.step_transient(fdm_state->rise(), dt, sources);
  stats_.cg_iterations += iterations;
  ++stats_.transient_steps;
  return iterations;
}

BackendCostStats FdmBackend::cost_stats() const {
  BackendCostStats stats = stats_;
  stats.transient_power_updates = solver_.transient_power_updates();
  return stats;
}

// ----------------------------------------------------------------- spectral

namespace {

/// Spectral transient field: the per-mode amplitudes plus the sample half
/// of the factored projection for the last query points, so the per-step
/// block-temperature readback is the two interned synthesis passes —
/// O(G * modes + n * modes_y), no n x modes table. The half is keyed by the
/// query points: transient drivers ask for the same block centres every
/// step, so it is built once.
class SpectralTransientState final : public SolverBackend::TransientState {
 public:
  explicit SpectralTransientState(const SpectralThermalSolver& solver)
      : solver_(&solver),
        state_(solver.make_transient()),
        synthesis_(solver.make_sample_synthesis({})) {}

  [[nodiscard]] double surface_rise(double x, double y) const override {
    return solver_->surface_rise(state_.surface, x, y);
  }

  void surface_rises(std::span<const SurfaceSample> points,
                     std::span<double> out) const override {
    PTHERM_REQUIRE(out.size() == points.size(),
                   "TransientState::surface_rises: output size mismatch");
    if (!same_points(synthesis_points_, points)) {
      synthesis_ = solver_->make_sample_synthesis(points);
      synthesis_points_.assign(points.begin(), points.end());
    }
    synthesis_.synthesize(state_.surface.coeff, out);
  }

  [[nodiscard]] SpectralThermalSolver::TransientSolution& state() noexcept { return state_; }
  [[nodiscard]] const SpectralThermalSolver* solver() const noexcept { return solver_; }

 private:
  const SpectralThermalSolver* solver_;
  SpectralThermalSolver::TransientSolution state_;
  mutable SpectralThermalSolver::SampleSynthesis synthesis_;
  mutable std::vector<SurfaceSample> synthesis_points_;
};

/// The spectral matrix-free influence apply: projection and synthesis
/// tables interned once over the distinct footprint edges and sample
/// coordinates, then each apply is powers -> per-x-interval flux ->
/// flux modes -> per-mode transfer -> synthesis along x per distinct sample
/// x -> along y per sample, O(n * modes_per_axis + G * modes) with G the
/// distinct-row count and no n x n storage anywhere. The scratch inside the
/// projection mutates under const apply (like the backend cost counters,
/// the backend layer is not thread-safe).
class SpectralInfluenceApply final : public InfluenceApply {
 public:
  SpectralInfluenceApply(const SpectralThermalSolver& solver,
                         std::span<const HeatSource> sources,
                         std::span<const SurfaceSample> samples)
      : solver_(&solver), proj_(solver.make_influence_projection(sources, samples)) {}

  [[nodiscard]] std::size_t size() const noexcept override { return proj_.count; }

  void apply_batch(std::span<const double> powers, std::span<double> rises,
                   std::size_t count) const override {
    TELEMETRY_SPAN("spectral/apply_influence");
    PTHERM_REQUIRE(powers.size() == count * proj_.count && rises.size() == count * proj_.count,
                   "InfluenceApply::apply_batch: powers/rises must have count * size() "
                   "elements");
    solver_->apply_influence_batch(proj_, powers, rises, count);
  }

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "spectral-mode-space";
  }

 private:
  const SpectralThermalSolver* solver_;
  mutable SpectralThermalSolver::InfluenceProjection proj_;
};

}  // namespace

SpectralBackend::SpectralBackend(Die die, SpectralOptions opts)
    : SpectralBackend(die, DieStack::single(die), opts) {}

SpectralBackend::SpectralBackend(Die die, DieStack stack, SpectralOptions opts)
    : solver_(die, std::move(stack), opts) {
  stats_.modes = solver_.mode_count();
}

std::unique_ptr<InfluenceApply> SpectralBackend::make_influence_apply(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return std::make_unique<SpectralInfluenceApply>(solver_, sources, samples);
}

std::unique_ptr<SolverBackend::TransientState> SpectralBackend::make_transient_state() const {
  return std::make_unique<SpectralTransientState>(solver_);
}

int SpectralBackend::step_transient(TransientState& state, double dt,
                                    const std::vector<HeatSource>& sources) const {
  auto* sp_state = dynamic_cast<SpectralTransientState*>(&state);
  PTHERM_REQUIRE(sp_state != nullptr && sp_state->solver() == &solver_,
                 "SpectralBackend: transient state belongs to a different backend");
  const int iterations = solver_.step_transient(sp_state->state(), dt, sources);
  ++stats_.transient_steps;
  return iterations;
}

std::vector<double> SpectralBackend::surface_rises(
    const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  std::vector<double> rises(points.size());
  solver_.make_sample_synthesis(points).synthesize(sol.coeff, rises);
  return rises;
}

std::vector<double> SpectralBackend::surface_rise_map(const std::vector<HeatSource>& sources,
                                                      int nx, int ny) const {
  const auto sol = solver_.solve_steady(sources);
  ++stats_.steady_solves;
  return solver_.surface_map(sol, nx, ny);
}

numerics::Matrix SpectralBackend::build_influence(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  return spectral_influence_columns(solver_, sources, samples, &stats_);
}

BackendCostStats SpectralBackend::cost_stats() const {
  BackendCostStats stats = stats_;
  stats.fft_calls = solver_.fft_calls();
  stats.transient_power_updates = solver_.transient_power_updates();
  return stats;
}

// ------------------------------------------------------------ column builds

numerics::Matrix analytic_influence_columns(const Die& die,
                                            std::span<const HeatSource> sources,
                                            std::span<const SurfaceSample> samples,
                                            const ImageOptions& opts,
                                            BackendCostStats* stats) {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  numerics::Matrix r(samples.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    // A single-source model per column evaluates only that column's mirror
    // images — superposition makes the other sources' zero-power images
    // exactly nothing.
    std::vector<HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const ChipThermalModel model(die, std::move(one), opts);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r(i, j) = model.rise(samples[i].x, samples[i].y);
    }
  }
  if (stats != nullptr) stats->influence_columns += static_cast<int>(n);
  return r;
}

numerics::Matrix fdm_influence_columns(const FdmThermalSolver& solver,
                                       std::span<const HeatSource> sources,
                                       std::span<const SurfaceSample> samples, bool warm_start,
                                       BackendCostStats* stats) {
  const std::size_t n = sources.size();
  PTHERM_REQUIRE(n > 0, "influence: no sources");
  PTHERM_REQUIRE(samples.size() == n, "influence: need one sample per source");
  numerics::Matrix r(samples.size(), n);
  std::vector<double> prev;  // previous column's converged field
  std::vector<double> x0;    // translated warm-start scratch
  double prev_cx = 0.0;
  double prev_cy = 0.0;
  const int nx = solver.nx();
  const int ny = solver.ny();
  const int nz = solver.nz();
  const double dx = solver.die().width / nx;
  const double dy = solver.die().height / ny;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<HeatSource> one = {sources[j]};
    one[0].power = 1.0;
    const std::vector<double>* start = nullptr;
    if (warm_start && !prev.empty()) {
      // Adjacent blocks have near-identical fields up to a lateral shift, so
      // the previous column's field translated (edge-replicated) onto this
      // column's source position is a far better first iterate than the
      // unshifted field — unit-source right-hand sides are nearly disjoint,
      // which makes the plain previous iterate no better than zero.
      const int di = static_cast<int>(std::lround((sources[j].cx - prev_cx) / dx));
      const int dj = static_cast<int>(std::lround((sources[j].cy - prev_cy) / dy));
      x0.resize(prev.size());
      for (int k = 0; k < nz; ++k) {
        for (int jj = 0; jj < ny; ++jj) {
          const int sj = std::clamp(jj - dj, 0, ny - 1);
          for (int ii = 0; ii < nx; ++ii) {
            const int si = std::clamp(ii - di, 0, nx - 1);
            x0[solver.cell_index(ii, jj, k)] = prev[solver.cell_index(si, sj, k)];
          }
        }
      }
      start = &x0;
    }
    auto sol = solver.solve_steady(one, start);
    if (!sol.converged) {
      std::ostringstream os;
      os << "influence: FDM solve for column " << j << " failed: "
         << (sol.breakdown ? "CG breakdown (operator not positive definite)"
                           : "CG hit the iteration limit")
         << ", relative residual " << sol.residual << " after " << sol.cg_iterations
         << " iterations";
      PTHERM_REQUIRE(sol.converged, os.str());
    }
    if (stats != nullptr) {
      stats->cg_iterations += sol.cg_iterations;
      ++stats->influence_columns;
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      r(i, j) = solver.surface_rise(sol, samples[i].x, samples[i].y);
    }
    prev = std::move(sol.rise);
    prev_cx = sources[j].cx;
    prev_cy = sources[j].cy;
  }
  return r;
}

numerics::Matrix spectral_influence_columns(const SpectralThermalSolver& solver,
                                            std::span<const HeatSource> sources,
                                            std::span<const SurfaceSample> samples,
                                            BackendCostStats* stats) {
  // Column j is the matrix-free apply of the unit vector e_j, all n in one
  // batched apply. Each vector's rises are bitwise its lone apply's, so the
  // dense and matrix-free operators agree entry for entry.
  auto proj = solver.make_influence_projection(sources, samples);
  const std::size_t n = sources.size();
  std::vector<double> units(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) units[j * n + j] = 1.0;
  std::vector<double> columns(n * n);
  solver.apply_influence_batch(proj, units, columns, n);
  numerics::Matrix r(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) r(i, j) = columns[j * n + i];
  }
  if (stats != nullptr) {
    stats->influence_columns += static_cast<int>(n);
    stats->modes = solver.mode_count();
  }
  return r;
}

}  // namespace ptherm::thermal
