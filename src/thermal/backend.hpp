// Pluggable thermal-backend layer: one interface over every way this library
// can turn surface heat sources into temperature rises. The concurrent
// electro-thermal solver, the transient co-simulation, and the influence
// operator all program against `SolverBackend` instead of switching on an
// enum, so a new solver (adaptive multigrid, GPU, package RC, ...) is a
// drop-in: implement the interface, add a factory case.
//
// Capabilities:
//  * steady solve + surface-rise queries (one shared solve, many points)
//  * surface-rise maps on cell-centre grids
//  * batched influence-column builds (rise per watt, column per source)
//  * optional transient stepping (backends that can integrate in time)
//  * cost counters for the perf trajectory (CG iterations, modes, FFTs)
//
// Backends are not thread-safe: the cost counters (and the FDM transient
// cache) mutate under const calls. Use one backend instance per thread.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "numerics/dense.hpp"
#include "thermal/fdm.hpp"
#include "thermal/images.hpp"
#include "thermal/spectral.hpp"

namespace ptherm::thermal {

// SurfaceSample (the point type every batched query below takes) lives in
// thermal/images.hpp so the spectral solver's matrix-free influence
// projections can name it without depending on this layer.

/// Cumulative cost counters since backend construction, for the perf
/// trajectory. Backends fill the fields that measure their work and leave
/// the rest zero. Every field is a `long long` counter ON PURPOSE: the
/// telemetry catalog (telemetry/counters.hpp) maps each field to a named
/// registry counter through a descriptor table and statically asserts the
/// struct is exactly that table's fields — so adding a field here without
/// naming it there fails the build instead of silently vanishing from the
/// registry, the bench JSON, and the merge paths.
struct BackendCostStats {
  long long steady_solves = 0;      ///< full-field steady solves performed
  long long influence_columns = 0;  ///< unit-source influence columns built
  long long cg_iterations = 0;      ///< total CG iterations (FDM)
  long long modes = 0;              ///< cosine modes carried (spectral)
  long long fft_calls = 0;          ///< 1-D FFT invocations (spectral)
  /// step_transient calls served. A driver that folds a run of unread
  /// held-power steps into one longer exact step (the transient cosim on a
  /// backend with exact_step_composition()) makes one call for the run, so
  /// this counts backend step calls, not time-grid steps.
  long long transient_steps = 0;
  /// Transient steps that re-ingested CHANGED source powers (spectral: flux
  /// re-projection; FDM: source-term RHS rebuild). Epoch-driven drivers
  /// hold powers between control decisions, so this counts epochs — the gap
  /// to transient_steps is what the epoch caches saved.
  long long transient_power_updates = 0;
};

/// The influence-apply seam: `rises = R * powers` as an abstract operator,
/// so the Picard fixed point can iterate without knowing whether R exists as
/// a dense matrix (analytic/FDM, and the equivalence reference) or only as a
/// mode-space procedure (the spectral matrix-free path). Implementations are
/// square: powers and rises both have `size()` elements, checked on apply.
class InfluenceApply {
 public:
  virtual ~InfluenceApply() = default;

  /// Number of sources == number of sample points.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// rises[i] = sum_j R[i][j] * powers[j] [K]; both spans must have size()
  /// elements (throws ptherm::PreconditionError otherwise). One vector is a
  /// batch of one: this is apply_batch with count 1.
  void apply(std::span<const double> powers, std::span<double> rises) const {
    apply_batch(powers, rises, 1);
  }

  /// Multi-RHS apply, the one implementation hook: `count` power vectors
  /// stored contiguously (powers[k*size() + j]) into `count` rise vectors of
  /// the same layout (throws ptherm::PreconditionError unless both spans
  /// have count * size() elements). Contract: vector k's rises must be
  /// BITWISE identical to a count-1 apply of it alone — implementations may
  /// only reorder work across vectors (streaming shared tables once per
  /// block), never within one vector's arithmetic.
  virtual void apply_batch(std::span<const double> powers, std::span<double> rises,
                           std::size_t count) const = 0;

  /// Implementation tag for diagnostics and tests ("dense",
  /// "spectral-mode-space").
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;
};

/// InfluenceApply over a materialized dense influence matrix R[i][j] = rise
/// at sample i per watt in source j [K/W]: the dense realization for
/// backends whose only representation IS the matrix (analytic images, FDM),
/// and the reference the matrix-free path is pinned against. Owns the
/// matrix (flat row-major, one matvec per apply); must be square.
class DenseInfluenceApply final : public InfluenceApply {
 public:
  explicit DenseInfluenceApply(numerics::Matrix r);

  [[nodiscard]] std::size_t size() const noexcept override { return r_.rows(); }

  /// R[i][j], bounds-checked.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Adds `resistance` [K/W] to every entry — a lumped package/heat-sink
  /// path couples every pair of blocks uniformly.
  void add_uniform(double resistance);

  using InfluenceApply::apply;
  /// Allocating form of apply: returns R * powers.
  [[nodiscard]] std::vector<double> apply(std::span<const double> powers) const;

  /// One Matrix::multiply_batch, streaming R once per row for the whole
  /// block; per-vector results match a lone multiply bitwise.
  void apply_batch(std::span<const double> powers, std::span<double> rises,
                   std::size_t count) const override;
  [[nodiscard]] std::string_view kind() const noexcept override { return "dense"; }

  [[nodiscard]] const numerics::Matrix& matrix() const noexcept { return r_; }

 private:
  numerics::Matrix r_;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const Die& die() const noexcept = 0;

  /// Steady solve for `sources`, then the surface rise at each of `points`
  /// [K above the sink]. One shared solve; per-point queries are cheap.
  [[nodiscard]] virtual std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources, std::span<const SurfaceSample> points) const = 0;

  /// Steady surface-rise map on the nx x ny cell-centre grid (row-major,
  /// y outer). The default routes through surface_rises; backends with a
  /// faster map path (spectral DCT synthesis) override.
  [[nodiscard]] virtual std::vector<double> surface_rise_map(
      const std::vector<HeatSource>& sources, int nx, int ny) const;

  /// Batched influence build: entry (i, j) is the rise at samples[i] per
  /// watt in sources[j] [K/W] (source powers are ignored; each column is a
  /// unit-power solve). Throws ptherm::PreconditionError on a footprint
  /// validate_footprint() rejects (thermal/images.hpp).
  [[nodiscard]] virtual numerics::Matrix build_influence(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const = 0;

  /// Matrix-free influence capability: whether make_influence_apply can
  /// serve `rises = R * powers` without materializing the dense matrix.
  /// Backends whose only representation IS the dense matrix return false;
  /// callers then build_influence instead.
  [[nodiscard]] virtual bool supports_matrix_free_influence() const noexcept { return false; }

  /// Matrix-free influence-apply operator over the given sources/samples
  /// (source powers are ignored — the caller supplies powers per apply;
  /// footprints are checked as in build_influence). Only meaningful when
  /// supports_matrix_free_influence(); the default throws
  /// ptherm::PreconditionError naming the backend.
  [[nodiscard]] virtual std::unique_ptr<InfluenceApply> make_influence_apply(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const;

  /// Transient capability. Backends that can integrate in time return true
  /// and implement the two methods below; the defaults throw
  /// ptherm::PreconditionError.
  [[nodiscard]] virtual bool supports_transient() const noexcept { return false; }

  /// Opaque full-resolution transient field, starting at zero rise.
  class TransientState {
   public:
    virtual ~TransientState() = default;
    [[nodiscard]] virtual double surface_rise(double x, double y) const = 0;
    /// Batched surface-rise readback into caller storage — what per-step
    /// drivers (the transient cosim's block-temperature readback) call. The
    /// default loops over surface_rise; backends with a faster batched path
    /// override (spectral: the interned two-pass cosine synthesis; FDM:
    /// cached bilinear stencils).
    virtual void surface_rises(std::span<const SurfaceSample> points,
                               std::span<double> out) const;
  };
  [[nodiscard]] virtual std::unique_ptr<TransientState> make_transient_state() const;

  /// Advances `state` by dt under `sources`; returns the inner-iteration
  /// count (CG iterations for FDM; one exact mode-space update for
  /// spectral).
  virtual int step_transient(TransientState& state, double dt,
                             const std::vector<HeatSource>& sources) const;

  /// Whether step_transient composes exactly: k calls of dt under the same
  /// sources equal one call of k*dt to rounding. True only for integrators
  /// that are exact for piecewise-constant power (the spectral per-mode
  /// exponential update); an implicit scheme such as backward Euler is not,
  /// so its drivers must keep stepping at dt. Transient drivers read this to
  /// fold held-power steps nobody reads into one step. A property of the
  /// integrator, not a setting.
  [[nodiscard]] virtual bool exact_step_composition() const noexcept { return false; }

  [[nodiscard]] virtual BackendCostStats cost_stats() const = 0;
};

/// The paper's fast path: closed-form image-method evaluation
/// (thermal/images.hpp) behind the backend interface.
class AnalyticImagesBackend final : public SolverBackend {
 public:
  AnalyticImagesBackend(Die die, ImageOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "analytic"; }
  [[nodiscard]] const Die& die() const noexcept override { return die_; }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] BackendCostStats cost_stats() const override { return stats_; }

 private:
  Die die_;
  ImageOptions opts_;
  mutable BackendCostStats stats_;
};

/// The numerical reference: the 3-D finite-difference solver behind the
/// backend interface. Transient-capable via backward Euler (one implicit
/// CG solve per step).
class FdmBackend final : public SolverBackend {
 public:
  /// Over DieStack::single(die).
  FdmBackend(Die die, FdmOptions opts = {});
  /// z-grid over a die stack (thermal/stack.hpp), layered unless the stack
  /// reduces to the die.
  FdmBackend(Die die, DieStack stack, FdmOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "fdm"; }
  [[nodiscard]] const Die& die() const noexcept override { return solver_.die(); }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] bool supports_transient() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<TransientState> make_transient_state() const override;
  int step_transient(TransientState& state, double dt,
                     const std::vector<HeatSource>& sources) const override;
  [[nodiscard]] BackendCostStats cost_stats() const override;

  [[nodiscard]] const FdmThermalSolver& solver() const noexcept { return solver_; }

 private:
  FdmThermalSolver solver_;
  mutable BackendCostStats stats_;
};

/// The FFT-accelerated spectral Green's-function solver
/// (thermal/spectral.hpp) behind the backend interface. Transient-capable:
/// each step is the exact per-mode exponential update — O(modes) work, no
/// linear solve, and no dt-dependent accuracy loss.
class SpectralBackend final : public SolverBackend {
 public:
  /// Over DieStack::single(die).
  SpectralBackend(Die die, SpectralOptions opts = {});
  /// Transfer matrices over a die stack (thermal/stack.hpp): the single-die
  /// closed forms when the stack reduces to the die, the layered machinery
  /// otherwise. The matrix-free influence path and the transient integrator
  /// both work layered.
  SpectralBackend(Die die, DieStack stack, SpectralOptions opts = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "spectral"; }
  [[nodiscard]] const Die& die() const noexcept override { return solver_.die(); }
  [[nodiscard]] std::vector<double> surface_rises(
      const std::vector<HeatSource>& sources,
      std::span<const SurfaceSample> points) const override;
  [[nodiscard]] std::vector<double> surface_rise_map(const std::vector<HeatSource>& sources,
                                                     int nx, int ny) const override;
  [[nodiscard]] numerics::Matrix build_influence(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  /// The matrix-free path: powers -> flux modes over projection tables
  /// interned per distinct footprint edge -> per-mode surface transfer ->
  /// cosine synthesis over tables interned per distinct sample coordinate.
  /// O(n * modes_per_axis + G * modes) per apply (G distinct table rows),
  /// never the dense n x n matrix.
  [[nodiscard]] bool supports_matrix_free_influence() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<InfluenceApply> make_influence_apply(
      std::span<const HeatSource> sources,
      std::span<const SurfaceSample> samples) const override;
  [[nodiscard]] bool supports_transient() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<TransientState> make_transient_state() const override;
  int step_transient(TransientState& state, double dt,
                     const std::vector<HeatSource>& sources) const override;
  /// True: the single-die and layered updates are both amp e^{-lambda h} +
  /// q g (1 - e^{-lambda h}) plus an h-independent quasi-static tail, so
  /// one step of k*dt equals k steps of dt to rounding.
  [[nodiscard]] bool exact_step_composition() const noexcept override { return true; }
  [[nodiscard]] BackendCostStats cost_stats() const override;

  [[nodiscard]] const SpectralThermalSolver& solver() const noexcept { return solver_; }

 private:
  SpectralThermalSolver solver_;
  mutable BackendCostStats stats_;
};

/// The influence-apply seam for callers that take ANY backend: matrix-free
/// when the backend supports it, otherwise the dense influence build wrapped
/// in DenseInfluenceApply. Either way the caller iterates `rises = R *
/// powers` without knowing the representation (the electro-thermal SPICE
/// coupling resolves its backend through this).
[[nodiscard]] std::unique_ptr<InfluenceApply> resolve_influence_apply(
    const SolverBackend& backend, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples);

// Batched column builders behind the backend adapters above, also callable
// on caller-owned solvers. Column j is the rise at every sample per watt in
// source j; `stats`, when non-null, receives the cost of this build only.

[[nodiscard]] numerics::Matrix analytic_influence_columns(
    const Die& die, std::span<const HeatSource> sources, std::span<const SurfaceSample> samples,
    const ImageOptions& opts, BackendCostStats* stats = nullptr);

/// Throws ptherm::PreconditionError naming the column, the failure mode (CG
/// breakdown versus iteration limit), and the residual if a column fails.
/// With `warm_start`, column j's CG starts from the previous column's field
/// translated (edge-replicated) onto this column's source position.
[[nodiscard]] numerics::Matrix fdm_influence_columns(
    const FdmThermalSolver& solver, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples, bool warm_start,
    BackendCostStats* stats = nullptr);

[[nodiscard]] numerics::Matrix spectral_influence_columns(
    const SpectralThermalSolver& solver, std::span<const HeatSource> sources,
    std::span<const SurfaceSample> samples, BackendCostStats* stats = nullptr);

}  // namespace ptherm::thermal
