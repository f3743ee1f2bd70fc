// The paper's headline: the *concurrent* power-thermal solve. Leakage is
// exponential in temperature and temperature is set by dissipated power, so
// the two models must be solved simultaneously. This engine runs a Picard
// fixed point (safeguarded: numerics/fixed_point.hpp) over block temperatures,
//     T_i  <-  T_sink + sum_j Rth_ij * P_j(T_j),
// where the thermal influence comes from a pluggable thermal::SolverBackend:
// the analytic image model (fast path, closed form only — the paper's
// point), the FDM reference (validation path), or the spectral
// Green's-function solver (fastest influence build; one mode-space multiply
// per column), and P_j(T) = P_dyn_j + VDD * I_off_j(T) from the compact
// leakage model. Divergence (leakage-thermal runaway) is detected and
// reported rather than hidden.
//
// The loop is written once: ElectroThermalSolver::run_picard advances any
// number of scenarios through blocked Picard sweeps. solve() is a batch of
// one; ScenarioBatch (core/scenario_batch.hpp) runs it over chunks.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/diagnostics.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {

/// User-facing backend selector; `make_thermal_backend` maps it (plus the
/// per-backend option structs in ThermalConfig) onto a thermal::SolverBackend.
enum class ThermalBackend { Analytic, Fdm, Spectral };

/// Everything `make_thermal_backend` reads: which thermal model to build and
/// how. Declared once; CosimOptions, TransientCosimOptions and
/// rtm::RtmOptions inherit it, each keeping its own default backend
/// (Analytic, Fdm and Spectral respectively).
struct ThermalConfig {
  ThermalBackend backend = ThermalBackend::Analytic;
  /// Analytic backend settings. Only steady solves read them: the analytic
  /// backend has no transient, so the transient cosim and RTM (which
  /// inherit this field) refuse it and never look at `images`.
  thermal::ImageOptions images;
  thermal::FdmOptions fdm;             ///< FDM backend settings
  thermal::SpectralOptions spectral;   ///< spectral backend settings
  /// Die stack for the conduction problem (thermal/stack.hpp). Unset: the
  /// classic single-die problem from the floorplan's Die. Set: the FDM and
  /// spectral backends solve the layered stack (the analytic backend only
  /// accepts stacks that reduce to the die). An RcNetwork boundary means
  /// different things to the two time regimes:
  ///  * steady cosim: its total_resistance() joins the uniform boundary
  ///    fold exactly like r_package (see boundary_fold_resistance);
  ///  * transient cosim (and the RTM plant riding it): the case temperature
  ///    becomes a DYNAMIC state, advanced once per backend step under the
  ///    total die power, and every block temperature reads
  ///    t_sink + case_rise + on-die rise — so leakage and any control policy
  ///    feel the package time constants. The constant-sink behaviour is the
  ///    zero-capacity limit.
  std::optional<thermal::DieStack> stack;
  /// Convergence-trace recording (telemetry/telemetry.hpp). With
  /// trace.convergence the steady cosim records its Picard residual per
  /// iteration (CosimResult::picard_residuals), the transient cosim and RTM
  /// their inner backend iterations per time step (step_inner_iterations),
  /// and an FDM backend its CG residual curves (FdmOptions::cg.trace is
  /// forced on). Recording only APPENDS to result vectors — the arithmetic
  /// is bitwise unchanged.
  telemetry::TraceOptions trace;
};

/// How the Picard fixed point applies the influence operator.
///  * Auto: matrix-free when the backend supports it (spectral), dense
///    otherwise — the right default at every scale.
///  * Dense: force the n x n matrix build even on a matrix-free-capable
///    backend (the equivalence reference; also what influence_matrix()
///    consumers get without a lazy rebuild).
///  * MatrixFree: require the matrix-free path; throws
///    ptherm::PreconditionError at construction if the backend has none.
enum class InfluenceMode { Auto, Dense, MatrixFree };

struct CosimOptions : ThermalConfig {
  InfluenceMode influence = InfluenceMode::Auto;
  double damping = 0.7;                ///< safeguard relaxation (0, 1]: numerics/fixed_point.hpp
  double tol = 1e-3;                   ///< convergence: residual max |T_sink + rise - T| [K]
  int max_iterations = 200;
  double runaway_rise_limit = 400.0;   ///< rise above sink declared runaway [K]
  double vb = 0.0;                     ///< substrate (body) bias [V]
  /// Lumped package/heat-sink resistance [K/W]: adds a uniform rise
  /// R_pkg * P_total on top of the on-die spreading the thermal model
  /// resolves (the sink plane is then the package case, not the ambient).
  double r_package = 0.0;
};

/// The ONE uniform boundary resistance [K/W] a steady cosim folds on top of
/// the conduction operator: r_package plus the stack boundary's RC-network
/// resistance (if any). Dense influence builds add it to every matrix entry
/// (thermal::DenseInfluenceApply::add_uniform); the matrix-free path folds
/// fold * sum(P) into the rises per Picard iteration. Both routes go through
/// this helper, so the two influence modes cannot drift apart — the
/// equivalence is pinned by tests.
[[nodiscard]] double boundary_fold_resistance(const CosimOptions& opts);

/// Builds the thermal backend `cfg` selects, configured for `die`. The one
/// place that maps the user-facing enum onto concrete solver types — every
/// consumer (steady cosim, transient cosim, RTM, examples) goes through
/// here, so a new backend is one enum value plus one case.
[[nodiscard]] std::unique_ptr<thermal::SolverBackend> make_thermal_backend(
    const thermal::Die& die, const ThermalConfig& cfg);

/// Block centres of a floorplan: the sample points the influence operator
/// reports the rise at.
[[nodiscard]] std::vector<thermal::SurfaceSample> block_centre_samples(
    const floorplan::Floorplan& fp);

/// Throws ptherm::PreconditionError if the Picard-iteration settings are
/// unusable (damping outside (0, 1], tol <= 0, max_iterations <= 0,
/// runaway_rise_limit <= 0, or r_package < 0).
void validate(const CosimOptions& opts);

/// Per-block leakage adjustment a scenario applies on top of the compiled
/// nominal model: a flat multiplier (gate-count / activity scaling) and a
/// threshold-voltage offset (process variation; leakage scales by
/// exp(-dVT0 / (n VT(T))), the Eq. (13) exponent — see device::VariationModel).
/// The defaults are bitwise transparent: scale 1 and dVT0 0 reproduce the
/// unadjusted leakage exactly, so nominal scenarios match the plain solver.
struct LeakageAdjust {
  double scale = 1.0;      ///< flat leakage multiplier
  double delta_vt0 = 0.0;  ///< threshold shift [V]
};

/// Adjusted block leakage power [W]: scale * exp(-dVT0/(n VT)) * base(T).
/// The ONE expression both the standalone solver (set_leakage_adjust) and
/// the batched scenario engine evaluate, so the two paths cannot drift —
/// batched-vs-sequential bitwise equivalence is pinned by tests.
[[nodiscard]] double adjusted_leakage_power(const device::Technology& tech,
                                            const floorplan::CompiledBlockLeakage& leakage,
                                            double temp, double vb,
                                            const LeakageAdjust& adj);

/// The same expression on an already evaluated base power
/// leakage.leakage_power(tech, temp, vb) [W] — how run_picard adjusts the
/// start sweep's one uniform-temperature evaluation per technology.
[[nodiscard]] double adjusted_leakage_power(const device::Technology& tech, double base_power,
                                            double temp, const LeakageAdjust& adj);

struct BlockState {
  double temperature = 0.0;  ///< [K]
  double p_dynamic = 0.0;    ///< [W]
  double p_leakage = 0.0;    ///< [W] at the converged temperature
  [[nodiscard]] double p_total() const noexcept { return p_dynamic + p_leakage; }
};

struct CosimResult {
  bool converged = false;
  bool runaway = false;
  int iterations = 0;
  std::vector<BlockState> blocks;
  double total_dynamic = 0.0;
  double total_leakage = 0.0;
  double max_temperature = 0.0;   ///< hottest block [K]
  double max_delta_last = 0.0;    ///< last residual max |T_sink + rise - T| [K]
  double contraction = 0.0;       ///< r_k / r_{k-1} at exit: < 1 contracting, 0 after one sweep
  /// Structured non-convergence context (common/diagnostics.hpp): set iff
  /// the Picard loop did not converge — stage "runaway", "max-iterations" or
  /// "non-finite residual" (a NaN or infinite power or rise ended the solve),
  /// the iteration count, the last residual [K], and the hottest block by
  /// name. Empty on converged solves.
  std::optional<SolveDiagnostics> diagnostics;
  /// With CosimOptions::trace.convergence: the Picard residual [K] of each
  /// iteration (picard_residuals.size() == iterations; back() ==
  /// max_delta_last). Empty when tracing is off.
  std::vector<double> picard_residuals;

  [[nodiscard]] double total_power() const noexcept { return total_dynamic + total_leakage; }
};

/// One scenario's converged state — CosimResult minus the per-block AoS
/// (temperatures come back as a flat vector; powers were the inputs).
struct ScenarioResult {
  bool converged = false;
  bool runaway = false;
  int iterations = 0;
  double max_temperature = 0.0;  ///< hottest block [K]
  double total_dynamic = 0.0;    ///< [W]
  double total_leakage = 0.0;    ///< [W] at the converged temperatures
  double max_delta_last = 0.0;   ///< last residual max |T_sink + rise - T| [K]
  double contraction = 0.0;      ///< r_k / r_{k-1} at exit (see CosimResult)
  std::vector<double> temperatures;  ///< per-block [K]
  /// Structured non-convergence context (common/diagnostics.hpp): set iff
  /// this scenario did not converge — runaway, max-iterations or a
  /// non-finite residual, and the hottest block by name. Empty when
  /// converged.
  std::optional<SolveDiagnostics> diagnostics;
  /// With CosimOptions::trace.convergence: this scenario's Picard residual
  /// [K] of each of its iterations (size == iterations). Empty when tracing
  /// is off.
  std::vector<double> picard_residuals;

  [[nodiscard]] double total_power() const noexcept { return total_dynamic + total_leakage; }
};

/// Sweep-level convergence trace (CosimOptions::trace.convergence). One
/// entry per blocked Picard sweep, in execution order: how many scenarios
/// were still active going into the sweep, and the worst Picard residual any
/// of them produced in it.
struct ScenarioBatchTrace {
  std::vector<long long> active_per_sweep;     ///< active-mask size per sweep
  std::vector<double> max_residual_per_sweep;  ///< worst residual per sweep [K]
};

/// The scenarios one run_picard call advances: `count` of them over the
/// solver's n blocks, each owning one row of n in the SoA spans.
struct PicardScenarios {
  std::span<const double> p_dynamic;  ///< dynamic power [W], count * n
  std::span<const double> adj_scale;  ///< LeakageAdjust::scale, count * n
  std::span<const double> adj_dvt0;   ///< LeakageAdjust::delta_vt0 [V], count * n
  /// Leakage technology (the scenario's V/f level), one per scenario.
  std::span<const device::Technology* const> tech;
};

/// Runs the concurrent electro-thermal fixed point on a floorplan.
/// Technology and floorplan are copied in: the solver owns everything it
/// needs and cannot dangle (callers routinely pass temporaries).
class ElectroThermalSolver {
 public:
  ElectroThermalSolver(device::Technology tech, floorplan::Floorplan fp,
                       CosimOptions opts = {});

  /// The fixed point for the floorplan as given: run_picard over one
  /// scenario (the block powers, the installed leakage adjustments or the
  /// bitwise-transparent nominal ones, the solver's technology).
  [[nodiscard]] CosimResult solve();

  /// The Picard kernel, the one implementation of the fixed point. Per
  /// iteration: every active scenario's power vector (dynamic plus
  /// adjusted_leakage_power at its current temperatures, the base leakage
  /// of all of them from ONE batched CompiledBlockLeakage::leakage_power
  /// call), ONE apply_batch over all of them, then per scenario the
  /// boundary fold, the safeguarded step (numerics::SafeguardedPicard, one
  /// per scenario), the rise-limit and growth-streak runaway checks and the
  /// convergence test. A scenario that finishes leaves the active list, so
  /// its trajectory never depends on the others: results are bitwise the
  /// same whatever the batch holds. The scenarios that finish in one sweep
  /// share one batched exit-leakage call.
  /// results[k] (default-constructed on entry) receives scenario k, with
  /// diagnostics tagged
  /// "ElectroThermalSolver" unless it converged. With trace.convergence the
  /// per-sweep record is appended to `trace` if one is given. A non-empty
  /// `exit_leakage` (count * n entries) receives each block's leakage at the
  /// exit temperatures — the values total_leakage sums, evaluated once.
  /// Returns the number of blocked applies (sweeps) issued.
  long long run_picard(const PicardScenarios& in, std::span<ScenarioResult> results,
                       ScenarioBatchTrace* trace = nullptr,
                       std::span<double> exit_leakage = {}) const;

  /// Leakage power of block `i` at temperature `temp` (exposed for tests and
  /// for the runaway-analysis bench). Evaluated through the block's compiled
  /// leakage handle (floorplan/compiled_leakage.hpp) — bitwise equal to the Block
  /// walk, allocation-free — times the block's LeakageAdjust if one is set.
  [[nodiscard]] double block_leakage_power(std::size_t i, double temp) const;

  /// Installs per-block leakage adjustments (one per block; empty clears).
  /// Throws ptherm::PreconditionError on a non-finite scale or delta_vt0.
  /// This is how a single solver reproduces one scenario of a ScenarioBatch
  /// exactly — the sequential reference path of the batched engine's tests.
  void set_leakage_adjust(std::vector<LeakageAdjust> adjust);

  /// The influence-apply seam the Picard loop iterates through: dense in
  /// Dense mode (and on dense-only backends), the backend's matrix-free
  /// operator otherwise. In matrix-free mode the boundary fold (r_package +
  /// stack RC resistance) is NOT inside the operator — run_picard folds it
  /// in analytically as boundary_fold_resistance(opts) * sum(P).
  [[nodiscard]] const thermal::InfluenceApply& influence_apply() const noexcept;

  /// Whether the Picard loop runs matrix-free (no dense matrix was built).
  [[nodiscard]] bool matrix_free() const noexcept { return matrix_free_ != nullptr; }

  /// Thermal influence operator R[i][j] = rise at block i's centre per watt
  /// in block j [K/W] including r_package, as realised by the configured
  /// backend. Exposed because the runaway criterion (spectral condition
  /// R * dP/dT < 1) is an ablation bench.
  /// In matrix-free mode the dense matrix is realised lazily on first call —
  /// an O(n^2) diagnostic escape hatch the solve itself never pays.
  [[nodiscard]] const thermal::DenseInfluenceApply& influence_matrix() const;

  /// The backend's cost counters as of the influence build (columns, FDM CG
  /// iterations, spectral modes/FFTs), for the perf-trajectory benches.
  [[nodiscard]] const thermal::BackendCostStats& influence_build_stats() const noexcept {
    return influence_stats_;
  }

  /// The thermal backend this solver built R from — reusable for field maps
  /// of the converged power state (see examples/hotspot_analysis.cpp).
  [[nodiscard]] const thermal::SolverBackend& backend() const noexcept { return *backend_; }

  /// Compiled leakage handles, one per block, sharing the plan's interned
  /// programs — what run_picard evaluates every scenario's leakage through.
  [[nodiscard]] const std::vector<floorplan::CompiledBlockLeakage>& compiled_leakage()
      const noexcept {
    return compiled_leakage_;
  }

 private:
  void build_influence();
  /// The dense build plus the boundary fold, for Dense mode and the lazy
  /// influence_matrix() realization alike.
  [[nodiscard]] thermal::DenseInfluenceApply build_dense_influence() const;

  device::Technology tech_;
  floorplan::Floorplan fp_;
  CosimOptions opts_;
  /// Compiled leakage handles, one per block (see block_leakage_power).
  std::vector<floorplan::CompiledBlockLeakage> compiled_leakage_;
  /// Per-block scenario adjustments; empty means nominal.
  std::vector<LeakageAdjust> adjust_;
  std::unique_ptr<thermal::SolverBackend> backend_;
  /// Matrix-free operator (set iff the resolved mode is matrix-free).
  std::unique_ptr<thermal::InfluenceApply> matrix_free_;
  /// Dense operator: built eagerly in dense mode, lazily by
  /// influence_matrix() in matrix-free mode (mutable: realization is a
  /// cache, not observable state).
  mutable std::optional<thermal::DenseInfluenceApply> influence_;
  thermal::BackendCostStats influence_stats_;
};

}  // namespace ptherm::core
