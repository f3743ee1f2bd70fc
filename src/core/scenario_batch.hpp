// Batched scenario engine: thousands of cosims per second over one shared
// geometry precompute.
//
// Monte Carlo process variation, V/f corner sweeps, and trace corpora all
// re-solve the SAME die with different power vectors — and everything
// expensive about a cosim depends only on geometry: the thermal backend, the
// dense influence operator or the spectral flux-projection and mode-synthesis
// tables, and the compiled leakage programs. ScenarioBatch builds
// that set once (by owning a regular ElectroThermalSolver) and then solves
// many scenarios against it:
//
//  * Per-scenario parameters are stored SoA — power vectors, per-block
//    LeakageAdjust (scale + dVT0), V/f level index — so the blocked sweeps
//    stream contiguous memory.
//  * The Picard fixed points advance as BLOCKED matvecs: K scenarios per
//    multi-RHS InfluenceApply::apply_batch (spectral: register blocks of 4
//    scenarios, lane-interleaved, through every mode-space pass, each
//    scenario summed in its lone apply's order; dense:
//    Matrix::multiply_batch streams R once per row).
//  * Per-scenario convergence masks: a scenario that converges (or runs
//    away) drops out of the blocked sweep immediately, so easy scenarios
//    stop paying for the hardest one in their chunk.
//  * Chunks go through the for_each_chunk seam — disjoint ranges, private
//    scratch, order-independent results — shaped so a future thread pool
//    can take it without touching the engine.
//
// The sweep itself is not written here: each chunk runs the solver's one
// Picard kernel (ElectroThermalSolver::run_picard), the same code a
// standalone solve() runs as a batch of one. This file adds only the
// scenario storage, the V/f levels and the batch counters.
//
// Determinism contract: every scenario's solution is BITWISE identical to a
// standalone ElectroThermalSolver run of that scenario (same options, level
// technology, powers, and adjustments) — the blocking only reorders work
// across scenarios, never within one. Monte Carlo scenarios draw from
// decorrelated per-sample streams (Rng::stream), so results are also bitwise
// independent of batch size, order, and chunking. Both pinned by tests.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/cosim.hpp"
#include "device/variation.hpp"

namespace ptherm::core {

struct ScenarioBatchOptions {
  /// Scenarios advanced together per blocked Picard sweep — the multi-RHS
  /// width and the work unit of the for_each_chunk seam. Larger chunks
  /// amortize shared-table streaming better; smaller chunks keep scratch in
  /// cache. Results are bitwise chunk-size invariant.
  int chunk = 64;
};

/// Throws ptherm::PreconditionError if chunk < 1.
void validate(const ScenarioBatchOptions& opts);

/// The chunk seam: fn(begin, end) over [0, count) in `chunk`-sized pieces.
/// Single-threaded today (the dev box has one core); the contract a thread
/// pool needs is already in force — callers pass work whose chunks touch
/// disjoint state and whose results do not depend on chunk execution order.
void for_each_chunk(std::size_t count, int chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

/// Batch-engine counters. Keep this a plain bag of long long counters:
/// telemetry/counters.cpp pins its layout with a static_assert so every
/// field reaches the registry.
struct ScenarioBatchStats {
  long long scenarios = 0;                ///< scenario solves completed
  long long batched_matvecs = 0;          ///< multi-RHS influence applies issued
  long long picard_iterations_total = 0;  ///< sum of per-scenario iterations
  /// Scenario-iterations the convergence masks avoided: what the blocked
  /// sweeps would have cost had every scenario run as long as the slowest
  /// one in its chunk, minus what they actually cost.
  long long masked_iterations_saved = 0;
};

class ScenarioBatch {
 public:
  /// Builds the shared geometry precompute: any backend, dense or
  /// matrix-free, with or without a DieStack — exactly what an
  /// ElectroThermalSolver with these arguments would build, because that is
  /// literally what it constructs and keeps.
  ScenarioBatch(device::Technology tech, floorplan::Floorplan fp, CosimOptions opts = {},
                ScenarioBatchOptions batch = {});

  [[nodiscard]] std::size_t block_count() const noexcept { return nominal_powers_.size(); }
  /// Scenarios queued so far.
  [[nodiscard]] std::size_t size() const noexcept { return level_index_.size(); }
  [[nodiscard]] bool matrix_free() const noexcept { return solver_.matrix_free(); }

  // --- V/f levels ---------------------------------------------------------
  // Level 0 is the construction technology at its nominal supply and
  // frequency (dynamic scale 1). Further levels rewrite the supply through
  // device::at_supply (the DIBL-consistent rule the RTM actuator uses) and
  // scale dynamic power through power::transient_power, so the ratio is
  // exactly (V/V0)^2 * f_scale — computed through the power model, not
  // hand-rolled.

  /// Adds (or finds) the level for supply `voltage` and relative frequency
  /// `f_scale` (f / f_nominal); returns its index.
  int add_vf_level(double voltage, double f_scale);
  [[nodiscard]] int level_count() const noexcept { return static_cast<int>(levels_.size()); }
  [[nodiscard]] const device::Technology& level_technology(int level) const;
  [[nodiscard]] double level_dynamic_scale(int level) const;

  // --- queueing scenarios --------------------------------------------------

  /// Fully general scenario: per-block dynamic powers [W] (size
  /// block_count()), optional per-block leakage adjustments (empty =
  /// nominal), V/f level for the leakage technology. Returns its index.
  /// Throws ptherm::PreconditionError on a non-finite power or adjustment.
  std::size_t add_scenario(std::vector<double> p_dynamic,
                           std::vector<LeakageAdjust> adjust = {}, int level = 0);

  /// The floorplan's nominal powers scaled by `level`'s dynamic scale (at
  /// level 0 the scale is exactly 1.0, bitwise). Returns the scenario index.
  std::size_t add_nominal(int level = 0);

  /// `count` Monte Carlo scenarios at nominal powers: sample s draws one
  /// VT0 offset per block from the dedicated stream Rng::stream(base_seed,
  /// s) (see device::VariationModel::sample_scenario_delta_vt0), so sample s
  /// is bitwise identical whether queued alone or among millions. Returns
  /// the index of the first queued scenario.
  std::size_t add_variation_samples(const device::VariationModel& var, int count,
                                    std::uint64_t base_seed);

  /// One V/f corner at (voltage, f_scale): nominal powers times the level's
  /// dynamic scale, leakage under the level's technology. Returns the
  /// scenario index.
  std::size_t add_vf_corner(double voltage, double f_scale,
                            std::vector<LeakageAdjust> adjust = {});

  // --- solving -------------------------------------------------------------

  /// Solves every queued scenario (blocked Picard sweeps, convergence
  /// masks); results[k] corresponds to scenario k. Scenarios stay queued:
  /// solve_all can run again (counters accumulate).
  [[nodiscard]] std::vector<ScenarioResult> solve_all();

  // --- introspection -------------------------------------------------------

  /// Stored dynamic powers of scenario k (what a standalone reference run
  /// must put in its floorplan to reproduce it).
  [[nodiscard]] std::span<const double> scenario_powers(std::size_t k) const;
  /// Per-block adjustments of scenario k (what set_leakage_adjust takes).
  [[nodiscard]] std::vector<LeakageAdjust> scenario_adjust(std::size_t k) const;
  [[nodiscard]] int scenario_level(std::size_t k) const;

  [[nodiscard]] const ScenarioBatchStats& stats() const noexcept { return stats_; }
  /// Sweep-level convergence trace; empty unless the construction options
  /// set trace.convergence. Accumulates across solve_all calls, like stats().
  [[nodiscard]] const ScenarioBatchTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] const thermal::BackendCostStats& influence_build_stats() const noexcept {
    return solver_.influence_build_stats();
  }
  [[nodiscard]] const thermal::SolverBackend& backend() const noexcept {
    return solver_.backend();
  }

 private:
  struct Level {
    device::Technology tech;
    double voltage = 0.0;
    double f_scale = 1.0;
    double dynamic_scale = 1.0;
  };

  void run_chunk(std::size_t begin, std::size_t end, std::vector<ScenarioResult>& results);

  ScenarioBatchOptions batch_;
  /// The shared precompute: backend + influence seam + compiled leakage,
  /// identical to a standalone solve's by construction.
  ElectroThermalSolver solver_;
  std::vector<double> nominal_powers_;  ///< floorplan p_dynamic, level 0

  std::vector<Level> levels_;

  // SoA scenario storage, one row of block_count() per scenario.
  std::vector<double> powers_;      ///< dynamic power [W]
  std::vector<double> adj_scale_;   ///< LeakageAdjust::scale
  std::vector<double> adj_dvt0_;    ///< LeakageAdjust::delta_vt0 [V]
  std::vector<std::int32_t> level_index_;  ///< per-scenario V/f level

  ScenarioBatchStats stats_;
  ScenarioBatchTrace trace_;
};

}  // namespace ptherm::core
