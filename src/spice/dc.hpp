// DC operating-point solver: damped Newton on the MNA equations with an
// escalating convergence-recovery ladder. Unknowns are the non-ground node
// voltages plus one branch current per voltage source.
//
// The ladder (spice/report.hpp records which stages ran):
//  1. gmin continuation — the classic descending-gmin ladder.
//  2. Source-stepping homotopy — every independent source ramped from 0 to
//     its full value with adaptive step halving; at lambda = 0 the circuit
//     is trivially solvable and each step warm-starts from the last.
//  3. Temperature continuation — solve cold (devices nearly off, weak
//     exponentials), then ramp the device temperatures to their targets.
// Each stage only runs when the previous one failed, so a cold solve of a
// circuit the plain ladder handles sees bitwise-identical arithmetic to the
// pre-ladder solver.
//
// A warm-started solve (dc_sweep's later points, the electro-thermal outer
// loop) first tries one Newton at gmin = 0 from the warm vector, capped at
// kWarmNewtonIterations. When it converges the solve ends there (path
// "warm": no ladder, no polish); when it fails the ladder above runs
// unchanged from the same warm vector (path "warm,gmin..."). A warm solve
// therefore lands on the operating point within Newton tolerance of the
// ladder's result, not bitwise on it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/report.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::spice {

/// Convergence-recovery ladder settings. Disabling both stages reproduces
/// the naive gmin-only Newton (what the fault-injection tests use to show a
/// stage actually rescued a circuit).
struct DcRecoveryOptions {
  bool source_stepping = true;  ///< stage 2: ramp supplies from 0
  bool temp_stepping = true;    ///< stage 3: solve cold, ramp to ambient
  int source_steps = 10;        ///< initial source-ramp resolution (d-lambda = 1/steps)
  int max_source_substeps = 64; ///< finest adaptive lambda subdivision before giving up
  double temp_cold = 250.0;     ///< temperature-continuation start [K]
  int temp_steps = 5;           ///< ramp points from temp_cold to the target
};

/// Newton iteration budget of the warm-start attempt at gmin = 0 (further
/// capped by DcOptions::max_iterations). A warm vector near the solution
/// converges in a handful of iterations; one that needs more is cheaper to
/// hand to the ladder than to grind on unregularized.
inline constexpr int kWarmNewtonIterations = 10;

struct DcOptions {
  double v_abstol = 1e-10;        ///< Newton step convergence [V]
  double i_abstol = 1e-18;        ///< KCL residual floor [A]
  double i_reltol = 1e-6;         ///< KCL residual relative to node current scale
  double max_step = 0.3;          ///< per-iteration voltage step clamp [V]
  double v_limit = 10.0;          ///< hard clamp on node voltages [V]
  int max_iterations = 300;
  double temp = 300.0;            ///< device temperature [K]
  /// gmin continuation ladder; the final entry is removed for a polish solve.
  std::vector<double> gmin_steps = {1e-3, 1e-6, 1e-9, 1e-12};
  DcRecoveryOptions recovery;
  /// Convergence-trace recording (telemetry/telemetry.hpp). With
  /// trace.convergence every RungReport carries the per-iteration Newton
  /// residual curve (RungReport::residuals). Recording only APPENDS — the
  /// solve arithmetic is bitwise unchanged.
  telemetry::TraceOptions trace;
};

struct DcSolution {
  bool converged = false;
  int iterations = 0;             ///< total Newton iterations over all rungs
  std::vector<double> node_voltages;              ///< indexed by NodeId (0 = ground)
  std::map<std::string, double> vsource_currents; ///< current from + through source to -
  std::map<std::string, double> device_currents;  ///< MOSFET drain->source currents
  /// Structured solve diagnostics: rungs run, homotopy path taken, worst
  /// KCL node by name, device temperatures at exit (spice/report.hpp).
  SolveReport report;

  [[nodiscard]] double voltage(NodeId n) const { return node_voltages.at(n); }
};

/// Solves the DC operating point at `opts.temp` from a cold start (the plain
/// ladder). Waveform sources use their value at t = 0. Throws
/// ConvergenceFailure (a ConvergenceError carrying the full SolveReport)
/// when every ladder stage fails. A failed gmin = 0 polish after a
/// successful continuation keeps the smallest-gmin solution (a node with no
/// DC path to ground needs gmin) and still returns converged = true.
DcSolution solve_dc(const Circuit& circuit, const DcOptions& opts = {});

/// Sweeps the named voltage source over `values`, reusing each solution as
/// the next initial guess (the warm attempt described at the top of this
/// file, so later points agree with a standalone solve_dc within Newton
/// tolerance; the first point is a cold solve, bitwise standalone solve_dc).
/// A point whose warm-started solve fails is retried once from a cold start
/// (fresh recovery ladder) before the sweep fails; the error then names the
/// sweep value that failed. Returns one solution per value.
std::vector<DcSolution> dc_sweep(Circuit& circuit, const std::string& source,
                                 const std::vector<double>& values,
                                 const DcOptions& opts = {});

namespace detail {
class NewtonCore;

/// The shared solve core: runs the recovery ladder on a caller-configured
/// NewtonCore (source scale / temperatures as set), optionally warm-started
/// from `initial` (size() unknowns; nullptr = cold start from zero). A warm
/// start first tries the capped gmin = 0 Newton (path "warm") and falls back
/// to the ladder from `initial` itself (path "warm,gmin..."). The
/// electro-thermal outer loop (spice/electrothermal.hpp) and dc_sweep call
/// this to reuse one core across solves.
DcSolution solve_dc_core(const Circuit& circuit, NewtonCore& core, const DcOptions& opts,
                         const std::vector<double>* initial);

/// Packs a solution back into core's unknown layout (node voltages, then
/// voltage-source currents): the warm start of dc_sweep's and the
/// electro-thermal loop's next solve_dc_core, and the transient's initial
/// state. Throws ptherm::PreconditionError when the circuit's unknown count
/// is not core.size().
std::vector<double> pack_unknowns(const Circuit& circuit, const NewtonCore& core,
                                  const DcSolution& sol);
}  // namespace detail

}  // namespace ptherm::spice
