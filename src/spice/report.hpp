// Structured solve diagnostics for the MNA Newton stack. Every DC solve —
// converged or not — produces a SolveReport: which continuation rungs ran
// (gmin ladder, source-stepping homotopy, temperature continuation), how
// many Newton iterations each used, the worst-KCL-residual node *by name*
// at exit, and the per-device temperatures the final assembly saw. A failed
// solve throws ConvergenceFailure carrying the same report, so every
// non-convergence is auditable instead of a bare "did not converge" string.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ptherm::spice {

/// One Newton run at fixed continuation parameters — the warm-start attempt
/// at gmin = 0, a gmin rung, one source-stepping scale, one
/// temperature-continuation point, or the final gmin = 0 polish.
struct RungReport {
  std::string stage;      ///< "warm", "gmin", "source", "temp", or "polish"
  /// gmin [S] (0 for warm and polish) / source scale [0,1] / temperature [K]
  double value = 0.0;
  int iterations = 0;     ///< Newton iterations this rung used
  bool converged = false; ///< whether this rung's Newton converged
  /// With DcOptions::trace.convergence: the KCL residual infinity norm
  /// max |F| [A] of each Newton iterate in this rung (size == iterations).
  /// Empty when tracing is off.
  std::vector<double> residuals;
};

/// Exit record of one DC solve (attached to DcSolution and to
/// ConvergenceFailure).
struct SolveReport {
  bool converged = false;
  /// Recovery stages that ran, in order, comma-joined: "gmin" when the plain
  /// ladder sufficed, "gmin,source" when source stepping rescued the solve,
  /// "gmin,source,temp" when it took temperature continuation. A warm-started
  /// solve reads "warm" when the gmin = 0 Newton from the warm vector
  /// converged (no ladder, no polish), and "warm,gmin", "warm,gmin,source",
  /// ... when it failed and the ladder ran from that vector.
  std::string path;
  std::vector<RungReport> rungs;
  /// Total Newton iterations over all rungs, a failed warm attempt included.
  int newton_iterations = 0;
  int homotopy_steps = 0;     ///< rungs run by the recovery stages (source + temp)
  /// True when a dc_sweep point only converged after discarding the warm
  /// start and restarting cold (hysteresis sweeps stranding the iterate on a
  /// vanished branch).
  bool cold_restart = false;
  /// KCL audit at the exit point (gmin = 0): the node whose residual is
  /// largest, by name, with the residual [A] and that row's current scale
  /// [A] for judging severity.
  std::string worst_node;
  double worst_residual = 0.0;
  double worst_scale = 0.0;
  /// Temperature each MOSFET was evaluated at in the final assembly [K] —
  /// uniform DcOptions::temp for plain solves, per-device for self-heating
  /// solves (spice/electrothermal.hpp).
  std::map<std::string, double> device_temperatures;

  /// One-line summary ("converged via gmin,source: 6 rungs, 41 Newton
  /// iterations, worst KCL 3.1e-13 A at node out").
  [[nodiscard]] std::string summary() const;

  /// Projection onto the library-wide diagnostics record (common/).
  [[nodiscard]] SolveDiagnostics diagnostics(const std::string& solver) const;
};

/// Thrown when the whole recovery ladder fails; carries the full report of
/// the attempt (rungs tried, worst node at the best iterate reached).
class ConvergenceFailure : public ConvergenceError {
 public:
  /// `solver` tags the structured diagnostics with the throwing entry point
  /// ("solve_dc", "solve_transient").
  ConvergenceFailure(const std::string& what, SolveReport report,
                     const std::string& solver = "solve_dc");

  [[nodiscard]] const SolveReport& report() const noexcept { return report_; }

 private:
  SolveReport report_;
};

}  // namespace ptherm::spice
