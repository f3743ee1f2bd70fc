#include "spice/dc.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "spice/newton_core.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::spice {

namespace {

using detail::NewtonCore;
using detail::TransientContext;

void record_rung(SolveReport& report, const char* stage, double value, int iterations,
                 bool converged, std::vector<double> residuals = {}) {
  report.rungs.push_back({stage, value, iterations, converged, std::move(residuals)});
  report.newton_iterations += iterations;
}

/// Trace destination for one newton() call: a pointer into `storage` when
/// tracing is on (record_rung then moves the curve into the rung), nullptr —
/// the exact pre-trace call — otherwise.
std::vector<double>* trace_dest(const DcOptions& opts, std::vector<double>& storage) {
  storage.clear();
  return opts.trace.convergence ? &storage : nullptr;
}

/// The warm attempt: one Newton at gmin = 0 from the caller's warm vector,
/// capped at kWarmNewtonIterations. On convergence `x` holds the solution;
/// on failure `x` is untouched, so the ladder starts from the warm vector.
bool run_warm_newton(NewtonCore& core, const DcOptions& opts, const TransientContext& tr,
                     std::vector<double>& x, SolveReport& report) {
  TELEMETRY_SPAN("spice/warm_newton");
  std::vector<double> trial = x;
  int iters = 0;
  std::vector<double> res;
  const bool converged =
      core.newton(trial, 0.0, tr, iters, trace_dest(opts, res), kWarmNewtonIterations);
  record_rung(report, "warm", 0.0, iters, converged, std::move(res));
  if (converged) x = std::move(trial);
  return converged;
}

/// Stage 1: the classic descending-gmin ladder from the current iterate.
/// Keeps the best iterate in `x`; true when at least one rung converged.
/// When `gmin_held` is given, it receives the smallest gmin that converged —
/// the regularization level the solver can actually hold on this circuit.
bool run_gmin_ladder(NewtonCore& core, const DcOptions& opts, const TransientContext& tr,
                     std::vector<double>& x, SolveReport& report,
                     double* gmin_held = nullptr) {
  TELEMETRY_SPAN("spice/gmin_ladder");
  bool any_rung = false;
  std::vector<double> last_failed;
  std::vector<double> res;
  for (double gmin : opts.gmin_steps) {
    std::vector<double> trial = x;
    int iters = 0;
    const bool converged = core.newton(trial, gmin, tr, iters, trace_dest(opts, res));
    record_rung(report, "gmin", gmin, iters, converged, std::move(res));
    if (converged) {
      x = trial;
      any_rung = true;
      if (gmin_held) *gmin_held = gmin;
    } else {
      last_failed = std::move(trial);
    }
  }
  // Total failure: hand the caller the diverged iterate rather than the
  // untouched start point, so the exit audit names where KCL actually broke
  // instead of reporting a zero residual at x = 0.
  if (!any_rung && !last_failed.empty()) x = std::move(last_failed);
  return any_rung;
}

/// Stage 2: source-stepping homotopy. All independent sources ramp together
/// from 0 (where x = 0 solves the gmin-regularized circuit trivially) to
/// full value, each step warm-started from the last, with adaptive step
/// halving down to 1/max_source_substeps. Always leaves the core at scale 1.
bool run_source_stepping(NewtonCore& core, const DcOptions& opts, const TransientContext& tr,
                         std::vector<double>& x, SolveReport& report) {
  TELEMETRY_SPAN("spice/source_stepping");
  const double gmin = opts.gmin_steps.empty() ? 0.0 : opts.gmin_steps.back();
  const int steps = std::max(1, opts.recovery.source_steps);
  const double dl0 = 1.0 / steps;
  const double dl_min =
      1.0 / std::max(steps, std::max(1, opts.recovery.max_source_substeps));

  std::fill(x.begin(), x.end(), 0.0);
  double lambda = 0.0;
  double dl = dl0;
  bool ok = true;
  std::vector<double> res;
  while (lambda < 1.0) {
    const double next = std::min(1.0, lambda + dl);
    core.set_source_scale(next);
    std::vector<double> trial = x;
    int iters = 0;
    const bool converged = core.newton(trial, gmin, tr, iters, trace_dest(opts, res));
    record_rung(report, "source", next, iters, converged, std::move(res));
    ++report.homotopy_steps;
    if (converged) {
      x = trial;
      lambda = next;
      dl = std::min(dl0, 2.0 * dl);
    } else {
      dl *= 0.5;
      // Strict inequality with slack: dl reaches dl_min exactly when
      // max_source_substeps is a power-of-two multiple of source_steps.
      if (dl < 0.999 * dl_min) {
        ok = false;
        break;
      }
    }
  }
  core.set_source_scale(1.0);
  return ok;
}

/// Stage 3: temperature continuation. Solve with every device cold
/// (temp_cold: exponentials weak, the circuit nearly linear), then ramp the
/// device temperatures linearly to their targets. Pointless without
/// temperature-dependent devices. Always leaves the core at the target
/// temperatures.
bool run_temp_stepping(const Circuit& circuit, NewtonCore& core, const DcOptions& opts,
                       const TransientContext& tr, std::vector<double>& x,
                       SolveReport& report) {
  const std::size_t n_mos = circuit.mosfets().size();
  if (n_mos == 0) return false;  // nothing in the circuit depends on temperature
  TELEMETRY_SPAN("spice/temp_stepping");

  std::vector<double> targets(n_mos);
  double t_max = opts.recovery.temp_cold;
  for (std::size_t d = 0; d < n_mos; ++d) {
    targets[d] = core.device_temperature(d);
    t_max = std::max(t_max, targets[d]);
  }
  const double cold = opts.recovery.temp_cold;
  const int steps = std::max(1, opts.recovery.temp_steps);

  const auto restore = [&] { core.set_device_temperatures(targets); };

  // Cold solve from scratch, with the full gmin ladder for robustness. The
  // ramp then runs at the smallest gmin the cold ladder actually HELD, not
  // blindly at gmin_steps.back(): a rung the solver cannot hold cold will
  // not suddenly hold mid-ramp, and a slightly regularized path that tracks
  // to the target temperature beats an unregularized one that diverges.
  std::fill(x.begin(), x.end(), 0.0);
  std::vector<double> temps(n_mos, cold);
  core.set_device_temperatures(temps);
  double gmin = opts.gmin_steps.empty() ? 0.0 : opts.gmin_steps.back();
  if (!run_gmin_ladder(core, opts, tr, x, report, &gmin)) {
    restore();
    return false;
  }

  std::vector<double> res;
  for (int s = 1; s <= steps; ++s) {
    const double lambda = static_cast<double>(s) / steps;
    for (std::size_t d = 0; d < n_mos; ++d) {
      temps[d] = cold + lambda * (targets[d] - cold);
    }
    core.set_device_temperatures(temps);
    std::vector<double> trial = x;
    int iters = 0;
    const bool converged = core.newton(trial, gmin, tr, iters, trace_dest(opts, res));
    record_rung(report, "temp", cold + lambda * (t_max - cold), iters, converged,
                std::move(res));
    ++report.homotopy_steps;
    if (!converged) {
      restore();
      return false;
    }
    x = trial;
  }
  restore();

  // Descend the remaining gmin rungs warm-started at the target temperature;
  // failures here are tolerated (the iterate from the ramp already solves the
  // circuit at `gmin`, and the final gmin=0 polish runs either way).
  for (double g : opts.gmin_steps) {
    if (g >= gmin) continue;
    std::vector<double> trial = x;
    int iters = 0;
    const bool converged = core.newton(trial, g, tr, iters, trace_dest(opts, res));
    record_rung(report, "gmin", g, iters, converged, std::move(res));
    if (converged) x = trial;
  }
  return true;
}

/// Fills the exit-audit fields: worst KCL node by name plus the device
/// temperatures the final assembly used.
void audit_into_report(const Circuit& circuit, const NewtonCore& core,
                       const TransientContext& tr, const std::vector<double>& x,
                       SolveReport& report) {
  const auto worst = core.audit(x, tr);
  report.worst_node = circuit.node_name(worst.node);
  report.worst_residual = worst.residual;
  report.worst_scale = worst.scale;
  const auto& mosfets = circuit.mosfets();
  for (std::size_t d = 0; d < mosfets.size(); ++d) {
    report.device_temperatures[mosfets[d].name] = core.device_temperature(d);
  }
}

DcSolution extract_solution(const Circuit& circuit, const NewtonCore& core,
                            const std::vector<double>& x, SolveReport report) {
  DcSolution sol;
  const int nn = circuit.node_count() - 1;
  sol.node_voltages.assign(static_cast<std::size_t>(circuit.node_count()), 0.0);
  for (int n = 1; n < circuit.node_count(); ++n) sol.node_voltages[n] = x[n - 1];
  const auto& vsrcs = circuit.vsources();
  for (std::size_t j = 0; j < vsrcs.size(); ++j) {
    sol.vsource_currents[vsrcs[j].name] = x[nn + static_cast<int>(j)];
  }
  auto v_at = [&](NodeId n) { return sol.node_voltages[n]; };
  const auto& mosfets = circuit.mosfets();
  for (std::size_t d = 0; d < mosfets.size(); ++d) {
    const auto& m = mosfets[d];
    sol.device_currents[m.name] = m.model.ids(v_at(m.gate), v_at(m.drain), v_at(m.source),
                                              v_at(m.bulk), core.device_temperature(d));
  }
  for (const auto& r : circuit.resistors()) {
    sol.device_currents[r.name] = (v_at(r.a) - v_at(r.b)) / r.ohms;
  }
  sol.converged = true;
  sol.iterations = report.newton_iterations;
  sol.report = std::move(report);
  return sol;
}

}  // namespace

namespace detail {

DcSolution solve_dc_core(const Circuit& circuit, NewtonCore& core, const DcOptions& opts,
                         const std::vector<double>* initial) {
  PTHERM_REQUIRE(circuit.node_count() > 1, "solve_dc: circuit has no nodes");
  TELEMETRY_SPAN("spice/solve_dc");
  TransientContext no_transient;
  std::vector<double> x(static_cast<std::size_t>(core.size()), 0.0);
  if (initial) {
    PTHERM_REQUIRE(initial->size() == x.size(),
                   "solve_dc: warm-start vector has the wrong size");
    x = *initial;
  }

  SolveReport report;
  if (initial && run_warm_newton(core, opts, no_transient, x, report)) {
    report.path = "warm";
  } else {
    report.path = initial ? "warm,gmin" : "gmin";
    bool ok = run_gmin_ladder(core, opts, no_transient, x, report);
    if (!ok && opts.recovery.source_stepping) {
      report.path += ",source";
      ok = run_source_stepping(core, opts, no_transient, x, report);
    }
    if (!ok && opts.recovery.temp_stepping) {
      report.path += ",temp";
      ok = run_temp_stepping(circuit, core, opts, no_transient, x, report);
    }
    if (!ok) {
      audit_into_report(circuit, core, no_transient, x, report);
      throw ConvergenceFailure("solve_dc: Newton failed on every gmin rung and recovery stage",
                               std::move(report));
    }

    // Polish without gmin; on failure keep the smallest-gmin solution (a
    // node with no DC path to ground legitimately needs gmin).
    std::vector<double> trial = x;
    int iters = 0;
    std::vector<double> res;
    const bool converged = core.newton(trial, 0.0, no_transient, iters, trace_dest(opts, res));
    record_rung(report, "polish", 0.0, iters, converged, std::move(res));
    if (converged) x = trial;
  }
  report.converged = true;
  audit_into_report(circuit, core, no_transient, x, report);
  return extract_solution(circuit, core, x, std::move(report));
}

std::vector<double> pack_unknowns(const Circuit& circuit, const NewtonCore& core,
                                  const DcSolution& sol) {
  const std::size_t nn = static_cast<std::size_t>(circuit.node_count() - 1);
  const auto& vsrcs = circuit.vsources();
  PTHERM_REQUIRE(static_cast<std::size_t>(core.size()) == nn + vsrcs.size(),
                 "pack_unknowns: the core's unknown count does not match the circuit");
  std::vector<double> x(nn + vsrcs.size());
  for (std::size_t n = 0; n < nn; ++n) x[n] = sol.node_voltages[n + 1];
  for (std::size_t j = 0; j < vsrcs.size(); ++j) {
    x[nn + j] = sol.vsource_currents.at(vsrcs[j].name);
  }
  return x;
}

}  // namespace detail

DcSolution solve_dc(const Circuit& circuit, const DcOptions& opts) {
  detail::NewtonCore core(circuit, opts);
  return detail::solve_dc_core(circuit, core, opts, nullptr);
}

std::vector<DcSolution> dc_sweep(Circuit& circuit, const std::string& source,
                                 const std::vector<double>& values, const DcOptions& opts) {
  std::vector<DcSolution> out;
  out.reserve(values.size());
  detail::NewtonCore core(circuit, opts);
  std::vector<double> warm;
  for (std::size_t k = 0; k < values.size(); ++k) {
    circuit.set_vsource_value(source, values[k]);
    try {
      out.push_back(
          detail::solve_dc_core(circuit, core, opts, warm.empty() ? nullptr : &warm));
    } catch (const ConvergenceFailure&) {
      // The warm start can strand the solve on a vanished branch (hysteresis
      // sweeps). Retry this point once from a cold start with a fresh
      // recovery ladder before declaring the sweep failed.
      try {
        out.push_back(detail::solve_dc_core(circuit, core, opts, nullptr));
        out.back().report.cold_restart = true;
      } catch (const ConvergenceFailure& e) {
        std::ostringstream os;
        os << "dc_sweep: point " << k << " (" << source << " = " << values[k]
           << " V) failed after a cold restart";
        throw ConvergenceFailure(os.str(), e.report());
      }
    }
    warm = detail::pack_unknowns(circuit, core, out.back());
  }
  return out;
}

}  // namespace ptherm::spice
