#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "spice/newton_core.hpp"

namespace ptherm::spice {

std::vector<double> TransientResult::node_waveform(NodeId n) const {
  std::vector<double> out;
  out.reserve(voltages.size());
  for (const auto& v : voltages) out.push_back(v.at(static_cast<std::size_t>(n)));
  return out;
}

TransientResult solve_transient(const Circuit& circuit, const TransientOptions& opts) {
  PTHERM_REQUIRE(opts.dt > 0.0 && opts.t_stop > 0.0, "transient: bad time grid");
  const DcSolution op = solve_dc(circuit, opts.dc);

  detail::NewtonCore core(circuit, opts.dc);
  const int nn = core.node_unknowns();

  // Unknown vector seeded from the operating point.
  std::vector<double> x = detail::pack_unknowns(circuit, core, op);

  TransientResult result;
  auto record = [&](double t) {
    result.times.push_back(t);
    std::vector<double> volts(static_cast<std::size_t>(circuit.node_count()), 0.0);
    for (int n = 1; n < circuit.node_count(); ++n) volts[n] = x[n - 1];
    result.voltages.push_back(std::move(volts));
    int j = 0;
    for (const auto& v : circuit.vsources()) {
      result.vsource_currents[v.name].push_back(x[nn + j]);
      ++j;
    }
  };
  record(0.0);

  detail::TransientContext tr;
  tr.active = true;
  tr.dt = opts.dt;
  tr.prev_voltages.assign(static_cast<std::size_t>(circuit.node_count()), 0.0);

  const int steps = static_cast<int>(std::ceil(opts.t_stop / opts.dt - 1e-12));
  double t = 0.0;
  for (int s = 0; s < steps; ++s) {
    const double h = std::min(opts.dt, opts.t_stop - t);
    tr.dt = h;
    tr.time = t + h;
    for (int n = 0; n < circuit.node_count(); ++n) {
      tr.prev_voltages[n] = (n == 0) ? 0.0 : x[n - 1];
    }
    int iters = 0;
    if (!core.newton(x, 1e-12, tr, iters)) {
      SolveReport report;
      report.path = "transient";
      report.rungs.push_back({"transient", tr.time, iters, false, {}});
      report.newton_iterations = iters;
      const auto worst = core.audit(x, tr);
      report.worst_node = circuit.node_name(worst.node);
      report.worst_residual = worst.residual;
      report.worst_scale = worst.scale;
      const auto& mosfets = circuit.mosfets();
      for (std::size_t d = 0; d < mosfets.size(); ++d) {
        report.device_temperatures[mosfets[d].name] = core.device_temperature(d);
      }
      throw ConvergenceFailure(
          "solve_transient: Newton failed at t = " + std::to_string(tr.time),
          std::move(report), "solve_transient");
    }
    t = tr.time;
    record(t);
  }
  return result;
}

}  // namespace ptherm::spice
