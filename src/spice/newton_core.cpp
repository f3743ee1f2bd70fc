#include "spice/newton_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::spice::detail {

NewtonCore::NewtonCore(const Circuit& ckt, const DcOptions& opts)
    : ckt_(ckt),
      opts_(opts),
      num_nodes_(ckt.node_count()),
      num_v_(static_cast<int>(ckt.vsources().size())),
      size_(num_nodes_ - 1 + num_v_),
      temp_(opts.temp) {}

void NewtonCore::set_device_temperatures(std::span<const double> temps) {
  PTHERM_REQUIRE(temps.empty() || temps.size() == ckt_.mosfets().size(),
                 "set_device_temperatures: need one temperature per MOSFET (or none)");
  device_temps_.assign(temps.begin(), temps.end());
}

void NewtonCore::assemble(const std::vector<double>& x, double gmin,
                          const TransientContext& tr, std::vector<double>& f,
                          std::vector<double>& scale, numerics::Matrix* jac) const {
  f.assign(static_cast<std::size_t>(size_), 0.0);
  scale.assign(static_cast<std::size_t>(size_), 0.0);
  if (jac) jac->set_zero();

  auto add_current = [&](NodeId node, double current) {
    if (node == 0) return;
    f[node - 1] += current;
    scale[node - 1] += std::abs(current);
  };
  auto add_jac = [&](NodeId row_node, NodeId col_node, double g) {
    if (!jac || row_node == 0 || col_node == 0) return;
    (*jac)(row_node - 1, col_node - 1) += g;
  };

  for (const auto& r : ckt_.resistors()) {
    const double g = 1.0 / r.ohms;
    const double i = (v_of(x, r.a) - v_of(x, r.b)) * g;
    add_current(r.a, i);
    add_current(r.b, -i);
    add_jac(r.a, r.a, g);
    add_jac(r.a, r.b, -g);
    add_jac(r.b, r.a, -g);
    add_jac(r.b, r.b, g);
  }

  if (tr.active) {
    // Backward-Euler companion: i = C/dt * (v_ab - v_ab_prev).
    for (const auto& c : ckt_.capacitors()) {
      const double geq = c.farads / tr.dt;
      const double v_ab = v_of(x, c.a) - v_of(x, c.b);
      const double v_prev = tr.prev_voltages[c.a] - tr.prev_voltages[c.b];
      const double i = geq * (v_ab - v_prev);
      add_current(c.a, i);
      add_current(c.b, -i);
      add_jac(c.a, c.a, geq);
      add_jac(c.a, c.b, -geq);
      add_jac(c.b, c.a, -geq);
      add_jac(c.b, c.b, geq);
    }
  }

  for (const auto& s : ckt_.isources()) {
    const double amps = s.amps * source_scale_;
    add_current(s.from, amps);
    add_current(s.to, -amps);
  }

  const auto& vsrcs = ckt_.vsources();
  for (int j = 0; j < num_v_; ++j) {
    const auto& v = vsrcs[j];
    const int row = num_nodes_ - 1 + j;
    const double branch_i = x[row];
    add_current(v.plus, branch_i);
    add_current(v.minus, -branch_i);
    const double value =
        (v.waveform ? (*v.waveform)(tr.active ? tr.time : 0.0) : v.volts) * source_scale_;
    f[row] = v_of(x, v.plus) - v_of(x, v.minus) - value;
    scale[row] = std::max(1.0, std::abs(value));
    if (jac) {
      if (v.plus != 0) {
        (*jac)(v.plus - 1, row) += 1.0;
        (*jac)(row, v.plus - 1) += 1.0;
      }
      if (v.minus != 0) {
        (*jac)(v.minus - 1, row) -= 1.0;
        (*jac)(row, v.minus - 1) -= 1.0;
      }
    }
  }

  const auto& mosfets = ckt_.mosfets();
  for (std::size_t d = 0; d < mosfets.size(); ++d) {
    const auto& m = mosfets[d];
    const double temp = device_temperature(d);
    const double vd = v_of(x, m.drain);
    const double vg = v_of(x, m.gate);
    const double vs = v_of(x, m.source);
    const double vb = v_of(x, m.bulk);
    const double ids = m.model.ids(vg, vd, vs, vb, temp);
    add_current(m.drain, ids);
    add_current(m.source, -ids);
    if (jac) {
      const double h = 1e-6;  // central differences on each terminal
      const NodeId terms[4] = {m.drain, m.gate, m.source, m.bulk};
      for (int t = 0; t < 4; ++t) {
        if (terms[t] == 0) continue;
        double vp[4] = {vd, vg, vs, vb};
        double vm[4] = {vd, vg, vs, vb};
        vp[t] += h;
        vm[t] -= h;
        const double ip = m.model.ids(vp[1], vp[0], vp[2], vp[3], temp);
        const double im = m.model.ids(vm[1], vm[0], vm[2], vm[3], temp);
        const double g = (ip - im) / (2.0 * h);
        add_jac(m.drain, terms[t], g);
        add_jac(m.source, terms[t], -g);
      }
    }
  }

  // gmin to ground keeps floating subnets solvable.
  for (int n = 1; n < num_nodes_; ++n) {
    f[n - 1] += gmin * x[n - 1];
    if (jac) (*jac)(n - 1, n - 1) += gmin;
  }
}

bool NewtonCore::newton(std::vector<double>& x, double gmin, const TransientContext& tr,
                        int& iterations_used, std::vector<double>* residual_trace,
                        int iteration_cap) const {
  std::vector<double> f, scale;
  numerics::Matrix jac(static_cast<std::size_t>(size_), static_cast<std::size_t>(size_));
  const int nn = node_unknowns();
  const int max_iterations = std::min(opts_.max_iterations, iteration_cap);
  for (int it = 0; it < max_iterations; ++it) {
    TELEMETRY_SPAN("spice/newton_iteration");
    assemble(x, gmin, tr, f, scale, &jac);
    ++iterations_used;
    if (residual_trace) {
      double max_f = 0.0;
      for (const double fi : f) max_f = std::max(max_f, std::abs(fi));
      residual_trace->push_back(max_f);
    }

    std::vector<double> rhs(f.size());
    for (std::size_t i = 0; i < f.size(); ++i) rhs[i] = -f[i];
    std::vector<double> dx;
    try {
      dx = numerics::solve_dense(jac, rhs);
    } catch (const Error&) {
      return false;  // singular at this rung; the caller decides what to do
    }

    double max_dv = 0.0;
    for (int i = 0; i < nn; ++i) {
      const double step = std::clamp(dx[i], -opts_.max_step, opts_.max_step);
      x[i] = std::clamp(x[i] + step, -opts_.v_limit, opts_.v_limit);
      max_dv = std::max(max_dv, std::abs(step));
    }
    for (int i = nn; i < size_; ++i) x[i] += dx[i];

    if (max_dv < opts_.v_abstol) {
      assemble(x, gmin, tr, f, scale, nullptr);
      bool ok = true;
      for (int i = 0; i < nn; ++i) {
        if (std::abs(f[i]) > opts_.i_reltol * scale[i] + opts_.i_abstol + gmin * opts_.v_limit) {
          ok = false;
          break;
        }
      }
      for (int i = nn; i < size_; ++i) {
        if (std::abs(f[i]) > 1e-9 * scale[i]) ok = false;
      }
      if (ok) return true;
    }
  }
  return false;
}

KclAudit NewtonCore::audit(const std::vector<double>& x, const TransientContext& tr) const {
  KclAudit worst;
  const int nn = node_unknowns();
  if (nn == 0) return worst;
  std::vector<double> f, scale;
  assemble(x, 0.0, tr, f, scale, nullptr);
  int row = 0;
  for (int i = 1; i < nn; ++i) {
    if (std::abs(f[i]) > std::abs(f[row])) row = i;
  }
  worst.node = row + 1;
  worst.residual = f[row];
  worst.scale = scale[row];
  return worst;
}

}  // namespace ptherm::spice::detail
