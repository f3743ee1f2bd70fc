#include "core/rc_network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "numerics/dense.hpp"
#include "numerics/ode.hpp"

namespace ptherm::core {

RcThermalNetwork::RcThermalNetwork(device::Technology tech, floorplan::Floorplan fp,
                                   RcNetworkOptions opts)
    : tech_(std::move(tech)), fp_(std::move(fp)), opts_(opts) {
  PTHERM_REQUIRE(!fp_.blocks().empty(), "RcThermalNetwork: empty floorplan");
  PTHERM_REQUIRE(opts_.dt > 0.0 && opts_.t_stop > opts_.dt, "RcThermalNetwork: bad grid");
  PTHERM_REQUIRE(opts_.depth_fraction > 0.0 && opts_.depth_fraction <= 1.0,
                 "RcThermalNetwork: depth_fraction in (0, 1]");
  PTHERM_REQUIRE(opts_.record_every >= 1, "RcThermalNetwork: record_every must be >= 1");

  // Influence operator from the steady solver (closed form by default), then
  // G = R^-1 via dense LU (N is the block count — tens, not thousands).
  ElectroThermalSolver steady(tech_, fp_, opts_.steady);
  leakage_ = steady.compiled_leakage();
  const std::size_t n = steady.influence_matrix().size();
  const numerics::LuFactorization lu(steady.influence_matrix().matrix());
  g_.assign(n, std::vector<double>(n, 0.0));
  std::vector<double> unit(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    unit.assign(n, 0.0);
    unit[j] = 1.0;
    const auto col = lu.solve(unit);
    for (std::size_t i = 0; i < n; ++i) g_[i][j] = col[i];
  }

  const auto& die = fp_.die();
  c_blocks_.reserve(n);
  for (const auto& b : fp_.blocks()) {
    c_blocks_.push_back(die.cv_si * b.rect.area() * opts_.depth_fraction * die.thickness);
  }
}

TransientCosimResult RcThermalNetwork::solve(const ActivityProfile& activity) const {
  PTHERM_REQUIRE(static_cast<bool>(activity), "RcThermalNetwork: null activity profile");
  const auto& blocks = fp_.blocks();
  const std::size_t n = blocks.size();
  const double t_sink = fp_.die().t_sink;

  numerics::OdeRhs rhs = [&](double t, const std::vector<double>& temps) {
    std::vector<double> dT(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double p = blocks[i].p_dynamic * activity(i, t) +
                 leakage_[i].leakage_power(tech_, temps[i], opts_.vb);
      for (std::size_t j = 0; j < n; ++j) p -= g_[i][j] * (temps[j] - t_sink);
      dT[i] = p / c_blocks_[i];
    }
    return dT;
  };

  const std::vector<double> t0(n, t_sink);
  const auto sol = numerics::rk4(rhs, t0, 0.0, opts_.t_stop, opts_.dt);

  TransientCosimResult result;
  for (std::size_t k = 0; k < sol.times.size(); ++k) {
    if (k % static_cast<std::size_t>(opts_.record_every) != 0 && k + 1 != sol.times.size()) {
      continue;
    }
    result.times.push_back(sol.times[k]);
    result.block_temps.push_back(sol.states[k]);
    double p_leak = 0.0, p_dyn = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      p_dyn += blocks[i].p_dynamic * activity(i, sol.times[k]);
      p_leak += leakage_[i].leakage_power(tech_, sol.states[k][i], opts_.vb);
    }
    result.dynamic_power.push_back(p_dyn);
    result.leakage_power.push_back(p_leak);
  }
  return result;
}

}  // namespace ptherm::core
