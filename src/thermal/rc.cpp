#include "thermal/rc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "numerics/eigen.hpp"
#include "numerics/ode.hpp"

namespace ptherm::thermal {

void validate(const ThermalRc& rc) {
  PTHERM_REQUIRE(rc.r_th > 0.0, "ThermalRc: r_th must be > 0");
  PTHERM_REQUIRE(rc.c_th > 0.0, "ThermalRc: c_th must be > 0");
}

PackageRcNetwork::PackageRcNetwork(std::vector<ThermalRc> stages)
    : stages_(std::move(stages)) {
  PTHERM_REQUIRE(!stages_.empty(), "PackageRcNetwork: need at least one stage");
  for (const ThermalRc& stage : stages_) validate(stage);
  const std::size_t n = stages_.size();
  // Conductance ladder G (tridiagonal): node i couples to node i + 1 through
  // 1/r_i, the last node to ambient through 1/r_{n-1}. Symmetrize with
  // C^{-1/2} so the modal reduction is a symmetric tridiagonal eigenproblem.
  std::vector<double> diag(n);
  std::vector<double> off(n >= 1 ? n - 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    double g = 1.0 / stages_[i].r_th;
    if (i > 0) g += 1.0 / stages_[i - 1].r_th;
    diag[i] = g / stages_[i].c_th;
    if (i + 1 < n) {
      off[i] = -1.0 / (stages_[i].r_th * std::sqrt(stages_[i].c_th * stages_[i + 1].c_th));
    }
  }
  lambda_ = numerics::tridiagonal_eigenvalues(diag, off);
  gain_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    PTHERM_REQUIRE(lambda_[p] > 0.0, "PackageRcNetwork: ladder is not dissipative");
    const auto u = numerics::tridiagonal_eigenvector(diag, off, lambda_[p]);
    // Case-referred modal machinery: with amp_p := u0c_p * z_p the update is
    // amp' = -lambda amp + P * u0c^2, so the steady case rise per watt of
    // mode p is u0c^2 / lambda — and the gains sum to (G^{-1})_00, the total
    // ladder resistance (tested).
    const double u0c = u[0] / std::sqrt(stages_[0].c_th);
    gain_[p] = u0c * u0c / lambda_[p];
  }
}

double PackageRcNetwork::total_resistance() const noexcept {
  double r = 0.0;
  for (const ThermalRc& stage : stages_) r += stage.r_th;
  return r;
}

PackageRcNetwork::State PackageRcNetwork::make_state() const {
  State state;
  state.amps.assign(stages_.size(), 0.0);
  return state;
}

double PackageRcNetwork::advance(State& state, double h, double power) const {
  PTHERM_REQUIRE(h > 0.0, "PackageRcNetwork::advance: h must be positive");
  PTHERM_REQUIRE(state.amps.size() == stages_.size(),
                 "PackageRcNetwork::advance: state belongs to a different network");
  if (state.decay_h != h || state.decay.size() != lambda_.size()) {
    state.decay.resize(lambda_.size());
    for (std::size_t p = 0; p < lambda_.size(); ++p) {
      state.decay[p] = std::exp(-lambda_[p] * h);
    }
    state.decay_h = h;
  }
  double rise = 0.0;
  for (std::size_t p = 0; p < state.amps.size(); ++p) {
    const double d = state.decay[p];
    state.amps[p] = state.amps[p] * d + power * gain_[p] * (1.0 - d);
    rise += state.amps[p];
  }
  state.case_rise = rise;
  return rise;
}

double device_r_th(double k_si, double w, double l, double thickness) noexcept {
  const double direct = rect_center_rise(k_si, 1.0, w, l);
  // Isothermal sink plane: the alternating z-image series evaluated at
  // rho = 0 sums in closed form, sum 2(-1)^j/(2jt) = -ln(2)/t.
  const double image = point_source_rise(k_si, 1.0, thickness) * std::log(2.0);
  return direct - image;
}

double device_c_th(double cv_si, double thickness, double radius_fraction) noexcept {
  const double r = radius_fraction * thickness;
  return cv_si * (2.0 / 3.0) * std::numbers::pi * r * r * r;
}

ThermalRc device_thermal_rc(double k_si, double cv_si, double w, double l, double thickness) {
  PTHERM_REQUIRE(w > 0.0 && l > 0.0 && thickness > 0.0, "device_thermal_rc: bad geometry");
  ThermalRc rc;
  rc.r_th = device_r_th(k_si, w, l, thickness);
  rc.c_th = device_c_th(cv_si, thickness);
  return rc;
}

namespace {
bool chop_on(double t, double f, double duty) {
  const double phase = t * f - std::floor(t * f);
  return phase < duty;
}
}  // namespace

SelfHeatingTrace run_self_heating(const SelfHeatingConfig& cfg) {
  validate(cfg.rc);
  PTHERM_REQUIRE(cfg.dt > 0.0 && cfg.t_stop > cfg.dt, "run_self_heating: bad time grid");

  auto current_at = [&](double temp) {
    return cfg.i_on_ref * std::max(0.0, 1.0 - cfg.tc_current * (temp - cfg.t_ambient));
  };
  auto rhs = [&](double t, double rise) {
    const double p = chop_on(t, cfg.f_chop, cfg.duty)
                         ? cfg.v_drain * current_at(cfg.t_ambient + rise)
                         : 0.0;
    return (p - rise / cfg.rc.r_th) / cfg.rc.c_th;
  };
  const auto sol = numerics::rk4(rhs, 0.0, 0.0, cfg.t_stop, cfg.dt);

  SelfHeatingTrace trace;
  trace.time = sol.times;
  trace.temp.reserve(sol.times.size());
  trace.current.reserve(sol.times.size());
  trace.v_sense.reserve(sol.times.size());
  for (std::size_t i = 0; i < sol.times.size(); ++i) {
    const double rise = sol.states[i];
    const double temp = cfg.t_ambient + rise;
    const double on = chop_on(sol.times[i], cfg.f_chop, cfg.duty) ? 1.0 : 0.0;
    const double i_d = on * current_at(temp);
    trace.temp.push_back(temp);
    trace.current.push_back(i_d);
    trace.v_sense.push_back(i_d * cfg.r_sense);
  }
  return trace;
}

double SelfHeatingTrace::max_rise(double t_ambient) const {
  double rise = 0.0;
  for (double t : temp) rise = std::max(rise, t - t_ambient);
  return rise;
}

double extract_r_th(const SelfHeatingConfig& cfg, const SelfHeatingTrace& trace) {
  // Use the hottest recorded point of the ON phase: Rth = dT / P(T_hot).
  double best_rise = 0.0;
  double p_at_best = 0.0;
  for (std::size_t i = 0; i < trace.time.size(); ++i) {
    const double rise = trace.temp[i] - cfg.t_ambient;
    if (trace.current[i] > 0.0 && rise > best_rise) {
      best_rise = rise;
      p_at_best = cfg.v_drain * trace.current[i];
    }
  }
  PTHERM_REQUIRE(p_at_best > 0.0, "extract_r_th: trace has no ON phase");
  return best_rise / p_at_best;
}

}  // namespace ptherm::thermal
