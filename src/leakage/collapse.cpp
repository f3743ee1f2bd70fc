#include "leakage/collapse.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "numerics/explog.hpp"

namespace ptherm::leakage {

using device::MosType;
using device::Technology;

double collapse_alpha(const Technology& tech) noexcept {
  return tech.n_swing / (1.0 + tech.gamma_lin + 2.0 * tech.sigma_dibl);
}

double collapse_f(const Technology& tech, double w_upper, double w_lower,
                  double temp) noexcept {
  const double nvt = tech.n_swing * thermal_voltage(temp);
  return numerics::log(w_upper / w_lower) + tech.sigma_dibl * tech.vdd / nvt;
}

double delta_v_case_a(const Technology& tech, double f, double temp) noexcept {
  return collapse_alpha(tech) * thermal_voltage(temp) * f;
}

double delta_v_case_b(const Technology& /*tech*/, double f, double temp) noexcept {
  return thermal_voltage(temp) * std::exp(f);
}

double delta_v_blend_at(double f, double vt, double alpha) noexcept {
  // log1p/softplus guard against overflow for large |f|.
  const double softplus = (f > 30.0) ? f : numerics::log1p(numerics::exp(f));
  const double logistic = 1.0 / (1.0 + numerics::exp(-f));
  return vt * (alpha * softplus + (1.0 - alpha) * logistic);
}

double delta_v_blend(const Technology& tech, double f, double temp) noexcept {
  return delta_v_blend_at(f, thermal_voltage(temp), collapse_alpha(tech));
}

double delta_v_refined(const Technology& tech, double f, double temp) noexcept {
  const double vt = thermal_voltage(temp);
  const double alpha = collapse_alpha(tech);
  const double x0 = delta_v_blend(tech, f, temp) / vt;
  // The exact pair-continuity relation is f = x/alpha + ln(1 - e^-x); the
  // map x <- alpha*(f - ln(1 - e^-x)) contracts for x above ~0.8 with this
  // technology's alpha. Two unrolled applications (still closed form, no
  // loop) pull the blend onto the exact curve; fade them in over
  // x in [0.8, 1.3] and keep the pure blend below, where case (b) already
  // is the exact asymptote.
  if (x0 <= 0.8) return vt * x0;
  const double x1 = alpha * (f - std::log1p(-std::exp(-x0)));
  const double x2 = alpha * (f - std::log1p(-std::exp(-std::max(x1, 0.05))));
  const double t = std::clamp((x0 - 0.8) / 0.5, 0.0, 1.0);
  const double w = t * t * (3.0 - 2.0 * t);
  return vt * ((1.0 - w) * x0 + w * x2);
}

double delta_v(const Technology& tech, double f, double temp,
               CollapseVariant variant) noexcept {
  switch (variant) {
    case CollapseVariant::CaseAOnly:
      return std::max(0.0, delta_v_case_a(tech, f, temp));
    case CollapseVariant::CaseBOnly:
      return delta_v_case_b(tech, f, temp);
    case CollapseVariant::Refined:
      return delta_v_refined(tech, f, temp);
    case CollapseVariant::PaperBlend:
      break;
  }
  return delta_v_blend(tech, f, temp);
}

CollapseResult collapse_chain(const Technology& tech, MosType type,
                              std::span<const double> widths, double temp,
                              CollapseVariant variant) {
  PTHERM_REQUIRE(!widths.empty(), "collapse_chain: empty chain");
  for (double w : widths) PTHERM_REQUIRE(w > 0.0, "collapse_chain: non-positive width");
  (void)type;  // Eqs. (6)-(12) use only process parameters shared by n/pMOS

  CollapseResult result;
  const std::size_t n = widths.size();
  const double nvt = tech.n_swing * thermal_voltage(temp);
  const double body_exp = 1.0 + tech.gamma_lin + tech.sigma_dibl;

  // Pairwise top-down collapse (§2.2): the running equivalent transistor
  // starts as the top device; each lower device i contributes a drop
  // Delta-V_i (Eq. 10) and shrinks the equivalent width (Eq. 6).
  double w_eq = widths[n - 1];
  result.drops.assign(n >= 1 ? n - 1 : 0, 0.0);
  for (std::size_t i = n - 1; i-- > 0;) {
    const double f = collapse_f(tech, w_eq, widths[i], temp);
    const double dv = delta_v(tech, f, temp, variant);
    result.drops[i] = dv;
    w_eq *= numerics::exp(-body_exp * dv / nvt);
    result.v_top += dv;
  }
  result.w_eff = w_eq;
  return result;
}

double chain_off_current(const Technology& tech, MosType type, std::span<const double> widths,
                         double length, double temp, double vb, CollapseVariant variant) {
  PTHERM_REQUIRE(length > 0.0, "chain_off_current: non-positive length");
  const CollapseResult collapsed = collapse_chain(tech, type, widths, temp, variant);
  // Eq. (13): the equivalent device sees VGS = 0, VSB = -vb, VDS = VDD, so
  // the DIBL term vanishes and the gamma'*VB term survives.
  device::BiasPoint bias;
  bias.vgs = 0.0;
  bias.vds = tech.vdd;
  bias.vsb = -vb;
  bias.temp = temp;
  return device::subthreshold_current(tech, type, collapsed.w_eff, length, bias);
}

double stack_off_current(const Technology& tech, MosType type, double width, double length,
                         int n, double temp, double vb, CollapseVariant variant) {
  PTHERM_REQUIRE(n >= 1, "stack_off_current: need at least one device");
  std::vector<double> widths(static_cast<std::size_t>(n), width);
  return chain_off_current(tech, type, widths, length, temp, vb, variant);
}

}  // namespace ptherm::leakage
