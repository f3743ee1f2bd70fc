#include "device/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "numerics/explog.hpp"

namespace ptherm::device {

double threshold_voltage(const Technology& tech, MosType type, const BiasPoint& bias) noexcept {
  return tech.vt0(type) + tech.gamma_lin * bias.vsb + tech.k_t * (bias.temp - tech.t_ref) -
         tech.sigma_dibl * (bias.vds - tech.vdd);
}

double subthreshold_current(const Technology& tech, MosType type, double width, double length,
                            const BiasPoint& bias) noexcept {
  const double vt = thermal_voltage(bias.temp);
  const double vth = threshold_voltage(tech, type, bias);
  const double ratio = bias.temp / tech.t_ref;
  const double exponent = (bias.vgs - vth) / (tech.n_swing * vt);
  const double drain_factor = 1.0 - numerics::exp(-bias.vds / vt);
  return subthreshold_product(tech.i0(type), width / length, ratio, numerics::exp(exponent),
                              drain_factor);
}

double off_current(const Technology& tech, MosType type, double width, double length,
                   double temp) noexcept {
  BiasPoint bias;
  bias.vgs = 0.0;
  bias.vds = tech.vdd;
  bias.vsb = 0.0;
  bias.temp = temp;
  return subthreshold_current(tech, type, width, length, bias);
}

MosModel::MosModel(Technology tech, MosType type, double width, double length)
    : tech_(std::move(tech)), type_(type), width_(width), length_(length) {
  PTHERM_REQUIRE(width > 0.0 && length > 0.0, "MosModel: non-positive geometry");
}

namespace {

/// Strong-inversion square law with channel-length modulation. `veff` must be
/// positive; `vds` non-negative.
double square_law(const Technology& tech, MosType type, double w_over_l, double veff,
                  double vds) {
  const double kp = tech.kp(type);
  const double clm = 1.0 + tech.lambda * vds;
  if (vds < veff) {
    return kp * w_over_l * (veff * vds - 0.5 * vds * vds) * clm;  // triode
  }
  return 0.5 * kp * w_over_l * veff * veff * clm;  // saturation
}

}  // namespace

double MosModel::ids_normalized(const BiasPoint& bias) const {
  const Technology& tech = tech_;
  const double vt = thermal_voltage(bias.temp);
  const double vth = threshold_voltage(tech, type_, bias);
  const double veff = bias.vgs - vth;
  const double w_over_l = width_ / length_;

  // Blend window in gate overdrive: pure Eq.(1) below `lo`, pure square law
  // above `hi`, C1 log-space Hermite blend in between. Static CMOS operating
  // points sit far outside [lo, hi].
  const double lo = 1.0 * tech.n_swing * vt;
  const double hi = lo + 0.16;

  const double i_sub = subthreshold_current(tech, type_, width_, length_, bias);
  if (veff <= lo) return i_sub;

  const double i_strong = square_law(tech, type_, w_over_l, veff, bias.vds);
  if (bias.vds <= 0.0 || i_strong <= 0.0 || i_sub <= 0.0) return i_sub;
  if (veff >= hi) return i_strong;

  const double t = (veff - lo) / (hi - lo);
  const double s = t * t * (3.0 - 2.0 * t);  // smoothstep
  return std::exp((1.0 - s) * std::log(i_sub) + s * std::log(i_strong));
}

double MosModel::ids(double vg, double vd, double vs, double vb, double temp) const {
  // A pMOS is an nMOS (with pMOS parameter magnitudes, which ids_normalized
  // selects through type_) with every terminal voltage and the current
  // negated.
  double sign = 1.0;
  if (type_ == MosType::Pmos) {
    vg = -vg;
    vd = -vd;
    vs = -vs;
    vb = -vb;
    sign = -1.0;
  }
  if (vd >= vs) {
    return sign * ids_normalized({vg - vs, vd - vs, vs - vb, temp});
  }
  return -sign * ids_normalized({vg - vd, vs - vd, vd - vb, temp});
}

double MosModel::power(double vg, double vd, double vs, double vb, double temp) const {
  return std::abs(ids(vg, vd, vs, vb, temp) * (vd - vs));
}

}  // namespace ptherm::device
