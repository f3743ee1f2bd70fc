// MOSFET models.
//
// Two layers:
//  * `subthreshold_current` / `threshold_voltage` implement the paper's
//    Eqs. (1) and (2) verbatim — these are the physics the compact leakage
//    model (src/leakage) is derived from, and the exact solvers solve the
//    very same equations numerically so that Fig. 8's comparison isolates
//    the quality of the *collapse*, not of the device model.
//  * `MosModel::ids` adds a strong-inversion square-law region, blended C1-
//    continuously in log-current space, for the SPICE substrate where ON
//    transistors must conduct realistically. The blend window sits well away
//    from the static operating points of CMOS gates (devices are either hard
//    OFF or hard ON), so the blend never influences a reported result.
#pragma once

#include "device/tech.hpp"

namespace ptherm::device {

/// Source-referenced bias point of one transistor (nMOS conventions: all
/// voltages positive in normal operation; for pMOS pass mirrored values).
struct BiasPoint {
  double vgs = 0.0;
  double vds = 0.0;
  double vsb = 0.0;
  double temp = 300.0;  ///< device temperature [K]
};

/// Paper Eq. (2): VTH = VT0 + gamma'*VSB + KT*(T - Tref) - sigma*(VDS - VDD).
/// The DIBL term vanishes at VDS = VDD (VT0 is defined at full drain bias).
[[nodiscard]] double threshold_voltage(const Technology& tech, MosType type,
                                       const BiasPoint& bias) noexcept;

/// Paper Eq. (1):
///   I = I0 * (W/L) * (T/Tref)^2 * exp((VGS - VTH)/(n VT)) * (1 - exp(-VDS/VT)).
/// Positive for VDS > 0. Width/length in metres.
[[nodiscard]] double subthreshold_current(const Technology& tech, MosType type, double width,
                                          double length, const BiasPoint& bias) noexcept;

/// Eq. (1) from its factors, in subthreshold_current's multiplication order:
///   I0 * (W/L) * ratio * ratio * exp_term * drain_factor,
/// ratio = T/Tref, exp_term = exp((VGS - VTH)/(n VT)), drain_factor =
/// 1 - exp(-VDS/VT). Callers that hoist the width-independent factors out of
/// a loop (floorplan/compiled_leakage) evaluate this same product, so they
/// stay bitwise equal to subthreshold_current.
/// T is a double, or a vector type whose lanes each take this product.
/// Always inlined: the leakage sweep's AVX2 clone calls it on 4-wide lanes,
/// and an out-of-line baseline copy (an unoptimized build) would return them
/// through another calling convention than the clone expects.
template <class T>
[[nodiscard, gnu::always_inline]] constexpr T subthreshold_product(const T& i0, const T& w_over_l,
                                                                  const T& ratio, const T& exp_term,
                                                                  const T& drain_factor) noexcept {
  return i0 * w_over_l * ratio * ratio * exp_term * drain_factor;
}

/// OFF current of a single device with VGS = 0, VSB = 0, VDS = VDD at
/// temperature `temp` — the N = 1 case of the paper's Eq. (13).
[[nodiscard]] double off_current(const Technology& tech, MosType type, double width,
                                 double length, double temp) noexcept;

/// Full-region model for the circuit solver. Owns a copy of the technology
/// so instances never dangle (callers routinely pass factory temporaries).
class MosModel {
 public:
  MosModel(Technology tech, MosType type, double width, double length);

  /// Drain current for *terminal* voltages (not source-referenced); handles
  /// pMOS mirroring and source/drain swap so it is valid in all quadrants.
  /// Returns conventional current into the drain terminal.
  [[nodiscard]] double ids(double vg, double vd, double vs, double vb, double temp) const;

  /// Instantaneous dissipated power |ids * (vd - vs)| [W] at the given
  /// terminal voltages — what the electro-thermal coupling injects into the
  /// thermal solver per device. Always non-negative.
  [[nodiscard]] double power(double vg, double vd, double vs, double vb, double temp) const;

  [[nodiscard]] MosType type() const noexcept { return type_; }
  [[nodiscard]] double width() const noexcept { return width_; }
  [[nodiscard]] double length() const noexcept { return length_; }
  [[nodiscard]] const Technology& technology() const noexcept { return tech_; }

 private:
  /// Source-referenced nMOS-convention current (vds >= 0 guaranteed by caller).
  [[nodiscard]] double ids_normalized(const BiasPoint& bias) const;

  Technology tech_;
  MosType type_;
  double width_;
  double length_;
};

}  // namespace ptherm::device
