// Compact block-level thermal RC network: the fast-transient counterpart of
// the analytic steady model (a HotSpot-flavoured reduction). The steady
// coupling comes from the influence matrix R (rise per watt, closed form);
// inverting it gives the conductance network G = R^-1, and a lumped heat
// capacity per block turns the die into N coupled ODEs:
//
//     C_i dT_i/dt = P_i(T_i) - sum_j G_ij (T_j - T_sink).
//
// This trades the FDM transient's spatial fidelity for ~10^3x speed, which
// is the paper's design philosophy applied to the time domain. Accuracy vs
// the FDM transient is characterised in tests (same steady state by
// construction; time constants agree to tens of percent, the fidelity a
// single-pole-per-block reduction can offer).
#pragma once

#include <functional>
#include <vector>

#include "core/cosim.hpp"
#include "core/transient.hpp"

namespace ptherm::core {

struct RcNetworkOptions {
  CosimOptions steady;        ///< backend/settings used to build R
  double dt = 5e-5;           ///< integration step [s]
  double t_stop = 20e-3;      ///< end time [s]
  double vb = 0.0;
  int record_every = 1;
  /// Effective participating substrate depth for the lumped block capacity
  /// C_i = cv * area_i * depth_fraction * thickness. A fit, as every lumped
  /// reduction of a diffusion is; 0.6 matches the FDM transient's dominant
  /// time constant for millimetre-scale dies (see tests).
  double depth_fraction = 0.6;
};

/// Compact transient solver; reusable across runs (the expensive parts —
/// influence matrix and its factorization — are built once).
class RcThermalNetwork {
 public:
  RcThermalNetwork(device::Technology tech, floorplan::Floorplan fp,
                   RcNetworkOptions opts = {});

  /// Integrates the coupled electro-thermal ODEs with RK4 from a uniform
  /// sink-temperature start. Same result contract as the FDM transient.
  [[nodiscard]] TransientCosimResult solve(const ActivityProfile& activity) const;

  /// Block heat capacities [J/K] (exposed for tests).
  [[nodiscard]] const std::vector<double>& capacitances() const noexcept {
    return c_blocks_;
  }
  /// Conductance matrix G = R^-1 [W/K].
  [[nodiscard]] const std::vector<std::vector<double>>& conductances() const noexcept {
    return g_;
  }

 private:
  device::Technology tech_;
  floorplan::Floorplan fp_;
  RcNetworkOptions opts_;
  std::vector<floorplan::CompiledBlockLeakage> leakage_;  ///< the steady solver's
  std::vector<std::vector<double>> g_;
  std::vector<double> c_blocks_;
};

}  // namespace ptherm::core
