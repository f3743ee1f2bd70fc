// First-class die stacks: the z-structure every thermal backend used to
// hard-code ("one homogeneous die, isothermal bottom") made explicit as an
// ordered list of layers (die silicon, TIM, spreader, heatsink base, 3-D
// tiers, ...) plus a boundary closure below the last layer — isothermal at
// the sink, convective film to ambient, or an attached compact RC package
// network whose case temperature becomes a dynamic state of the transient
// co-simulation. The Die struct keeps the lateral geometry and the ambient
// temperature; the stack owns everything about z. The FDM and spectral
// solvers are built from a stack only: their Die-only constructors pass
// DieStack::single(die), so its validation is theirs and Die::cv_si is the
// one heat capacity. A stack that reduces to the classic single-die
// problem takes the spectral solver's closed forms and the FDM's uniform
// grid.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "thermal/images.hpp"
#include "thermal/rc.hpp"

namespace ptherm::thermal {

/// One homogeneous layer of the z-stack, top to bottom.
struct StackLayer {
  std::string name;           ///< label for tables/diagnostics ("die", "tim", ...)
  double thickness = 0.0;     ///< [m]
  double k = 0.0;             ///< thermal conductivity [W/(m K)]
  double cv = 0.0;            ///< volumetric heat capacity [J/(m^3 K)]
  /// Diffusivity k / cv [m^2/s] — the rate constant of this layer's modes.
  [[nodiscard]] double diffusivity() const noexcept { return k / cv; }
};

/// What closes the stack below the last layer.
enum class BoundaryKind {
  /// Fixed temperature (the classic "ideal heat sink" plane).
  Isothermal,
  /// Convective film to ambient: q = h * theta at the bottom face.
  Convective,
  /// Compact Cauer package network attached at the bottom face; the
  /// conduction operator sees an isothermal case plane whose temperature
  /// (case rise above ambient) is advanced dynamically by the transient
  /// driver — and folds to the scalar r_package view at steady state.
  RcNetwork,
};

struct BoundarySpec {
  BoundaryKind kind = BoundaryKind::Isothermal;
  double h = 0.0;  ///< film coefficient [W/(m^2 K)], Convective only
  std::optional<PackageRcNetwork> rc;  ///< RcNetwork only
};

/// Ordered layer stack + boundary closure. Validated at construction:
/// at least one layer, positive thickness/k/cv per layer, a positive film
/// coefficient for Convective, an attached network for RcNetwork.
class DieStack {
 public:
  explicit DieStack(std::vector<StackLayer> layers, BoundarySpec boundary = {});

  /// The classic single-die stack for `die`: one silicon layer with the
  /// die's thickness/k_si/cv_si and an isothermal bottom — what the
  /// Die-only solver constructors build. Throws like the constructor when
  /// any of the three is not positive.
  [[nodiscard]] static DieStack single(const Die& die);

  [[nodiscard]] const std::vector<StackLayer>& layers() const noexcept { return layers_; }
  [[nodiscard]] const BoundarySpec& boundary() const noexcept { return boundary_; }
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }

  [[nodiscard]] double total_thickness() const noexcept;

  /// One-dimensional (per-area) series resistance surface -> boundary
  /// reference: sum t_i / k_i, plus 1 / h for a convective closure
  /// [K m^2 / W]. This is the DC limit of the per-mode transfer and the
  /// uniform-power exactness identity the layered tests pin.
  [[nodiscard]] double series_resistance_per_area() const noexcept;

  /// Uniform package resistance [K/W] the boundary adds on top of the
  /// conduction operator: the attached RC network's total resistance, zero
  /// otherwise. This is the derived r_package view — a steady cosim over an
  /// RcNetwork stack equals the same run with r_package =
  /// package_resistance() and an isothermal closure (tested).
  [[nodiscard]] double package_resistance() const noexcept;

  /// Whether the conduction problem is exactly the classic single-die
  /// problem for `die`: one layer matching the die's thickness/k/cv and a
  /// bottom plane that is isothermal as far as the operator is concerned
  /// (Isothermal, or RcNetwork — the case plane is isothermal at each
  /// instant; its motion is the driver's job). The spectral solver takes
  /// its single-die closed forms exactly when this holds.
  [[nodiscard]] bool reduces_to(const Die& die) const noexcept;

  /// Whether the operator's bottom plane is isothermal (Isothermal or
  /// RcNetwork closure) as opposed to a convective film.
  [[nodiscard]] bool isothermal_operator_boundary() const noexcept {
    return boundary_.kind != BoundaryKind::Convective;
  }

 private:
  std::vector<StackLayer> layers_;
  BoundarySpec boundary_;
};

/// Splits `total_cells` z-cells across the stack's layers proportionally to
/// layer thickness (largest-remainder rounding, at least one cell per
/// layer). Shared by the layered FDM grid and the spectral layered modal
/// grid so the two discretizations slice the stack identically. Throws if
/// total_cells < layer count.
[[nodiscard]] std::vector<int> distribute_stack_cells(const DieStack& stack, int total_cells);

}  // namespace ptherm::thermal
