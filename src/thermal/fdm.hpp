// Three-dimensional finite-difference thermal solver — the numerical
// reference ("exact"/measurement substitute) against which the analytic
// model of §3 is validated. Cell-centred grid over the die volume; 7-point
// conduction stencil; steady state solved with preconditioned CG and
// transients with backward Euler (also CG, the system stays SPD).
//
// Boundary conditions follow the paper's Fig. 4: adiabatic top, configurable
// sidewalls (adiabatic for die-scale studies, isothermal to emulate a
// semi-infinite substrate for device-scale Rth extraction), and an
// isothermal bottom at the sink temperature.
//
// DIE STACKS. The z-column is built from a thermal/stack.hpp DieStack — the
// die's own single layer (DieStack::single) when only a Die is given: the
// nz cells are split across the layers proportionally to thickness,
// vertical links between dissimilar cells use the harmonic half-cell series
// conductance, per-cell capacitance follows the local material, and the
// bottom closure is the stack's (isothermal plane — also what an attached
// RC network presents to the conduction operator — or a convective film in
// series with the bottom half-cell). Equal-material links keep the plain
// k A / dz expression, so one layer gives the uniform single-die grid. The
// layered grid is the verification reference for the layered spectral
// backend.
#pragma once

#include <optional>
#include <vector>

#include "numerics/sparse.hpp"
#include "thermal/images.hpp"
#include "thermal/stack.hpp"

namespace ptherm::thermal {

enum class LateralBoundary { Adiabatic, Isothermal };

struct FdmOptions {
  int nx = 32;
  int ny = 32;
  int nz = 16;
  LateralBoundary lateral = LateralBoundary::Adiabatic;
  /// CG settings. The stencil matrices are M-matrices, for which IC(0) is
  /// breakdown-free and severalfold cheaper than Jacobi, so it is the
  /// default here (the generic numerics default stays Jacobi).
  numerics::CgOptions cg = [] {
    numerics::CgOptions o;
    o.preconditioner = numerics::CgPreconditioner::IncompleteCholesky;
    return o;
  }();
};

/// Steady or transient conduction on a fixed grid. The matrix is assembled
/// once; sources only change the right-hand side.
///
/// Source-clipping policy (power conservation): every heat source is clipped
/// to the die surface and its FULL power is deposited over the clipped
/// footprint — a source straddling the die boundary does not silently lose
/// its off-die wattage. A source entirely outside the die deposits nothing.
/// The analytic ChipThermalModel applies the same policy. Sources must have
/// positive extents (w > 0 and l > 0) or the solve throws.
class FdmThermalSolver {
 public:
  /// The single-die grid: the stack constructor over DieStack::single(die),
  /// so the die's thickness, k_si and cv_si are the z-column.
  FdmThermalSolver(Die die, FdmOptions opts);

  /// The stack is authoritative for everything in z (the die supplies the
  /// lateral dimensions and the ambient temperature). opts.nz cells are
  /// split across the layers proportionally to thickness; capacitance
  /// follows the layer materials. Throws ptherm::PreconditionError on a
  /// grid below 2 cells per axis, a degenerate die or nz < layer count (the
  /// stack validated its own layers).
  FdmThermalSolver(Die die, DieStack stack, FdmOptions opts);

  /// Whether this solver runs on a genuinely layered z-grid (false when the
  /// stack reduces to the die).
  [[nodiscard]] bool layered() const noexcept { return !stack_.reduces_to(die_); }

  /// Steady solve for the given surface sources. Returns the full 3-D rise
  /// field (kelvin above the sink), indexable via `cell_index`.
  struct Solution {
    std::vector<double> rise;  ///< per-cell rise [K]
    int cg_iterations = 0;
    bool converged = false;
    /// CG diagnostics for callers that must report *why* a solve failed:
    /// `breakdown` flags a loss of positive-definiteness, `residual` is the
    /// relative residual of the returned field.
    bool breakdown = false;
    double residual = 0.0;
    /// With FdmOptions::cg.trace: the CG residual after each iteration
    /// (numerics::CgResult::residuals). Empty when tracing is off.
    std::vector<double> cg_residuals;
  };
  [[nodiscard]] Solution solve_steady(const std::vector<HeatSource>& sources,
                                      const std::vector<double>* warm_start = nullptr) const;

  /// Surface (top-layer) rise at (x, y), bilinear between cell centres.
  [[nodiscard]] double surface_rise(const Solution& sol, double x, double y) const;

  /// The bilinear interpolation stencil surface_rise combines at (x, y):
  /// four top-layer cell indices and their weights, rim-clamped. The ONE
  /// implementation of the clamp/centre arithmetic — batched readback
  /// caches (thermal/backend.cpp) call this too, so the cached path is
  /// bitwise-identical to surface_rise by construction, not by discipline.
  void surface_stencil(double x, double y, std::size_t idx[4], double w[4]) const noexcept;

  /// Absolute surface temperature.
  [[nodiscard]] double surface_temperature(const Solution& sol, double x, double y) const {
    return die_.t_sink + surface_rise(sol, x, y);
  }

  /// One backward-Euler transient step: advances `rise` (full field) by dt
  /// under the given sources. Returns CG iterations; throws
  /// ptherm::ConvergenceError (leaving `rise` untouched) if the implicit
  /// solve fails, so drivers never integrate a garbage field, and
  /// ptherm::PreconditionError (likewise) on a source validate() rejects
  /// (thermal/images.hpp).
  int step_transient(std::vector<double>& rise, double dt,
                     const std::vector<HeatSource>& sources) const;

  /// Transient steps that had to rebuild the source-term right-hand side
  /// because the sources changed since the previous step (cost counter):
  /// epoch-driven drivers hold their powers for many steps, so this counts
  /// epochs, not steps.
  [[nodiscard]] long long transient_power_updates() const noexcept { return power_updates_; }

  [[nodiscard]] int nx() const noexcept { return opts_.nx; }
  [[nodiscard]] int ny() const noexcept { return opts_.ny; }
  [[nodiscard]] int nz() const noexcept { return opts_.nz; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(opts_.nx) * opts_.ny * opts_.nz;
  }
  /// z = 0 is the surface layer.
  [[nodiscard]] std::size_t cell_index(int i, int j, int k) const noexcept {
    return (static_cast<std::size_t>(k) * opts_.ny + j) * opts_.nx + i;
  }
  /// Depth of z-layer kz's cell centre below the surface [m]. On a single
  /// die this is (kz + 1/2) dz; on a layered grid the cell heights vary, so
  /// matched-depth comparisons against the spectral solver must ask the
  /// grid.
  [[nodiscard]] double cell_depth(int kz) const noexcept { return z_centre_[kz]; }
  [[nodiscard]] const Die& die() const noexcept { return die_; }

  /// Power deposited in each top-layer cell for the given sources (area
  /// overlap weighting over the die-clipped footprint, renormalized so the
  /// full source power lands on the die); exposed for tests. Every FDM path
  /// that deposits power (steady solve, influence columns, transient step)
  /// comes through here, where each source is validate()d.
  [[nodiscard]] std::vector<double> surface_power(const std::vector<HeatSource>& sources) const;

 private:
  void assemble();
  void stamp_conduction(numerics::SparseBuilder& builder) const;
  [[nodiscard]] std::vector<double> rhs_for(const std::vector<HeatSource>& sources) const;

  Die die_;
  FdmOptions opts_;
  DieStack stack_;
  double dx_ = 0.0, dy_ = 0.0;
  // Per-z-layer material column (uniform on a single die): cell height,
  // conductivity, capacitance and centre depth.
  std::vector<double> dz_z_;
  std::vector<double> k_z_;
  std::vector<double> cap_z_;      // cv * cell volume per z-layer [J/K]
  std::vector<double> z_centre_;   // cell-centre depth per z-layer [m]
  numerics::CsrMatrix laplacian_;       // steady conduction matrix (SPD)
  std::optional<numerics::IncompleteCholesky> laplacian_ic_;  // when opts ask for IC

  // step_transient solves (C/dt I + A); the shifted operator depends only on
  // dt, so it (and its IC factor) is cached keyed by dt instead of being
  // reassembled every step. Mutable: rebuilding the cache does not change
  // observable state, but it does make concurrent step_transient calls on
  // one solver unsafe (use one solver per thread).
  struct TransientOperator {
    double dt = 0.0;
    numerics::CsrMatrix matrix;
    std::optional<numerics::IncompleteCholesky> ic;
    bool valid = false;
  };
  mutable TransientOperator transient_cache_;
  // Source-term RHS cache for step_transient: surface_power(sources) depends
  // only on the sources, which epoch-driven transient drivers hold constant
  // for many steps — rebuilding it per step would scan every source footprint
  // 10x-100x more often than the powers actually change. Same thread-safety
  // caveat as transient_cache_.
  mutable std::vector<HeatSource> transient_rhs_key_;
  mutable std::vector<double> transient_rhs_;
  mutable long long power_updates_ = 0;
};

}  // namespace ptherm::thermal
