#include "thermal/fdm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::thermal {

FdmThermalSolver::FdmThermalSolver(Die die, FdmOptions opts)
    : FdmThermalSolver(die, DieStack::single(die), opts) {}

FdmThermalSolver::FdmThermalSolver(Die die, DieStack stack, FdmOptions opts)
    : die_(die), opts_(opts), stack_(std::move(stack)) {
  PTHERM_REQUIRE(opts_.nx >= 2 && opts_.ny >= 2 && opts_.nz >= 2, "FDM: grid too small");
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0, "FDM: degenerate die");
  PTHERM_REQUIRE(opts_.nz >= static_cast<int>(stack_.layer_count()),
                 "FDM: nz must cover every stack layer");
  dx_ = die_.width / opts_.nx;
  dy_ = die_.height / opts_.ny;
  // The z-column follows the layers; a single layer gets nz equal cells.
  const auto cells = distribute_stack_cells(stack_, opts_.nz);
  double top = 0.0;
  for (std::size_t l = 0; l < stack_.layer_count(); ++l) {
    const StackLayer& layer = stack_.layers()[l];
    const double dz = layer.thickness / cells[l];
    for (int c = 0; c < cells[l]; ++c) {
      dz_z_.push_back(dz);
      k_z_.push_back(layer.k);
      cap_z_.push_back(layer.cv * dx_ * dy_ * dz);
      z_centre_.push_back(top + 0.5 * dz);
      top += dz;
    }
  }
  assemble();
}

void FdmThermalSolver::stamp_conduction(numerics::SparseBuilder& builder) const {
  // Conductances between adjacent cell centres: G = k * A / d; half-cell
  // link (2G) to an isothermal boundary plane. Equal-material vertical
  // neighbours keep the plain k A / dz; dissimilar neighbours use the
  // harmonic series of the two half cells.
  const std::size_t nzc = dz_z_.size();
  std::vector<double> gz_link(nzc > 1 ? nzc - 1 : 0);
  for (std::size_t kz = 0; kz + 1 < nzc; ++kz) {
    if (k_z_[kz] == k_z_[kz + 1] && dz_z_[kz] == dz_z_[kz + 1]) {
      gz_link[kz] = k_z_[kz] * dx_ * dy_ / dz_z_[kz];
    } else {
      gz_link[kz] = dx_ * dy_ / (dz_z_[kz] / (2.0 * k_z_[kz]) +
                                 dz_z_[kz + 1] / (2.0 * k_z_[kz + 1]));
    }
  }
  // Bottom closure: Dirichlet sink plane (half-cell conductance to ground)
  // unless the stack ends in a convective film, which sits in series with
  // the bottom half cell.
  const double gz_bottom_full = k_z_[nzc - 1] * dx_ * dy_ / dz_z_[nzc - 1];
  const double g_bottom =
      stack_.isothermal_operator_boundary()
          ? 2.0 * gz_bottom_full
          : dx_ * dy_ / (dz_z_[nzc - 1] / (2.0 * k_z_[nzc - 1]) + 1.0 / stack_.boundary().h);
  const bool iso_side = opts_.lateral == LateralBoundary::Isothermal;
  for (int kz = 0; kz < opts_.nz; ++kz) {
    const std::size_t zi = static_cast<std::size_t>(kz);
    const double gx = k_z_[zi] * dy_ * dz_z_[zi] / dx_;
    const double gy = k_z_[zi] * dx_ * dz_z_[zi] / dy_;
    for (int j = 0; j < opts_.ny; ++j) {
      for (int i = 0; i < opts_.nx; ++i) {
        const std::size_t c = cell_index(i, j, kz);
        double diag = 0.0;
        auto couple = [&](std::size_t other, double g) {
          builder.add(c, other, -g);
          diag += g;
        };
        if (i > 0) couple(cell_index(i - 1, j, kz), gx);
        if (i + 1 < opts_.nx) couple(cell_index(i + 1, j, kz), gx);
        if (j > 0) couple(cell_index(i, j - 1, kz), gy);
        if (j + 1 < opts_.ny) couple(cell_index(i, j + 1, kz), gy);
        if (kz > 0) couple(cell_index(i, j, kz - 1), gz_link[zi - 1]);
        if (kz + 1 < opts_.nz) couple(cell_index(i, j, kz + 1), gz_link[zi]);
        // Top (kz == 0) is adiabatic — no term.
        if (kz + 1 == opts_.nz) diag += g_bottom;
        if (iso_side) {
          if (i == 0) diag += 2.0 * gx;
          if (i + 1 == opts_.nx) diag += 2.0 * gx;
          if (j == 0) diag += 2.0 * gy;
          if (j + 1 == opts_.ny) diag += 2.0 * gy;
        }
        builder.add(c, c, diag);
      }
    }
  }
}

void FdmThermalSolver::assemble() {
  const std::size_t n = cell_count();
  numerics::SparseBuilder builder(n, n);
  stamp_conduction(builder);
  laplacian_ = numerics::CsrMatrix(builder);
  if (opts_.cg.preconditioner == numerics::CgPreconditioner::IncompleteCholesky) {
    laplacian_ic_.emplace(laplacian_);
  }
}

std::vector<double> FdmThermalSolver::surface_power(
    const std::vector<HeatSource>& sources) const {
  std::vector<double> q(cell_count(), 0.0);
  for (const auto& s : sources) {
    validate(s);
    // The density is renormalized to the die-clipped area: the source's
    // full power is conserved on the die (see the class policy comment).
    const DieFootprint f = clip_to_die(die_, s);
    if (!f.on_die()) continue;
    const auto [x0, x1, y0, y1] = f;
    const double density = s.power / f.area();
    const int i0 = std::clamp(static_cast<int>(std::floor(x0 / dx_)), 0, opts_.nx - 1);
    const int i1 = std::clamp(static_cast<int>(std::floor((x1 - 1e-15) / dx_)), 0, opts_.nx - 1);
    const int j0 = std::clamp(static_cast<int>(std::floor(y0 / dy_)), 0, opts_.ny - 1);
    const int j1 = std::clamp(static_cast<int>(std::floor((y1 - 1e-15) / dy_)), 0, opts_.ny - 1);
    for (int j = j0; j <= j1; ++j) {
      const double cy0 = j * dy_;
      const double cy1 = cy0 + dy_;
      const double oy = std::max(0.0, std::min(y1, cy1) - std::max(y0, cy0));
      for (int i = i0; i <= i1; ++i) {
        const double cx0 = i * dx_;
        const double cx1 = cx0 + dx_;
        const double ox = std::max(0.0, std::min(x1, cx1) - std::max(x0, cx0));
        q[cell_index(i, j, 0)] += density * ox * oy;
      }
    }
  }
  return q;
}

std::vector<double> FdmThermalSolver::rhs_for(const std::vector<HeatSource>& sources) const {
  return surface_power(sources);
}

FdmThermalSolver::Solution FdmThermalSolver::solve_steady(
    const std::vector<HeatSource>& sources, const std::vector<double>* warm_start) const {
  TELEMETRY_SPAN("fdm/steady_solve");
  const std::vector<double> rhs = rhs_for(sources);
  std::span<const double> x0;
  if (warm_start) {
    PTHERM_REQUIRE(warm_start->size() == cell_count(), "FDM warm start size mismatch");
    x0 = *warm_start;
  }
  auto cg = numerics::conjugate_gradient(laplacian_, rhs, opts_.cg, x0,
                                         laplacian_ic_ ? &*laplacian_ic_ : nullptr);
  Solution sol;
  sol.rise = std::move(cg.x);
  sol.cg_iterations = cg.iterations;
  sol.converged = cg.converged;
  sol.breakdown = cg.breakdown;
  sol.residual = cg.residual;
  sol.cg_residuals = std::move(cg.residuals);
  return sol;
}

void FdmThermalSolver::surface_stencil(double x, double y, std::size_t idx[4],
                                       double w[4]) const noexcept {
  // Bilinear interpolation between top-layer cell centres, clamped at the rim.
  const double fx = std::clamp(x / dx_ - 0.5, 0.0, static_cast<double>(opts_.nx - 1));
  const double fy = std::clamp(y / dy_ - 0.5, 0.0, static_cast<double>(opts_.ny - 1));
  const int i0 = std::min(static_cast<int>(fx), opts_.nx - 2);
  const int j0 = std::min(static_cast<int>(fy), opts_.ny - 2);
  const double tx = fx - i0;
  const double ty = fy - j0;
  idx[0] = cell_index(i0, j0, 0);
  idx[1] = cell_index(i0 + 1, j0, 0);
  idx[2] = cell_index(i0, j0 + 1, 0);
  idx[3] = cell_index(i0 + 1, j0 + 1, 0);
  w[0] = (1 - tx) * (1 - ty);
  w[1] = tx * (1 - ty);
  w[2] = (1 - tx) * ty;
  w[3] = tx * ty;
}

double FdmThermalSolver::surface_rise(const Solution& sol, double x, double y) const {
  PTHERM_REQUIRE(sol.rise.size() == cell_count(), "surface_rise: field size mismatch");
  std::size_t idx[4];
  double w[4];
  surface_stencil(x, y, idx, w);
  return w[0] * sol.rise[idx[0]] + w[1] * sol.rise[idx[1]] + w[2] * sol.rise[idx[2]] +
         w[3] * sol.rise[idx[3]];
}

int FdmThermalSolver::step_transient(std::vector<double>& rise, double dt,
                                     const std::vector<HeatSource>& sources) const {
  TELEMETRY_SPAN("fdm/transient_step");
  PTHERM_REQUIRE(rise.size() == cell_count(), "step_transient: field size mismatch");
  PTHERM_REQUIRE(dt > 0.0, "step_transient: dt must be positive");
  // (C/dt * I + A) T^{n+1} = C/dt * T^n + q. The shifted operator depends
  // only on dt; transient drivers step with a fixed dt thousands of times,
  // so it is cached (with its IC factor) and reassembled only when dt moves.
  // The capacitance follows the local material per z-layer.
  const std::size_t n = cell_count();
  const std::size_t slab = static_cast<std::size_t>(opts_.nx) * opts_.ny;
  std::vector<double> c_over_dt_z(dz_z_.size());
  for (std::size_t kz = 0; kz < dz_z_.size(); ++kz) c_over_dt_z[kz] = cap_z_[kz] / dt;
  if (!transient_cache_.valid || transient_cache_.dt != dt) {
    numerics::SparseBuilder builder(n, n);
    for (std::size_t c = 0; c < n; ++c) builder.add(c, c, c_over_dt_z[c / slab]);
    stamp_conduction(builder);
    transient_cache_.matrix = numerics::CsrMatrix(builder);
    transient_cache_.ic.reset();
    if (opts_.cg.preconditioner == numerics::CgPreconditioner::IncompleteCholesky) {
      transient_cache_.ic.emplace(transient_cache_.matrix);
    }
    transient_cache_.dt = dt;
    transient_cache_.valid = true;
  }
  // Rebuild the source-term RHS only when the sources actually changed
  // (exact field-wise compare: epoch-driven drivers hand back the identical
  // vector for every interior step of an epoch).
  const bool sources_changed = [&] {
    if (transient_rhs_key_.size() != sources.size()) return true;
    for (std::size_t j = 0; j < sources.size(); ++j) {
      const HeatSource& a = transient_rhs_key_[j];
      const HeatSource& b = sources[j];
      if (a.cx != b.cx || a.cy != b.cy || a.w != b.w || a.l != b.l || a.power != b.power) {
        return true;
      }
    }
    return false;
  }();
  if (sources_changed) {
    // rhs_for validates every source before the state changes: a non-finite
    // power or footprint would turn the whole field into NaN for good; held
    // sources were checked when they last changed.
    transient_rhs_ = rhs_for(sources);
    transient_rhs_key_ = sources;
    ++power_updates_;
  }
  std::vector<double> rhs = transient_rhs_;
  for (std::size_t c = 0; c < n; ++c) rhs[c] += c_over_dt_z[c / slab] * rise[c];
  const auto cg =
      numerics::conjugate_gradient(transient_cache_.matrix, rhs, opts_.cg, rise,
                                   transient_cache_.ic ? &*transient_cache_.ic : nullptr);
  if (!cg.converged) {
    // Same failure policy as the steady path: never hand a transient driver
    // a garbage field to keep integrating.
    std::ostringstream os;
    os << "step_transient: CG "
       << (cg.breakdown ? "breakdown (operator not positive definite)"
                        : "hit the iteration limit")
       << ", relative residual " << cg.residual << " after " << cg.iterations << " iterations";
    throw ConvergenceError(os.str());
  }
  rise = cg.x;
  return cg.iterations;
}

}  // namespace ptherm::thermal
