#include "thermal/spectral.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>

#include "common/error.hpp"
#include "numerics/dense.hpp"
#include "numerics/eigen.hpp"
#include "numerics/explog.hpp"
#include "numerics/fft.hpp"
#include "numerics/lanes.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::thermal {

namespace {

constexpr double kPi = std::numbers::pi;

/// Transient decay factors below this floor (2^-512, ~1e-154) count as
/// fully decayed: the amp * d they carry is ~1e-154 of the amplitude, far
/// below any rounding of the q g (1 - d) term beside it, yet multiplies
/// that produce or consume such tiny values run into the slow subnormal
/// range. Only long steps reach it (it takes lambda h > 355; a 0.1 ms step
/// on a 350 um die with 32 x 32 x 8 modes peaks near 130): a folded
/// held-power segment pushes the fastest modes there.
constexpr double kDecayFloor = 0x1p-512;

/// integral of cos(m pi u / extent) over [u0, u1].
double cosine_footprint_integral(int m, double extent, double u0, double u1) {
  if (m == 0) return u1 - u0;
  const double f = m * kPi / extent;
  return (std::sin(f * u1) - std::sin(f * u0)) / f;
}

/// Steady depth profile sinh(g (t - z)) / sinh(g t) ((t - z) / t at g = 0),
/// in the overflow-safe exponential form (g t reaches hundreds at high mode
/// counts).
double steady_depth_profile(double g, double t, double z) {
  if (g == 0.0) return (t - z) / t;
  return std::exp(-g * z) * (1.0 - std::exp(-2.0 * g * (t - z))) /
         (1.0 - std::exp(-2.0 * g * t));
}

/// Per-watt flux density of an on-die footprint, with the 1 / (W H) of the
/// mode normalization.
double unit_weight(const DieFootprint& f, const Die& die) noexcept {
  return 1.0 / (f.area() * die.width * die.height);
}

/// One axis of a footprint's flux projection: out[m] = c_m * integral of
/// cos(m pi u / extent) over [u0, u1], c_0 = 1, c_m = 2.
void cosine_axis_factors(int modes, double extent, double u0, double u1, double* out) {
  for (int m = 0; m < modes; ++m) {
    out[m] = ((m == 0) ? 1.0 : 2.0) * cosine_footprint_integral(m, extent, u0, u1);
  }
}

/// Sort + unique interning, O(n log n): row[i] is the index of keys[i] in
/// `unique`, which receives each distinct key once, in sorted order. Keys
/// compare by bit pattern, so two items share a row exactly when the row
/// would be computed from identical inputs (and a NaN cannot break the
/// sort's ordering).
template <std::size_t K>
std::vector<std::uint32_t> intern_rows(const std::vector<std::array<double, K>>& keys,
                                       std::vector<std::array<double, K>>& unique) {
  std::vector<std::pair<std::array<std::uint64_t, K>, std::uint32_t>> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t d = 0; d < K; ++d) {
      order[i].first[d] = std::bit_cast<std::uint64_t>(keys[i][d]);
    }
    order[i].second = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> row(keys.size());
  unique.clear();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || order[i].first != order[i - 1].first) unique.push_back(keys[order[i].second]);
    row[order[i].second] = static_cast<std::uint32_t>(unique.size() - 1);
  }
  return row;
}

/// Cyclic Jacobi eigensolver for a small dense symmetric matrix `a`
/// (row-major, k x k): on return `a` is diagonal (eigenvalues, unsorted)
/// and `v` holds the accumulated rotations column-wise, so eigenvalue
/// a[p * k + p] belongs to eigenvector column p of v. Deterministic fixed
/// sweep order; sized for the Ritz blocks of the layered transient setup
/// (k ~ modes_z + 4), where its rotation count beats both a full QL sweep
/// and division-chain bisection per lateral mode.
void jacobi_eigen_small(std::vector<double>& a, std::vector<double>& v, std::size_t k) {
  v.assign(k * k, 0.0);
  for (std::size_t i = 0; i < k; ++i) v[i * k + i] = 1.0;
  if (k < 2) return;
  double scale = 0.0;
  for (std::size_t i = 0; i < k; ++i) scale = std::max(scale, std::abs(a[i * k + i]));
  for (std::size_t p = 0; p + 1 < k; ++p) {
    for (std::size_t q = p + 1; q < k; ++q) scale = std::max(scale, std::abs(a[p * k + q]));
  }
  if (scale == 0.0) return;
  const double tol = scale * std::numeric_limits<double>::epsilon();
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off_max = 0.0;
    for (std::size_t p = 0; p + 1 < k; ++p) {
      for (std::size_t q = p + 1; q < k; ++q) off_max = std::max(off_max, std::abs(a[p * k + q]));
    }
    if (off_max <= tol) return;
    for (std::size_t p = 0; p + 1 < k; ++p) {
      for (std::size_t q = p + 1; q < k; ++q) {
        const double apq = a[p * k + q];
        if (std::abs(apq) <= tol) continue;
        const double theta = (a[q * k + q] - a[p * k + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Similarity update: columns p, q of A and V, then rows p, q of A.
        for (std::size_t i = 0; i < k; ++i) {
          const double aip = a[i * k + p];
          const double aiq = a[i * k + q];
          a[i * k + p] = c * aip - s * aiq;
          a[i * k + q] = s * aip + c * aiq;
          const double vip = v[i * k + p];
          const double viq = v[i * k + q];
          v[i * k + p] = c * vip - s * viq;
          v[i * k + q] = s * vip + c * viq;
        }
        for (std::size_t j = 0; j < k; ++j) {
          const double apj = a[p * k + j];
          const double aqj = a[q * k + j];
          a[p * k + j] = c * apj - s * aqj;
          a[q * k + j] = s * apj + c * aqj;
        }
      }
    }
  }
  PTHERM_REQUIRE(false, "jacobi_eigen_small: failed to converge");
}

}  // namespace

SpectralThermalSolver::SpectralThermalSolver(Die die, SpectralOptions opts)
    : SpectralThermalSolver(die, DieStack::single(die), opts) {}

SpectralThermalSolver::SpectralThermalSolver(Die die, DieStack stack, SpectralOptions opts)
    : die_(die), opts_(opts), stack_(std::move(stack)) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0,
                 "SpectralThermalSolver: degenerate die");
  PTHERM_REQUIRE(opts_.modes_x >= 1 && opts_.modes_y >= 1,
                 "SpectralThermalSolver: need at least the DC mode per axis");
  PTHERM_REQUIRE(opts_.modes_z >= 1,
                 "SpectralThermalSolver: need at least one z-eigenfunction");
  if (stack_.reduces_to(die_)) {
    // The classic single-die problem: the closed forms.
    init_single_die();
    return;
  }
  layered_ = true;
  PTHERM_REQUIRE(opts_.layered_nz >= static_cast<int>(stack_.layer_count()),
                 "SpectralThermalSolver: layered_nz must cover every stack layer");
  PTHERM_REQUIRE(opts_.layered_nz >= opts_.modes_z,
                 "SpectralThermalSolver: layered_nz must admit modes_z z-modes");
  const auto cells = distribute_stack_cells(stack_, opts_.layered_nz);
  for (std::size_t l = 0; l < stack_.layer_count(); ++l) {
    const StackLayer& layer = stack_.layers()[l];
    const double dz = layer.thickness / cells[l];
    for (int c = 0; c < cells[l]; ++c) {
      dz_z_.push_back(dz);
      k_z_.push_back(layer.k);
      cv_z_.push_back(layer.cv);
    }
  }
  opts_.modes_z = std::min(opts_.modes_z, static_cast<int>(dz_z_.size()));
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  transfer_.resize(modes);
  g2_.resize(modes);
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double gx = m * kPi / die_.width;
      const double g = std::hypot(gx, gy);
      const std::size_t mode = static_cast<std::size_t>(n) * opts_.modes_x + m;
      transfer_[mode] = layered_transfer(g);
      g2_[mode] = g * g;
    }
  }
  // gain_/tail_/lambda_ wait for ensure_transient_modes(): steady-only users
  // (influence columns, steady cosim) never pay the per-mode eigensolves.
}

void SpectralThermalSolver::init_single_die() {
  const double t = die_.thickness;
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  transfer_.resize(modes);
  g2_.resize(modes);
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double gx = m * kPi / die_.width;
      const double g = std::hypot(gx, gy);
      const std::size_t mode = static_cast<std::size_t>(n) * opts_.modes_x + m;
      transfer_[mode] = (g == 0.0) ? t / die_.k_si : std::tanh(g * t) / (die_.k_si * g);
      g2_[mode] = g * g;
    }
  }
  // z eigenbasis cos(gamma_p z): adiabatic top (zero slope at z = 0),
  // isothermal sink (zero value at z = t). Every mode's steady gain is
  // 2 / (k t (g^2 + gamma_p^2)); the gains sum over all p to the steady
  // transfer, so the truncated tail — carried quasi-statically by the
  // transient integrator — is the closed-form difference. The tail modes'
  // time constants fall like 1/gamma_p^2, so "quasi-static" is exact for any
  // step a transient driver would take.
  gamma2_.resize(mz);
  for (std::size_t p = 0; p < mz; ++p) {
    const double gamma = (static_cast<double>(p) + 0.5) * kPi / t;
    gamma2_[p] = gamma * gamma;
  }
  gain_.resize(modes * mz);
  tail_.resize(modes);
  for (std::size_t mode = 0; mode < modes; ++mode) {
    double carried = 0.0;
    for (std::size_t p = 0; p < mz; ++p) {
      const double gain = 2.0 / (die_.k_si * t * (g2_[mode] + gamma2_[p]));
      gain_[p * modes + mode] = gain;
      carried += gain;
    }
    tail_[mode] = transfer_[mode] - carried;
  }
  transient_ready_ = true;
}

double SpectralThermalSolver::layered_transfer(double g) const {
  const auto& layers = stack_.layers();
  // Bottom-up impedance recursion, seeded at the boundary closure. All the
  // growth lives in tanh (bounded), so g t in the hundreds is safe where the
  // textbook cosh/sinh transfer-matrix product would overflow.
  double z = (stack_.boundary().kind == BoundaryKind::Convective)
                 ? 1.0 / stack_.boundary().h
                 : 0.0;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (g == 0.0) {
      z += it->thickness / it->k;
      continue;
    }
    const double th = std::tanh(g * it->thickness);
    z = (z + th / (it->k * g)) / (1.0 + z * it->k * g * th);
  }
  return z;
}

double SpectralThermalSolver::layered_depth_ratio(double g, double z) const {
  const auto& layers = stack_.layers();
  const std::size_t n = layers.size();
  // Load impedance below each layer (at its bottom face), bottom-up.
  std::vector<double> load(n);
  double acc = (stack_.boundary().kind == BoundaryKind::Convective)
                   ? 1.0 / stack_.boundary().h
                   : 0.0;
  for (std::size_t i = n; i-- > 0;) {
    load[i] = acc;
    if (g == 0.0) {
      acc += layers[i].thickness / layers[i].k;
    } else {
      const double th = std::tanh(g * layers[i].thickness);
      acc = (acc + th / (layers[i].k * g)) / (1.0 + acc * layers[i].k * g * th);
    }
  }
  // Walk down from the surface, multiplying per-slab temperature ratios.
  // Within a slab of thickness t with load Z_L at the bottom, theta(s) /
  // theta(0) = (e^{-g s} + rho e^{-g (2t - s)}) / (1 + rho e^{-2 g t}) with
  // the reflection coefficient rho = (Z_L - Z_c) / (Z_L + Z_c), Z_c =
  // 1/(k g) — two-sided decaying exponentials, so no overflow and no
  // cancellation blowup (|rho| <= 1).
  double ratio = 1.0;
  double top = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = layers[i].thickness;
    const bool last = (z <= top + t) || (i + 1 == n);
    const double s = last ? std::clamp(z - top, 0.0, t) : t;
    if (g == 0.0) {
      const double r_below = load[i] + t / layers[i].k;
      ratio *= (load[i] + (t - s) / layers[i].k) / r_below;
    } else {
      const double zc = 1.0 / (layers[i].k * g);
      const double rho = (load[i] - zc) / (load[i] + zc);
      ratio *= (std::exp(-g * s) + rho * std::exp(-g * (2.0 * t - s))) /
               (1.0 + rho * std::exp(-2.0 * g * t));
    }
    if (last) break;
    top += t;
  }
  return ratio;
}

void SpectralThermalSolver::ensure_transient_modes() const {
  if (transient_ready_) return;
  const std::size_t nz = dz_z_.size();
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  // Per-unit-area capacitances and vertical conductances of the z-grid;
  // half-cell harmonic coupling between neighbours, and the boundary
  // closure folded into the bottom cell (isothermal plane — which is also
  // how an attached RC network presents to the conduction operator — or a
  // convective film in series with the bottom half-cell).
  std::vector<double> cap(nz);
  std::vector<double> gv(nz > 1 ? nz - 1 : 0);
  for (std::size_t j = 0; j < nz; ++j) cap[j] = cv_z_[j] * dz_z_[j];
  for (std::size_t j = 0; j + 1 < nz; ++j) {
    gv[j] = 1.0 / (dz_z_[j] / (2.0 * k_z_[j]) + dz_z_[j + 1] / (2.0 * k_z_[j + 1]));
  }
  const double half_bottom = dz_z_[nz - 1] / (2.0 * k_z_[nz - 1]);
  const double gb = stack_.isothermal_operator_boundary()
                        ? 1.0 / half_bottom
                        : 1.0 / (half_bottom + 1.0 / stack_.boundary().h);
  // Symmetrized z-operator at g = 0: S = C^{-1/2} A C^{-1/2}. The lateral
  // eigenvalue only enters the diagonal, as alpha_j g^2 with alpha_j =
  // k_j / cv_j — so if every cell shares one diffusivity, S(g) = S(0) +
  // alpha g^2 I and a single eigendecomposition serves all lateral modes.
  std::vector<double> d0(nz);
  std::vector<double> off(nz > 1 ? nz - 1 : 0);
  for (std::size_t j = 0; j < nz; ++j) {
    double a = (j + 1 == nz) ? gb : gv[j];
    if (j > 0) a += gv[j - 1];
    d0[j] = a / cap[j];
    if (j + 1 < nz) off[j] = -gv[j] / std::sqrt(cap[j] * cap[j + 1]);
  }
  bool uniform_alpha = true;
  const double alpha0 = k_z_[0] / cv_z_[0];
  for (std::size_t j = 1; j < nz; ++j) {
    if (k_z_[j] / cv_z_[j] != alpha0) {
      uniform_alpha = false;
      break;
    }
  }
  lambda_.assign(modes * mz, 0.0);
  gain_.assign(modes * mz, 0.0);
  tail_.assign(modes, 0.0);
  const double inv_sqrt_c0 = 1.0 / std::sqrt(cap[0]);
  if (uniform_alpha) {
    const auto evals = numerics::tridiagonal_smallest_eigenvalues(d0, off, mz);
    std::vector<double> lam0(mz);
    std::vector<double> u0c2(mz);
    for (std::size_t p = 0; p < mz; ++p) {
      lam0[p] = evals[p];
      const auto u = numerics::tridiagonal_eigenvector(d0, off, evals[p]);
      const double u0c = u[0] * inv_sqrt_c0;
      u0c2[p] = u0c * u0c;
    }
    for (std::size_t mode = 0; mode < modes; ++mode) {
      double carried = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        const double lam = lam0[p] + alpha0 * g2_[mode];
        PTHERM_REQUIRE(lam > 0.0, "spectral layered: z-operator is not dissipative");
        lambda_[p * modes + mode] = lam;
        const double gain = u0c2[p] / lam;
        gain_[p * modes + mode] = gain;
        carried += gain;
      }
      tail_[mode] = transfer_[mode] - carried;
    }
  } else {
    // Rayleigh–Ritz over the bottom of S(0)'s spectrum. The whole operator
    // family is S(g^2) = S(0) + g^2 diag(alpha_j), so one tridiagonal
    // eigensolve of S(0) gives a kr-dimensional basis of its slowest modes,
    // diag(alpha) projects into that basis once, and each of the ~modes_x *
    // modes_y lateral modes then pays only a kr x kr Jacobi solve instead
    // of an O(nz^2) sweep of the full z-grid. The carried (slow, surface-
    // coupled) z-modes are exactly the ones the basis represents well; the
    // modes it misses are fast and surface-decoupled, and their response —
    // like everything else not carried — folds into the quasi-static tail,
    // which keeps the steady limit exact by construction.
    const std::size_t kr = std::min(nz, mz + 2);
    const auto lam0 = numerics::tridiagonal_smallest_eigenvalues(d0, off, kr);
    std::vector<double> basis(nz * kr);  // column-major: basis[j + nz * k]
    for (std::size_t k = 0; k < kr; ++k) {
      auto u = numerics::tridiagonal_eigenvector(d0, off, lam0[k]);
      // Modified Gram–Schmidt polish: inverse-iteration vectors are
      // orthogonal to residual tolerance only, and the Ritz projection
      // wants a clean orthonormal basis.
      for (std::size_t prev = 0; prev < k; ++prev) {
        double dot = 0.0;
        for (std::size_t j = 0; j < nz; ++j) dot += basis[j + nz * prev] * u[j];
        for (std::size_t j = 0; j < nz; ++j) u[j] -= dot * basis[j + nz * prev];
      }
      double len = 0.0;
      for (std::size_t j = 0; j < nz; ++j) len += u[j] * u[j];
      len = std::sqrt(len);
      PTHERM_REQUIRE(len > 0.0, "spectral layered: degenerate Ritz basis");
      for (std::size_t j = 0; j < nz; ++j) basis[j + nz * k] = u[j] / len;
    }
    // B = U0^T diag(alpha) U0 and the basis' top-surface row.
    std::vector<double> alpha_proj(kr * kr);
    std::vector<double> top(kr);
    for (std::size_t k = 0; k < kr; ++k) {
      top[k] = basis[0 + nz * k];
      for (std::size_t l = k; l < kr; ++l) {
        double acc = 0.0;
        for (std::size_t j = 0; j < nz; ++j) {
          acc += (k_z_[j] / cv_z_[j]) * basis[j + nz * k] * basis[j + nz * l];
        }
        alpha_proj[k * kr + l] = acc;
        alpha_proj[l * kr + k] = acc;
      }
    }
    std::vector<double> ritz(kr * kr);
    std::vector<double> vecs;
    std::vector<std::size_t> order(kr);
    for (std::size_t mode = 0; mode < modes; ++mode) {
      for (std::size_t i = 0; i < kr * kr; ++i) ritz[i] = g2_[mode] * alpha_proj[i];
      for (std::size_t k = 0; k < kr; ++k) ritz[k * kr + k] += lam0[k];
      jacobi_eigen_small(ritz, vecs, kr);
      for (std::size_t k = 0; k < kr; ++k) order[k] = k;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ritz[a * kr + a] < ritz[b * kr + b];
      });
      double carried = 0.0;
      for (std::size_t p = 0; p < mz; ++p) {
        const std::size_t col = order[p];
        const double lam = ritz[col * kr + col];
        PTHERM_REQUIRE(lam > 0.0, "spectral layered: z-operator is not dissipative");
        lambda_[p * modes + mode] = lam;
        double u0 = 0.0;
        for (std::size_t k = 0; k < kr; ++k) u0 += top[k] * vecs[k * kr + col];
        const double u0c = u0 * inv_sqrt_c0;
        const double gain = u0c * u0c / lam;
        gain_[p * modes + mode] = gain;
        carried += gain;
      }
      tail_[mode] = transfer_[mode] - carried;
    }
  }
  transient_ready_ = true;
}

SpectralThermalSolver::Solution SpectralThermalSolver::solve_steady(
    const std::vector<HeatSource>& sources) const {
  TELEMETRY_SPAN("spectral/steady_solve");
  const std::size_t mx = static_cast<std::size_t>(opts_.modes_x);
  const std::size_t my = static_cast<std::size_t>(opts_.modes_y);
  Solution sol;
  sol.coeff.assign(mx * my, 0.0);
  // A one-shot solve has nothing to amortize the source half's interning
  // over, so each source adds its separable flux modes directly, with the
  // per-mode surface transfer turning flux into rise in the same pass.
  std::vector<double> fx(mx);
  std::vector<double> fy(my);
  for (const HeatSource& s : sources) {
    validate(s);
    const DieFootprint f = clip_to_die(die_, s);
    if (!f.on_die()) continue;
    cosine_axis_factors(opts_.modes_x, die_.width, f.x0, f.x1, fx.data());
    cosine_axis_factors(opts_.modes_y, die_.height, f.y0, f.y1, fy.data());
    const double pw = s.power * unit_weight(f, die_);
    for (std::size_t nn = 0; nn < my; ++nn) {
      const double q = pw * fy[nn];
      double* row = sol.coeff.data() + nn * mx;
      const double* tr = transfer_.data() + nn * mx;
      for (std::size_t m = 0; m < mx; ++m) row[m] += tr[m] * fx[m] * q;
    }
  }
  return sol;
}

double SpectralThermalSolver::surface_rise(const Solution& sol, double x, double y) const {
  const SurfaceSample point{x, y};
  double rise = 0.0;
  make_sample_synthesis({&point, 1}).synthesize(sol.coeff, {&rise, 1});
  return rise;
}

double SpectralThermalSolver::rise_at_depth(const Solution& sol, double x, double y,
                                            double z) const {
  PTHERM_REQUIRE(sol.coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: solution size mismatch");
  const double t = stack_.total_thickness();
  PTHERM_REQUIRE(z >= 0.0 && z <= t, "spectral: depth outside the die");
  // Each coefficient at its depth profile, then the surface synthesis.
  Solution at_depth{std::vector<double>(sol.coeff.size())};
  for (int n = 0; n < opts_.modes_y; ++n) {
    const double gy = n * kPi / die_.height;
    const std::size_t row = static_cast<std::size_t>(n) * opts_.modes_x;
    for (int m = 0; m < opts_.modes_x; ++m) {
      const double g = std::hypot(m * kPi / die_.width, gy);
      const double profile =
          layered_ ? layered_depth_ratio(g, z) : steady_depth_profile(g, t, z);
      at_depth.coeff[row + m] = sol.coeff[row + m] * profile;
    }
  }
  return surface_rise(at_depth, x, y);
}

std::vector<double> SpectralThermalSolver::surface_map(const Solution& sol, int nx,
                                                       int ny) const {
  PTHERM_REQUIRE(sol.coeff.size() == static_cast<std::size_t>(mode_count()),
                 "spectral: solution size mismatch");
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_map: need at least a 2x2 grid");
  std::vector<double> map(static_cast<std::size_t>(nx) * ny);
  if (numerics::is_power_of_two(static_cast<std::size_t>(nx)) &&
      numerics::is_power_of_two(static_cast<std::size_t>(ny))) {
    // DCT synthesis: fold + DCT-III along x per coefficient row, then along y
    // per output column. modes_y + nx one-dimensional transforms in total.
    numerics::Matrix stage(static_cast<std::size_t>(opts_.modes_y),
                           static_cast<std::size_t>(nx));
    for (int n = 0; n < opts_.modes_y; ++n) {
      const std::span<const double> row(sol.coeff.data() +
                                            static_cast<std::size_t>(n) * opts_.modes_x,
                                        static_cast<std::size_t>(opts_.modes_x));
      const auto vals = numerics::dct3(numerics::fold_cosine_modes(row, nx));
      ++fft_calls_;
      for (int i = 0; i < nx; ++i) stage(n, i) = vals[static_cast<std::size_t>(i)];
    }
    std::vector<double> column(static_cast<std::size_t>(opts_.modes_y));
    for (int i = 0; i < nx; ++i) {
      for (int n = 0; n < opts_.modes_y; ++n) column[static_cast<std::size_t>(n)] = stage(n, i);
      const auto vals = numerics::dct3(numerics::fold_cosine_modes(column, ny));
      ++fft_calls_;
      for (int j = 0; j < ny; ++j) map[static_cast<std::size_t>(j) * nx + i] = vals[j];
    }
    return map;
  }
  // Grids the radix-2 DCT cannot take go through the sample half at the
  // cell centres: nx + ny cosine rows, shared by every cell in a column.
  std::vector<SurfaceSample> centres(map.size());
  for (int j = 0; j < ny; ++j) {
    const double y = die_.height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      centres[static_cast<std::size_t>(j) * nx + i] = {die_.width * (i + 0.5) / nx, y};
    }
  }
  make_sample_synthesis(centres).synthesize(sol.coeff, map);
  return map;
}

// ---------------------------------------------------------- matrix-free apply

SpectralThermalSolver::SourceProjection SpectralThermalSolver::make_source_projection(
    std::span<const HeatSource> sources) const {
  const std::size_t n = sources.size();
  SourceProjection proj;
  proj.modes_x = static_cast<std::size_t>(opts_.modes_x);
  proj.modes_y = static_cast<std::size_t>(opts_.modes_y);
  // Intern the clipped intervals of the on-die footprints; a fully off-die
  // source keeps weight 0 and is skipped by the projection.
  proj.sources.resize(n);
  std::vector<std::size_t> on_die;
  std::vector<std::array<double, 2>> x_keys;
  std::vector<std::array<double, 2>> y_keys;
  for (std::size_t j = 0; j < n; ++j) {
    validate_footprint(sources[j]);
    const DieFootprint f = clip_to_die(die_, sources[j]);
    if (!f.on_die()) continue;
    on_die.push_back(j);
    x_keys.push_back({f.x0, f.x1});
    y_keys.push_back({f.y0, f.y1});
    proj.sources[j].weight = unit_weight(f, die_);
  }
  std::vector<std::array<double, 2>> x_intervals;
  std::vector<std::array<double, 2>> y_intervals;
  const auto x_rows = intern_rows(x_keys, x_intervals);
  const auto y_rows = intern_rows(y_keys, y_intervals);
  for (std::size_t i = 0; i < on_die.size(); ++i) {
    proj.sources[on_die[i]].x = x_rows[i];
    proj.sources[on_die[i]].y = y_rows[i];
  }
  const auto flux_table = [](const std::vector<std::array<double, 2>>& intervals, int modes,
                             double extent) {
    std::vector<double> table(intervals.size() * static_cast<std::size_t>(modes));
    for (std::size_t a = 0; a < intervals.size(); ++a) {
      cosine_axis_factors(modes, extent, intervals[a][0], intervals[a][1],
                          table.data() + a * modes);
    }
    return table;
  };
  proj.flux_x = flux_table(x_intervals, opts_.modes_x, die_.width);
  proj.flux_y = flux_table(y_intervals, opts_.modes_y, die_.height);
  proj.live.resize(x_intervals.size());
  return proj;
}

SpectralThermalSolver::SampleSynthesis SpectralThermalSolver::make_sample_synthesis(
    std::span<const SurfaceSample> samples) const {
  const std::size_t n = samples.size();
  SampleSynthesis synth;
  synth.modes_x = static_cast<std::size_t>(opts_.modes_x);
  synth.modes_y = static_cast<std::size_t>(opts_.modes_y);
  // Intern the coordinates, one cosine row per distinct value.
  std::vector<std::array<double, 1>> x_coords(n);
  std::vector<std::array<double, 1>> y_coords(n);
  for (std::size_t p = 0; p < n; ++p) {
    x_coords[p] = {samples[p].x};
    y_coords[p] = {samples[p].y};
  }
  std::vector<std::array<double, 1>> x_values;
  std::vector<std::array<double, 1>> y_values;
  const auto x_rows = intern_rows(x_coords, x_values);
  const auto y_rows = intern_rows(y_coords, y_values);
  synth.samples.resize(n);
  for (std::size_t p = 0; p < n; ++p) synth.samples[p] = {x_rows[p], y_rows[p]};
  const auto cosine_table = [](const std::vector<std::array<double, 1>>& values, int modes,
                               double extent) {
    std::vector<double> table(values.size() * static_cast<std::size_t>(modes));
    for (std::size_t b = 0; b < values.size(); ++b) {
      for (int m = 0; m < modes; ++m) {
        table[b * modes + m] = std::cos(static_cast<double>(m) * kPi * values[b][0] / extent);
      }
    }
    return table;
  };
  synth.synth_x = cosine_table(x_values, opts_.modes_x, die_.width);
  synth.synth_y = cosine_table(y_values, opts_.modes_y, die_.height);
  return synth;
}

SpectralThermalSolver::InfluenceProjection SpectralThermalSolver::make_influence_projection(
    std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const {
  PTHERM_REQUIRE(!sources.empty(), "influence: no sources");
  PTHERM_REQUIRE(samples.size() == sources.size(), "influence: need one sample per source");
  InfluenceProjection proj;
  proj.count = sources.size();
  proj.source = make_source_projection(sources);
  proj.sample = make_sample_synthesis(samples);
  return proj;
}

namespace {

/// Vectors per register block of the batched influence apply, stored
/// lane-interleaved (x[i * kLanes + k] is entry i of the block's vector k).
constexpr std::size_t kLanes = 4;

/// x-intervals per pass-2 sweep.
constexpr std::size_t kIntervalTile = 64;

/// Two lanes in one SSE2 register. A GCC/Clang vector type, because plain
/// arrays or structs of doubles stay on the stack, and a 4-wide vector type
/// is split through memory without AVX.
using Pair = double __attribute__((vector_size(16)));

Pair splat(double x) { return Pair{x, x}; }

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// One entry of a block in the baseline build: its kLanes vectors' values
/// in two SSE2 pairs. Loaded and stored pair by pair; one memcpy of the
/// whole struct kept the accumulators of the passes below on the stack.
struct Lanes {
  Pair lo;
  Pair hi;
};

/// A block entry in AVX2 registers: the kLanes vectors' values in one
/// numerics::F64x4, used only inside the AVX2 clone of the block apply.
using numerics::F64x4;

// The passes below run on one entry type T: a double holds one vector's
// value, a Lanes (baseline) or an F64x4 (AVX2 clone) a block's kLanes
// vectors'. Each helper does per lane what the double overload does, with
// the same roundings.

template <class T>
constexpr std::size_t kWidth = 1;
template <>
constexpr std::size_t kWidth<Pair> = 2;
template <>
constexpr std::size_t kWidth<Lanes> = kLanes;
template <>
constexpr std::size_t kWidth<F64x4> = kLanes;

/// Sums a pass-2 sweep carries in registers: 16 flux modes of one vector,
/// 4 of a Lanes block (eight SSE2 registers either way) or 8 of an F64x4
/// block (eight of the sixteen AVX2 registers), so that enough independent
/// adds are in flight to hide their latency.
template <class T>
constexpr std::size_t kSweepSums = 16;
template <>
constexpr std::size_t kSweepSums<Lanes> = 4;
template <>
constexpr std::size_t kSweepSums<F64x4> = 8;

/// Coefficient rows per pass-4 synthesize_rows call, likewise: 4 of one
/// vector, 4 of a Lanes block (eight SSE2 registers), 8 of an F64x4 block.
template <class T>
constexpr std::size_t kSynthRows = 4;
template <>
constexpr std::size_t kSynthRows<F64x4> = 8;

template <class T>
T load(const double* p);
template <>
double load<double>(const double* p) {
  return *p;
}
template <>
Pair load<Pair>(const double* p) {
  return load_pair(p);
}
template <>
Lanes load<Lanes>(const double* p) {
  return {load_pair(p), load_pair(p + 2)};
}
template <>
PTHERM_LANES_INLINE F64x4 load<F64x4>(const double* p) {
  F64x4 v;
  std::memcpy(&v.v, p, sizeof v.v);
  return v;
}

void store(double* p, double v) { *p = v; }
void store(double* p, Pair v) { store_pair(p, v); }
void store(double* p, const Lanes& v) {
  store_pair(p, v.lo);
  store_pair(p + 2, v.hi);
}
PTHERM_LANES_INLINE void store(double* p, const F64x4& v) { std::memcpy(p, &v.v, sizeof v.v); }

/// acc += x * f: one rounded product and one rounded sum.
void add_product(double& acc, double x, double f) { acc += x * f; }
void add_product(Lanes& acc, const Lanes& x, double f) {
  const Pair fs = splat(f);
  acc.lo += x.lo * fs;
  acc.hi += x.hi * fs;
}
PTHERM_LANES_INLINE void add_product(F64x4& acc, const F64x4& x, double f) { acc += x * f; }

void scale(double& v, double f) { v *= f; }
void scale(Lanes& v, double f) {
  const Pair fs = splat(f);
  v.lo *= fs;
  v.hi *= fs;
}
PTHERM_LANES_INLINE void scale(F64x4& v, double f) { v = v * f; }

/// v = x[k * stride] * w for each vector k of the entry.
void gather(double& v, const double* x, std::size_t, double w) { v = x[0] * w; }
void gather(Lanes& v, const double* x, std::size_t stride, double w) {
  v = {Pair{x[0] * w, x[stride] * w}, Pair{x[2 * stride] * w, x[3 * stride] * w}};
}
PTHERM_LANES_INLINE void gather(F64x4& v, const double* x, std::size_t stride, double w) {
  v = F64x4::of(x[0] * w, x[stride] * w, x[2 * stride] * w, x[3 * stride] * w);
}

bool all_zero(double v) { return v == 0.0; }
bool all_zero(const Lanes& v) {
  return v.lo[0] == 0.0 && v.lo[1] == 0.0 && v.hi[0] == 0.0 && v.hi[1] == 0.0;
}
PTHERM_LANES_INLINE bool all_zero(const F64x4& v) {
  return v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0 && v[3] == 0.0;
}

/// x[k * stride] = vector k's value of the entry.
void scatter(double* x, std::size_t, double v) { x[0] = v; }
void scatter(double* x, std::size_t stride, const Lanes& v) {
  x[0] = v.lo[0];
  x[stride] = v.lo[1];
  x[2 * stride] = v.hi[0];
  x[3 * stride] = v.hi[1];
}
PTHERM_LANES_INLINE void scatter(double* x, std::size_t stride, const F64x4& v) {
  x[0] = v[0];
  x[stride] = v[1];
  x[2 * stride] = v[2];
  x[3 * stride] = v[3];
}

/// Pass 2 for the R flux modes m .. m + R - 1 of one y-mode at `out`: sums
/// the `touched` x-intervals' rows `y` (stride `y_stride`) times flux_x in
/// ascending interval order, from +0.0, or from the sums at `out` when
/// `resume`.
template <class T, std::size_t R>
void expand_modes(const double* y, std::size_t y_stride, const double* flux_x, std::size_t mx,
                  std::span<const std::uint32_t> touched, bool resume, double* out) {
  constexpr std::size_t w = kWidth<T>;
  T s[R] = {};
  if (resume) {
    for (std::size_t r = 0; r < R; ++r) s[r] = load<T>(out + r * w);
  }
  for (const std::uint32_t a : touched) {
    const T ya = load<T>(y + a * y_stride);
    const double* fx = flux_x + a * mx;
    for (std::size_t r = 0; r < R; ++r) add_product(s[r], ya, fx[r]);
  }
  for (std::size_t r = 0; r < R; ++r) store(out + r * w, s[r]);
}

/// Passes 1-2, powers -> flux modes, for the vectors of one entry type:
/// vector k's powers at powers + k * stride, its flux mode i at flux[i * w
/// + k]. `axis` holds Gx * modes_y entries.
///
/// Every accumulator starts at +0.0 and sums in ascending order. A source
/// is skipped only when its power is zero in every vector, and pass 2 skips
/// only x-intervals no source touched; any other zero is added as an exact
/// zero product, which leaves an accumulator that never holds -0.0
/// unchanged. So with finite tables a vector's flux does not depend on the
/// entry type or on the other vectors, and a non-finite power stays in its
/// own vector.
template <class T>
void project_passes(const SpectralThermalSolver::SourceProjection& source, const double* powers,
                    std::size_t stride, double* axis, std::uint32_t* live, double* flux) {
  constexpr std::size_t w = kWidth<T>;
  const std::size_t mx = source.modes_x;
  const std::size_t my = source.modes_y;
  const std::size_t gx = source.x_intervals();
  const std::size_t row = my * w;  // one axis row
  // (1) Powers -> per-x-interval y flux: Y[a] += P_j w_j flux_y[y(j)] over
  // the sources j, ascending, whose clipped x-interval is a; live[a] marks
  // the touched rows.
  std::fill(axis, axis + gx * row, 0.0);
  std::fill(live, live + gx, 0u);
  for (std::size_t j = 0; j < source.sources.size(); ++j) {
    const auto& src = source.sources[j];
    if (src.weight == 0.0) continue;
    T pw = {};
    gather(pw, powers + j, stride, src.weight);
    if (all_zero(pw)) continue;
    live[src.x] = 1;
    const double* fy = source.flux_y.data() + src.y * my;
    double* y = axis + src.x * row;
    for (std::size_t nn = 0; nn < my; ++nn) {
      T acc = load<T>(y + nn * w);
      add_product(acc, pw, fy[nn]);
      store(y + nn * w, acc);
    }
  }
  // (2) x-intervals -> flux modes: C[n][m] = sum_a Y[a][n] flux_x[a][m], a
  // sum per distinct interval instead of per source. Each flux mode sums
  // the touched intervals (compacted in place, still ascending) in
  // registers, kSweepSums<T> modes at a time, kIntervalTile intervals per
  // sweep so a tile's flux_x rows stay in cache on plans with thousands of
  // distinct intervals. The first tile, empty when no interval is touched,
  // starts from +0.0; later tiles resume.
  std::size_t touched = 0;
  for (std::size_t a = 0; a < gx; ++a) {
    if (live[a] != 0) live[touched++] = static_cast<std::uint32_t>(a);
  }
  std::size_t first = 0;
  do {
    const std::span<const std::uint32_t> tile(live + first,
                                              std::min(kIntervalTile, touched - first));
    const bool resume = first > 0;
    for (std::size_t nn = 0; nn < my; ++nn) {
      const double* y = axis + nn * w;
      double* out = flux + nn * mx * w;
      constexpr std::size_t r = kSweepSums<T>;
      std::size_t m = 0;
      for (; m + r <= mx; m += r) {
        expand_modes<T, r>(y, row, source.flux_x.data() + m, mx, tile, resume, out + m * w);
      }
      for (; m < mx; ++m) {
        expand_modes<T, 1>(y, row, source.flux_x.data() + m, mx, tile, resume, out + m * w);
      }
    }
    first += kIntervalTile;
  } while (first < touched);
}

/// Pass 3, flux modes -> surface-rise coefficients: the per-mode transfer.
template <class T>
void transfer_pass(std::span<const double> transfer, double* coeff) {
  constexpr std::size_t w = kWidth<T>;
  for (std::size_t mode = 0; mode < transfer.size(); ++mode) {
    T c = load<T>(coeff + mode * w);
    scale(c, transfer[mode]);
    store(coeff + mode * w, c);
  }
}

/// Pass 4 for the R coefficient rows at `c` (stride `c_stride`): each row's
/// dot with one synth_x row `cx`, in ascending m from +0.0.
template <class T, std::size_t R>
void synthesize_rows(const double* c, std::size_t c_stride, const double* cx, std::size_t mx,
                     double* out) {
  constexpr std::size_t w = kWidth<T>;
  T s[R] = {};
  for (std::size_t m = 0; m < mx; ++m) {
    for (std::size_t r = 0; r < R; ++r) {
      add_product(s[r], load<T>(c + r * c_stride + m * w), cx[m]);
    }
  }
  for (std::size_t r = 0; r < R; ++r) store(out + r * w, s[r]);
}

/// Passes 4-5, mode coefficients -> sample values, for the vectors of one
/// entry type: coefficient i of vector k at coeff[i * w + k], its value at
/// sample p into values[k * stride + p]. `axis` holds Gs * modes_y entries.
/// Every sum starts at +0.0 and runs in ascending mode order.
template <class T>
void synthesize_passes(const SpectralThermalSolver::SampleSynthesis& sample, const double* coeff,
                       double* axis, double* values, std::size_t stride) {
  constexpr std::size_t w = kWidth<T>;
  const std::size_t mx = sample.modes_x;
  const std::size_t my = sample.modes_y;
  const std::size_t row = my * w;
  const std::size_t c_row = mx * w;
  // (4) Synthesis along x at each distinct sample x: U[b][n] = sum_m C[n][m]
  // synth_x[b][m], shared by every sample in that column; kSynthRows<T>
  // coefficient rows per synth_x row.
  for (std::size_t b = 0; b < sample.sample_xs(); ++b) {
    const double* cx = sample.synth_x.data() + b * mx;
    double* u = axis + b * row;
    constexpr std::size_t r = kSynthRows<T>;
    std::size_t nn = 0;
    for (; nn + r <= my; nn += r) {
      synthesize_rows<T, r>(coeff + nn * c_row, c_row, cx, mx, u + nn * w);
    }
    for (; nn < my; ++nn) synthesize_rows<T, 1>(coeff + nn * c_row, c_row, cx, mx, u + nn * w);
  }
  // (5) Synthesis along y per sample: value_p = sum_n U[x(p)][n] synth_y[y(p)][n].
  for (std::size_t p = 0; p < sample.samples.size(); ++p) {
    const auto& smp = sample.samples[p];
    const double* u = axis + smp.x * row;
    const double* cy = sample.synth_y.data() + smp.y * my;
    T s = {};
    for (std::size_t nn = 0; nn < my; ++nn) add_product(s, load<T>(u + nn * w), cy[nn]);
    scatter(values + p, stride, s);
  }
}

/// The axis scratch of an apply of w-wide entries: max(Gx, Gs) * modes_y
/// entries, ahead of the mode-space entries in proj.block.
std::size_t axis_entries(const SpectralThermalSolver::InfluenceProjection& proj, std::size_t w) {
  return w * std::max(proj.source.x_intervals(), proj.sample.sample_xs()) * proj.source.modes_y;
}

/// All five passes for the vectors of one entry type: vector k's powers at
/// powers + k * proj.count, its rises likewise at `rises`. Passes 1-2 and
/// 4-5 share one axis scratch ahead of the mode-space entries in
/// proj.block, which the caller has sized for w-wide entries.
template <class T>
void apply_entries(SpectralThermalSolver::InfluenceProjection& proj,
                   std::span<const double> transfer, const double* powers, double* rises) {
  double* axis = proj.block.data();
  double* coeff = axis + axis_entries(proj, kWidth<T>);
  project_passes<T>(proj.source, powers, proj.count, axis, proj.source.live.data(), coeff);
  transfer_pass<T>(transfer, coeff);
  synthesize_passes<T>(proj.sample, coeff, axis, rises, proj.count);
}

/// `blocks` full blocks of kLanes vectors through the five passes, written
/// once over the entry type: two SSE2 pairs per entry in the baseline
/// build, one F64x4 in the AVX2 clone, which flattens the passes into
/// itself so that they run in AVX2 registers. numerics::dispatched_isa
/// picks; both return every lane's lone-apply bits. Each starts on a
/// 64-byte boundary, so that unrelated edits elsewhere in this file do not
/// move the hot loops across cache lines.
[[gnu::aligned(64)]] void apply_blocks_baseline(SpectralThermalSolver::InfluenceProjection& proj,
                                                std::span<const double> transfer,
                                                const double* powers, double* rises,
                                                std::size_t blocks) {
  const std::size_t stride = kLanes * proj.count;
  for (std::size_t b = 0; b < blocks; ++b) {
    apply_entries<Lanes>(proj, transfer, powers + b * stride, rises + b * stride);
  }
}

#if PTHERM_HAVE_AVX2_CLONE
[[gnu::aligned(64), gnu::flatten]] PTHERM_TARGET_AVX2 void apply_blocks_avx2(
    SpectralThermalSolver::InfluenceProjection& proj, std::span<const double> transfer,
    const double* powers, double* rises, std::size_t blocks) {
  const std::size_t stride = kLanes * proj.count;
  for (std::size_t b = 0; b < blocks; ++b) {
    apply_entries<F64x4>(proj, transfer, powers + b * stride, rises + b * stride);
  }
}
#endif

/// Lateral modes per tile of the transient amplitude update.
constexpr std::size_t kModeTile = 8;

/// The transient update of the R * w lateral modes from `mode` on, over the
/// p-major (mode, p) grids amps, gain and decay: amp <- amp d + q g (1 - d)
/// for each z-mode p, ascending, summed from +0.0 in registers; then coeff
/// = sum + tail q. A fully decayed entry (d = 0) gives amp = q g, up to the
/// sign of a zero amplitude, which a sum from +0.0 cannot see.
template <class T, std::size_t R>
void advance_modes(std::size_t mode, std::size_t modes, std::size_t mz, const double* flux,
                   const double* gain, const double* decay, const double* tail, double* amps,
                   double* coeff) {
  constexpr std::size_t w = kWidth<T>;
  T q[R];
  T sum[R] = {};
  for (std::size_t r = 0; r < R; ++r) q[r] = load<T>(flux + mode + r * w);
  for (std::size_t p = 0; p < mz; ++p) {
    const std::size_t row = p * modes + mode;
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t i = row + r * w;
      const T d = load<T>(decay + i);
      const T amp = load<T>(amps + i) * d + q[r] * load<T>(gain + i) * (1.0 - d);
      store(amps + i, amp);
      sum[r] += amp;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    store(coeff + mode + r * w, sum[r] + load<T>(tail + mode + r * w) * q[r]);
  }
}

}  // namespace

void SpectralThermalSolver::SourceProjection::project(std::span<const double> powers,
                                                      std::span<double> flux) {
  PTHERM_REQUIRE(powers.size() == sources.size() && flux.size() == modes_x * modes_y,
                 "SourceProjection::project: need one power per source and mode_count() "
                 "flux entries");
  rows.resize(x_intervals() * modes_y);
  project_passes<double>(*this, powers.data(), 0, rows.data(), live.data(), flux.data());
}

void SpectralThermalSolver::SampleSynthesis::synthesize(std::span<const double> coeff,
                                                        std::span<double> values) {
  PTHERM_REQUIRE(coeff.size() == modes_x * modes_y && values.size() == samples.size(),
                 "SampleSynthesis::synthesize: need mode_count() coefficients and one value "
                 "per sample");
  rows.resize(sample_xs() * modes_y);
  synthesize_passes<double>(*this, coeff.data(), rows.data(), values.data(), 0);
}

void SpectralThermalSolver::apply_influence_batch(InfluenceProjection& proj,
                                                  std::span<const double> powers,
                                                  std::span<double> rises,
                                                  std::size_t count) const {
  const std::size_t n = proj.count;
  PTHERM_REQUIRE(proj.source.modes_x == static_cast<std::size_t>(opts_.modes_x) &&
                     proj.source.modes_y == static_cast<std::size_t>(opts_.modes_y),
                 "apply_influence_batch: projection belongs to a different spectral "
                 "configuration");
  PTHERM_REQUIRE(powers.size() == count * n && rises.size() == count * n,
                 "apply_influence_batch: powers/rises must have count * proj.count entries");
  // Full blocks of kLanes vectors lane-interleaved, the remainder (and
  // every count-1 apply) one vector at a time, all through the same passes.
  const std::size_t blocks = count / kLanes;
  const std::size_t w = blocks > 0 ? kLanes : 1;
  const std::size_t scratch = axis_entries(proj, w) + w * transfer_.size();
  if (proj.block.size() < scratch) proj.block.resize(scratch);
  if (blocks > 0) {
#if PTHERM_HAVE_AVX2_CLONE
    if (numerics::dispatched_isa() == numerics::Isa::Avx2) {
      apply_blocks_avx2(proj, transfer_, powers.data(), rises.data(), blocks);
    } else {
      apply_blocks_baseline(proj, transfer_, powers.data(), rises.data(), blocks);
    }
#else
    apply_blocks_baseline(proj, transfer_, powers.data(), rises.data(), blocks);
#endif
  }
  for (std::size_t k = blocks * kLanes; k < count; ++k) {
    apply_entries<double>(proj, transfer_, powers.data() + k * n, rises.data() + k * n);
  }
}

// ------------------------------------------------------------------ transient

SpectralThermalSolver::TransientSolution SpectralThermalSolver::make_transient() const {
  if (layered_) ensure_transient_modes();
  TransientSolution state;
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  state.surface.coeff.assign(modes, 0.0);
  state.amps.assign(modes * static_cast<std::size_t>(opts_.modes_z), 0.0);
  state.flux.assign(modes, 0.0);
  return state;
}

int SpectralThermalSolver::step_transient(TransientSolution& state, double h,
                                          const std::vector<HeatSource>& sources) const {
  PTHERM_REQUIRE(h > 0.0, "step_transient: h must be positive");
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  PTHERM_REQUIRE(state.amps.size() == modes * mz && state.surface.coeff.size() == modes,
                 "step_transient: state belongs to a different spectral configuration");
  if (layered_) ensure_transient_modes();

  // (1) Project the step's powers onto the flux modes through the source
  // half, rebuilt only when some footprint moved. When neither powers nor
  // geometry moved since the last step (an epoch-driven driver holding its
  // powers) the flux modes are still valid and the pass is skipped whole.
  // Every source from the first moved one on is validated (a NaN would
  // stay in the amplitudes for good); held ones were checked when they last
  // moved. Every check runs before the state changes.
  const std::size_t n = sources.size();
  bool geometry_dirty = state.geometry_key.size() != 4 * n;
  for (std::size_t j = 0; j < n && !geometry_dirty; ++j) {
    const HeatSource& s = sources[j];
    const double* key = state.geometry_key.data() + 4 * j;
    geometry_dirty = key[0] != s.cx || key[1] != s.cy || key[2] != s.w || key[3] != s.l;
  }
  bool flux_dirty = geometry_dirty || state.power_key.size() != n;
  for (std::size_t j = 0; j < n; ++j) {
    if (!flux_dirty && state.power_key[j] == sources[j].power) continue;
    validate(sources[j]);
    flux_dirty = true;
  }
  if (flux_dirty) {
    TELEMETRY_SPAN("spectral/step_project");
    if (geometry_dirty) {
      state.projection = make_source_projection(sources);
      state.geometry_key.resize(4 * n);
      for (std::size_t j = 0; j < n; ++j) {
        double* key = state.geometry_key.data() + 4 * j;
        key[0] = sources[j].cx;
        key[1] = sources[j].cy;
        key[2] = sources[j].w;
        key[3] = sources[j].l;
      }
    }
    state.power_key.resize(n);
    for (std::size_t j = 0; j < n; ++j) state.power_key[j] = sources[j].power;
    state.projection.project(state.power_key, state.flux);
    ++power_updates_;
  }

  TELEMETRY_SPAN("spectral/step_decay");
  // (2) Decay factors e^{-lambda h} on the p-major (mode, p) grid, keyed by
  // h; a factor below kDecayFloor is stored as 0 (fully decayed).
  if (state.decay_h != h || state.decay.size() != modes * mz) {
    state.decay.resize(modes * mz);
    if (layered_) {
      // Layered modal rates do not separate into lateral x z factors.
      for (std::size_t i = 0; i < modes * mz; ++i) {
        const double d = std::exp(-lambda_[i] * h);
        state.decay[i] = d < kDecayFloor ? 0.0 : d;
      }
    } else {
      // The single-die rate alpha (g^2 + gamma_p^2) separates, so the exact
      // decay is the product of modes + modes_z exponentials. Decided on
      // the exponent, so the product is never formed for a dead entry.
      const double alpha = die_.k_si / die_.cv_si;
      const double max_rate = -std::log(kDecayFloor);
      std::vector<double> decay_z(mz);
      for (std::size_t p = 0; p < mz; ++p) decay_z[p] = std::exp(-alpha * gamma2_[p] * h);
      for (std::size_t mode = 0; mode < modes; ++mode) {
        const double dl = std::exp(-alpha * g2_[mode] * h);
        for (std::size_t p = 0; p < mz; ++p) {
          const bool live = alpha * (g2_[mode] + gamma2_[p]) * h < max_rate;
          state.decay[p * modes + mode] = live ? dl * decay_z[p] : 0.0;
        }
      }
    }
    state.decay_h = h;
  }

  // (3) Advance every z-eigenmode amplitude exactly and synthesize the
  // surface coefficients: the carried modes' sum plus the quasi-static
  // tail. Eight lateral modes per tile in four SSE2 pairs, the rest one at
  // a time.
  double* amps = state.amps.data();
  double* coeff = state.surface.coeff.data();
  std::size_t mode = 0;
  for (; mode + kModeTile <= modes; mode += kModeTile) {
    advance_modes<Pair, kModeTile / 2>(mode, modes, mz, state.flux.data(), gain_.data(),
                                       state.decay.data(), tail_.data(), amps, coeff);
  }
  for (; mode < modes; ++mode) {
    advance_modes<double, 1>(mode, modes, mz, state.flux.data(), gain_.data(),
                             state.decay.data(), tail_.data(), amps, coeff);
  }
  return 1;
}

double SpectralThermalSolver::rise_at_depth(const TransientSolution& state, double x, double y,
                                            double z) const {
  PTHERM_REQUIRE(!layered_,
                 "spectral: transient rise_at_depth needs the single-die z-eigenbasis "
                 "(layered stacks: query the surface, or use the layered FDM backend)");
  const std::size_t modes = static_cast<std::size_t>(mode_count());
  const std::size_t mz = static_cast<std::size_t>(opts_.modes_z);
  PTHERM_REQUIRE(state.amps.size() == modes * mz && state.surface.coeff.size() == modes,
                 "spectral: transient state size mismatch");
  const double t = die_.thickness;
  PTHERM_REQUIRE(z >= 0.0 && z <= t, "spectral: depth outside the die");
  std::vector<double> cosz(mz);
  for (std::size_t p = 0; p < mz; ++p) cosz[p] = std::cos(std::sqrt(gamma2_[p]) * z);
  // Fold each lateral mode's depth value, then the surface synthesis: the
  // carried z-modes at their eigenfunction values, plus the quasi-static
  // remainder — the steady depth profile minus the carried modes' steady
  // share, scaled by the current flux.
  Solution at_depth{std::vector<double>(modes)};
  for (std::size_t mode = 0; mode < modes; ++mode) {
    double carried = 0.0;
    double carried_steady = 0.0;
    for (std::size_t p = 0; p < mz; ++p) {
      carried += state.amps[p * modes + mode] * cosz[p];
      carried_steady += gain_[p * modes + mode] * cosz[p];
    }
    const double profile = steady_depth_profile(std::sqrt(g2_[mode]), t, z);
    const double tail = state.flux[mode] * (transfer_[mode] * profile - carried_steady);
    at_depth.coeff[mode] = carried + tail;
  }
  return surface_rise(at_depth, x, y);
}

}  // namespace ptherm::thermal
