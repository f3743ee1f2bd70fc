#include "core/cosim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "device/variation.hpp"
#include "numerics/fixed_point.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::core {

std::unique_ptr<thermal::SolverBackend> make_thermal_backend(const thermal::Die& die,
                                                             const ThermalConfig& cfg) {
  if (cfg.backend == ThermalBackend::Analytic) {
    // The image method is a closed form for the single homogeneous die; a
    // stack is only acceptable when it IS that problem.
    PTHERM_REQUIRE(!cfg.stack || cfg.stack->reduces_to(die),
                   "make_thermal_backend: the analytic backend needs a stack that "
                   "reduces to the die (use Fdm or Spectral for layered stacks)");
    return std::make_unique<thermal::AnalyticImagesBackend>(die, cfg.images);
  }
  // The conduction solvers are built from one z-description: the configured
  // stack, or the die's own single layer.
  thermal::DieStack stack = cfg.stack ? *cfg.stack : thermal::DieStack::single(die);
  if (cfg.backend == ThermalBackend::Fdm) {
    // The one convergence knob (ThermalConfig::trace) reaches the inner CG
    // here, so callers never have to touch FdmOptions::cg directly.
    thermal::FdmOptions fdm = cfg.fdm;
    if (cfg.trace.convergence) fdm.cg.trace = true;
    return std::make_unique<thermal::FdmBackend>(die, std::move(stack), fdm);
  }
  if (cfg.backend == ThermalBackend::Spectral) {
    return std::make_unique<thermal::SpectralBackend>(die, std::move(stack), cfg.spectral);
  }
  throw PreconditionError("make_thermal_backend: unknown backend");
}

std::vector<thermal::SurfaceSample> block_centre_samples(const floorplan::Floorplan& fp) {
  std::vector<thermal::SurfaceSample> samples;
  samples.reserve(fp.blocks().size());
  for (const auto& b : fp.blocks()) samples.push_back({b.rect.cx(), b.rect.cy()});
  return samples;
}

double boundary_fold_resistance(const CosimOptions& opts) {
  double r = opts.r_package;
  if (opts.stack) r += opts.stack->package_resistance();
  return r;
}

void validate(const CosimOptions& opts) {
  PTHERM_REQUIRE(opts.damping > 0.0 && opts.damping <= 1.0,
                 "CosimOptions: damping must be in (0, 1]");
  PTHERM_REQUIRE(opts.tol > 0.0, "CosimOptions: tol must be > 0");
  PTHERM_REQUIRE(opts.max_iterations > 0, "CosimOptions: max_iterations must be > 0");
  PTHERM_REQUIRE(opts.runaway_rise_limit > 0.0,
                 "CosimOptions: runaway_rise_limit must be > 0");
  PTHERM_REQUIRE(opts.r_package >= 0.0, "CosimOptions: r_package must be >= 0");
}

double adjusted_leakage_power(const device::Technology& tech,
                              const floorplan::CompiledBlockLeakage& leakage, double temp,
                              double vb, const LeakageAdjust& adj) {
  return adjusted_leakage_power(tech, leakage.leakage_power(tech, temp, vb), temp, adj);
}

double adjusted_leakage_power(const device::Technology& tech, double base_power, double temp,
                              const LeakageAdjust& adj) {
  // Nominal adjustments are bitwise transparent: exp(-0/nVT) == 1.0 exactly
  // and 1.0 * base == base, so this single expression serves both paths, and
  // a zero dVT0 of either sign skips the exponential without moving a bit.
  const double multiplier =
      adj.delta_vt0 == 0.0 ? 1.0 : device::leakage_multiplier(tech, adj.delta_vt0, temp);
  return adj.scale * (multiplier * base_power);
}

ElectroThermalSolver::ElectroThermalSolver(device::Technology tech, floorplan::Floorplan fp,
                                           CosimOptions opts)
    : tech_(std::move(tech)), fp_(std::move(fp)), opts_(opts) {
  PTHERM_REQUIRE(!fp_.blocks().empty(), "ElectroThermalSolver: empty floorplan");
  validate(opts_);
  compiled_leakage_ = floorplan::CompiledBlockLeakage::compile_all(fp_.blocks());
  backend_ = make_thermal_backend(fp_.die(), opts_);
  build_influence();
}

void ElectroThermalSolver::build_influence() {
  TELEMETRY_SPAN("cosim/build_influence");
  // Every backend is linear in the injected power, so the influence operator
  // captures it exactly: R[i][j] = rise at block i per watt in block j. The
  // Picard loop only needs R *applied*, so matrix-free-capable backends
  // (spectral) serve the seam directly; dense construction is batched per
  // column by the backend (thermal/backend.hpp).
  const bool want_matrix_free =
      opts_.influence == InfluenceMode::MatrixFree ||
      (opts_.influence == InfluenceMode::Auto && backend_->supports_matrix_free_influence());
  if (want_matrix_free) {
    // Forced MatrixFree on a dense-only backend throws here, naming it.
    matrix_free_ =
        backend_->make_influence_apply(fp_.heat_sources(tech_), block_centre_samples(fp_));
  } else {
    influence_.emplace(build_dense_influence());
  }
  influence_stats_ = backend_->cost_stats();
}

thermal::DenseInfluenceApply ElectroThermalSolver::build_dense_influence() const {
  thermal::DenseInfluenceApply dense(
      backend_->build_influence(fp_.heat_sources(tech_), block_centre_samples(fp_)));
  // The boundary resistance (r_package + stack RC network) couples every
  // pair uniformly: each watt anywhere raises the whole die by it.
  // Matrix-free mode has no matrix to shift — run_picard folds the same term
  // in analytically, through the same helper.
  const double r_fold = boundary_fold_resistance(opts_);
  if (r_fold > 0.0) dense.add_uniform(r_fold);
  return dense;
}

const thermal::InfluenceApply& ElectroThermalSolver::influence_apply() const noexcept {
  return matrix_free_ ? static_cast<const thermal::InfluenceApply&>(*matrix_free_)
                      : *influence_;
}

const thermal::DenseInfluenceApply& ElectroThermalSolver::influence_matrix() const {
  // Lazy dense realization for diagnostics/ablation consumers: same backend
  // build (and boundary-fold shift) the dense mode would have done.
  if (!influence_) influence_.emplace(build_dense_influence());
  return *influence_;
}

double ElectroThermalSolver::block_leakage_power(std::size_t i, double temp) const {
  PTHERM_REQUIRE(i < compiled_leakage_.size(), "block_leakage_power: index out of range");
  const LeakageAdjust adj = adjust_.empty() ? LeakageAdjust{} : adjust_[i];
  return adjusted_leakage_power(tech_, compiled_leakage_[i], temp, opts_.vb, adj);
}

void ElectroThermalSolver::set_leakage_adjust(std::vector<LeakageAdjust> adjust) {
  PTHERM_REQUIRE(adjust.empty() || adjust.size() == fp_.blocks().size(),
                 "set_leakage_adjust: need one adjustment per block (or none)");
  for (const LeakageAdjust& a : adjust) {
    PTHERM_REQUIRE(std::isfinite(a.scale) && std::isfinite(a.delta_vt0),
                   "set_leakage_adjust: non-finite scale or delta_vt0");
  }
  adjust_ = std::move(adjust);
}

CosimResult ElectroThermalSolver::solve() {
  TELEMETRY_SPAN("cosim/solve");
  const auto& blocks = fp_.blocks();
  const std::size_t n = blocks.size();
  // A batch of one. Without installed adjustments the nominal values (scale
  // 1, dVT0 0) are bitwise transparent, so the kernel's leakage loop needs
  // no branch for them.
  std::vector<double> p_dynamic(n);
  std::vector<double> scale(n, 1.0);
  std::vector<double> dvt0(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) p_dynamic[i] = blocks[i].p_dynamic;
  for (std::size_t i = 0; i < adjust_.size(); ++i) {
    scale[i] = adjust_[i].scale;
    dvt0[i] = adjust_[i].delta_vt0;
  }
  const device::Technology* tech = &tech_;
  ScenarioResult scenario;
  // Per-block exit leakage: the one evaluation finalize sums into
  // total_leakage.
  std::vector<double> p_leakage(n);
  run_picard({p_dynamic, scale, dvt0, {&tech, 1}}, {&scenario, 1}, nullptr, p_leakage);

  CosimResult result;
  result.converged = scenario.converged;
  result.runaway = scenario.runaway;
  result.iterations = scenario.iterations;
  result.blocks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.blocks[i].temperature = scenario.temperatures[i];
    result.blocks[i].p_dynamic = blocks[i].p_dynamic;
    result.blocks[i].p_leakage = p_leakage[i];
  }
  result.total_dynamic = scenario.total_dynamic;
  result.total_leakage = scenario.total_leakage;
  result.max_temperature = scenario.max_temperature;
  result.max_delta_last = scenario.max_delta_last;
  result.contraction = scenario.contraction;
  result.diagnostics = std::move(scenario.diagnostics);
  result.picard_residuals = std::move(scenario.picard_residuals);
  return result;
}

long long ElectroThermalSolver::run_picard(const PicardScenarios& in,
                                           std::span<ScenarioResult> results,
                                           ScenarioBatchTrace* trace,
                                           std::span<double> exit_leakage) const {
  const auto& blocks = fp_.blocks();
  const std::size_t n = blocks.size();
  const std::size_t count = results.size();
  PTHERM_REQUIRE(in.tech.size() == count && in.p_dynamic.size() == count * n &&
                     in.adj_scale.size() == count * n && in.adj_dvt0.size() == count * n,
                 "run_picard: need one technology and one row of block values per scenario");
  PTHERM_REQUIRE(exit_leakage.empty() || exit_leakage.size() == count * n,
                 "run_picard: exit_leakage must be empty or hold count * n entries");
  const double t_sink = fp_.die().t_sink;
  const thermal::InfluenceApply& influence = influence_apply();
  // In matrix-free mode the uniform boundary term fold * sum(P) cannot live
  // inside the operator (there is no matrix to add_uniform); fold it in
  // analytically per iteration. Dense mode carries it in the matrix — both
  // through boundary_fold_resistance, so the modes cannot diverge.
  const double r_pkg = matrix_free_ ? boundary_fold_resistance(opts_) : 0.0;
  const bool tracing = opts_.trace.convergence;

  std::vector<double> temps(count * n, t_sink);
  std::vector<numerics::SafeguardedPicard> guards(count, {opts_.damping, /*streak=*/10});
  std::vector<std::size_t> active(count);  // scenario indices, ascending
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::vector<double> powers(count * n);
  std::vector<double> rises(count * n);

  const auto adjust = [&](std::size_t k, std::size_t j) {
    return LeakageAdjust{in.adj_scale[k * n + j], in.adj_dvt0[k * n + j]};
  };
  // The base leakage of scenarios `ks` (ascending) at their temperatures:
  // ONE batched evaluation of all their blocks, scenario-major, which the
  // callers below then adjust per block. Scenarios that share a technology
  // (a Monte Carlo batch) pass it once; mixed V/f levels pass one per block.
  std::vector<double> packed(count * n);  // the scenarios' temperatures
  std::vector<double> swept(count * n);
  std::vector<const device::Technology*> block_tech;
  const auto sweep_leakage = [&](std::span<const std::size_t> ks) -> const double* {
    const std::size_t m = ks.size();
    for (std::size_t a = 0; a < m; ++a) {
      std::copy_n(temps.data() + ks[a] * n, n, packed.data() + a * n);
    }
    const device::Technology* const first = in.tech[ks[0]];
    const bool one_tech =
        std::all_of(ks.begin(), ks.end(), [&](std::size_t k) { return in.tech[k] == first; });
    std::span<const device::Technology* const> techs(&first, 1);
    if (!one_tech) {
      block_tech.resize(m * n);
      for (std::size_t a = 0; a < m; ++a) {
        std::fill_n(block_tech.data() + a * n, n, in.tech[ks[a]]);
      }
      techs = block_tech;
    }
    floorplan::CompiledBlockLeakage::leakage_power(compiled_leakage_, techs, {packed.data(), m * n},
                                                   opts_.vb, {swept.data(), m * n});
    return swept.data();
  };
  // Every scenario starts with every block at t_sink, so the first sweep's
  // base leakage depends only on the technology: one uniform-temperature
  // evaluation (each distinct program once) per distinct technology, which
  // each scenario then adjusts — bitwise the per-block values.
  std::vector<const device::Technology*> start_tech;
  std::vector<double> start_power;  // n base powers per start_tech entry
  const auto start_leakage = [&](const device::Technology* tech) -> const double* {
    const auto found = std::find(start_tech.begin(), start_tech.end(), tech);
    const auto at = static_cast<std::size_t>(found - start_tech.begin());
    if (found == start_tech.end()) {
      start_tech.push_back(tech);
      start_power.resize(start_tech.size() * n);
      floorplan::CompiledBlockLeakage::uniform_leakage_power(
          compiled_leakage_, *tech, t_sink, opts_.vb, {start_power.data() + at * n, n});
    }
    return start_power.data() + at * n;
  };
  // Scenario k's result from its final temperatures and its base leakage
  // there (n values at `base`).
  const auto finalize = [&](std::size_t k, const double* base) {
    ScenarioResult& res = results[k];
    const double* temp = temps.data() + k * n;
    res.temperatures.assign(temp, temp + n);
    std::size_t hottest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p_leak = adjusted_leakage_power(*in.tech[k], base[i], temp[i], adjust(k, i));
      if (!exit_leakage.empty()) exit_leakage[k * n + i] = p_leak;
      res.total_dynamic += in.p_dynamic[k * n + i];
      res.total_leakage += p_leak;
      res.max_temperature = std::max(res.max_temperature, temp[i]);
      if (temp[i] > temp[hottest]) hottest = i;
    }
    if (!res.converged) {
      SolveDiagnostics diag;
      diag.solver = "ElectroThermalSolver";
      diag.stage = res.runaway                           ? "runaway"
                   : !std::isfinite(res.max_delta_last) ? "non-finite residual"
                                                        : "max-iterations";
      diag.iterations = res.iterations;
      diag.residual = res.max_delta_last;
      diag.worst = blocks[hottest].name;
      res.diagnostics = std::move(diag);
    }
  };
  // The exit sweep of every scenario that finished in one sweep: one
  // leakage evaluation, then each result.
  const auto finalize_all = [&](std::span<const std::size_t> ks) {
    if (ks.empty()) return;
    TELEMETRY_SPAN("cosim/exit_leakage");
    const double* base = sweep_leakage(ks);
    for (std::size_t a = 0; a < ks.size(); ++a) finalize(ks[a], base + a * n);
  };
  std::vector<std::size_t> finished;  // scenario indices, ascending

  long long sweeps = 0;
  for (int it = 0; it < opts_.max_iterations && !active.empty(); ++it) {
    TELEMETRY_SPAN("cosim/picard_iteration");
    // Pack the active scenarios' powers; a scenario's packed slot only
    // places its memory, never changes its arithmetic.
    const std::size_t m = active.size();
    {
      TELEMETRY_SPAN("cosim/leakage");
      // The first sweep has every block at t_sink.
      const double* swept_base = it == 0 ? nullptr : sweep_leakage(active);
      for (std::size_t a = 0; a < m; ++a) {
        const std::size_t k = active[a];
        const double* temp = temps.data() + k * n;
        const double* p_dyn = in.p_dynamic.data() + k * n;
        double* p = powers.data() + a * n;
        const double* base = it == 0 ? start_leakage(in.tech[k]) : swept_base + a * n;
        for (std::size_t j = 0; j < n; ++j) {
          p[j] = p_dyn[j] + adjusted_leakage_power(*in.tech[k], base[j], temp[j], adjust(k, j));
        }
      }
    }
    influence.apply_batch({powers.data(), m * n}, {rises.data(), m * n}, m);
    ++sweeps;
    double sweep_max_residual = 0.0;

    std::size_t keep = 0;
    finished.clear();
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t k = active[a];
      ScenarioResult& res = results[k];
      res.iterations = it + 1;
      double* temp = temps.data() + k * n;
      const double* p = powers.data() + a * n;
      double* rise = rises.data() + a * n;
      if (r_pkg > 0.0) {
        double p_total = 0.0;
        for (std::size_t j = 0; j < n; ++j) p_total += p[j];
        const double pkg_rise = r_pkg * p_total;
        for (std::size_t i = 0; i < n; ++i) rise[i] += pkg_rise;
      }
      for (std::size_t i = 0; i < n; ++i) rise[i] += t_sink;  // rises -> targets
      const double residual = guards[k].step({temp, n}, {rise, n});
      const double max_rise = *std::max_element(temp, temp + n) - t_sink;
      res.max_delta_last = residual;
      res.contraction = guards[k].contraction();
      if (tracing) res.picard_residuals.push_back(residual);
      sweep_max_residual = std::max(sweep_max_residual, residual);

      // A residual growing over several sweeps is the fixed point diverging:
      // leakage-thermal runaway below the hard rise limit.
      res.runaway = max_rise > opts_.runaway_rise_limit || guards[k].diverging();
      res.converged = !res.runaway && residual < opts_.tol;
      // A NaN or infinite residual (a non-finite power or rise) ends the
      // scenario unconverged at its last finite iterate.
      if (res.runaway || res.converged || guards[k].failed()) {
        finished.push_back(k);
      } else {
        active[keep++] = k;  // compaction keeps ascending order
      }
    }
    finalize_all(finished);
    if (tracing && trace != nullptr) {
      trace->active_per_sweep.push_back(static_cast<long long>(m));
      trace->max_residual_per_sweep.push_back(sweep_max_residual);
    }
    active.resize(keep);
  }
  // Survivors of max_iterations: neither converged nor runaway.
  finalize_all(active);
  return sweeps;
}

}  // namespace ptherm::core
