#include "core/scenario_batch.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "power/dynamic.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::core {

void validate(const ScenarioBatchOptions& opts) {
  PTHERM_REQUIRE(opts.chunk >= 1, "ScenarioBatchOptions: chunk must be >= 1");
}

void for_each_chunk(std::size_t count, int chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  PTHERM_REQUIRE(chunk >= 1, "for_each_chunk: chunk must be >= 1");
  const std::size_t step = static_cast<std::size_t>(chunk);
  for (std::size_t begin = 0; begin < count; begin += step) {
    fn(begin, std::min(count, begin + step));
  }
}

ScenarioBatch::ScenarioBatch(device::Technology tech, floorplan::Floorplan fp,
                             CosimOptions opts, ScenarioBatchOptions batch)
    // The solver copies its arguments, leaving `tech` and `fp` intact for the
    // nominal-state capture below.
    : batch_(batch), solver_(tech, fp, opts) {
  core::validate(batch_);
  nominal_powers_.reserve(fp.blocks().size());
  for (const auto& block : fp.blocks()) nominal_powers_.push_back(block.p_dynamic);
  Level nominal;
  nominal.voltage = tech.vdd;
  nominal.tech = std::move(tech);
  levels_.push_back(std::move(nominal));
}

int ScenarioBatch::add_vf_level(double voltage, double f_scale) {
  PTHERM_REQUIRE(voltage > 0.0 && f_scale > 0.0,
                 "add_vf_level: voltage and f_scale must be positive");
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].voltage == voltage && levels_[l].f_scale == f_scale) {
      return static_cast<int>(l);
    }
  }
  Level level;
  level.voltage = voltage;
  level.f_scale = f_scale;
  level.tech = device::at_supply(levels_[0].tech, voltage);
  // Dynamic scale through the power model (alpha f C VDD^2), same recipe as
  // the RTM actuator: the ratio against nominal is exactly (V/V0)^2 f_scale.
  const power::SwitchingContext ctx0;
  power::SwitchingContext ctx = ctx0;
  ctx.frequency = ctx0.frequency * f_scale;
  level.dynamic_scale =
      power::transient_power(level.tech, ctx) / power::transient_power(levels_[0].tech, ctx0);
  levels_.push_back(std::move(level));
  return static_cast<int>(levels_.size()) - 1;
}

const device::Technology& ScenarioBatch::level_technology(int level) const {
  PTHERM_REQUIRE(level >= 0 && level < level_count(),
                 "level_technology: level out of range");
  return levels_[static_cast<std::size_t>(level)].tech;
}

double ScenarioBatch::level_dynamic_scale(int level) const {
  PTHERM_REQUIRE(level >= 0 && level < level_count(),
                 "level_dynamic_scale: level out of range");
  return levels_[static_cast<std::size_t>(level)].dynamic_scale;
}

std::size_t ScenarioBatch::add_scenario(std::vector<double> p_dynamic,
                                        std::vector<LeakageAdjust> adjust, int level) {
  const std::size_t n = block_count();
  PTHERM_REQUIRE(p_dynamic.size() == n, "add_scenario: need one dynamic power per block");
  PTHERM_REQUIRE(adjust.empty() || adjust.size() == n,
                 "add_scenario: need one adjustment per block (or none)");
  PTHERM_REQUIRE(level >= 0 && level < level_count(), "add_scenario: level out of range");
  for (const double p : p_dynamic) {
    PTHERM_REQUIRE(std::isfinite(p), "add_scenario: non-finite dynamic power");
  }
  for (const LeakageAdjust& a : adjust) {
    PTHERM_REQUIRE(std::isfinite(a.scale) && std::isfinite(a.delta_vt0),
                   "add_scenario: non-finite leakage adjustment");
  }
  powers_.insert(powers_.end(), p_dynamic.begin(), p_dynamic.end());
  if (adjust.empty()) {
    adj_scale_.insert(adj_scale_.end(), n, 1.0);
    adj_dvt0_.insert(adj_dvt0_.end(), n, 0.0);
  } else {
    for (const LeakageAdjust& a : adjust) {
      adj_scale_.push_back(a.scale);
      adj_dvt0_.push_back(a.delta_vt0);
    }
  }
  level_index_.push_back(static_cast<std::int32_t>(level));
  return level_index_.size() - 1;
}

std::size_t ScenarioBatch::add_nominal(int level) {
  PTHERM_REQUIRE(level >= 0 && level < level_count(), "add_nominal: level out of range");
  const double scale = levels_[static_cast<std::size_t>(level)].dynamic_scale;
  std::vector<double> powers = nominal_powers_;
  for (double& p : powers) p *= scale;  // scale 1.0 at level 0: bitwise no-op
  return add_scenario(std::move(powers), {}, level);
}

std::size_t ScenarioBatch::add_variation_samples(const device::VariationModel& var, int count,
                                                 std::uint64_t base_seed) {
  PTHERM_REQUIRE(count > 0, "add_variation_samples: count must be > 0");
  const std::size_t n = block_count();
  const std::size_t first = size();
  for (int s = 0; s < count; ++s) {
    // Stream index = call-local sample number: sample s's offsets are bitwise
    // the same whether it is queued alone or among millions.
    const std::vector<double> dvt0 =
        var.sample_scenario_delta_vt0(n, base_seed, static_cast<std::uint64_t>(s));
    std::vector<LeakageAdjust> adjust(n);
    for (std::size_t j = 0; j < n; ++j) adjust[j].delta_vt0 = dvt0[j];
    add_scenario(nominal_powers_, std::move(adjust), 0);
  }
  return first;
}

std::size_t ScenarioBatch::add_vf_corner(double voltage, double f_scale,
                                         std::vector<LeakageAdjust> adjust) {
  const int level = add_vf_level(voltage, f_scale);
  const double scale = levels_[static_cast<std::size_t>(level)].dynamic_scale;
  std::vector<double> powers = nominal_powers_;
  for (double& p : powers) p *= scale;
  return add_scenario(std::move(powers), std::move(adjust), level);
}

std::span<const double> ScenarioBatch::scenario_powers(std::size_t k) const {
  PTHERM_REQUIRE(k < size(), "scenario_powers: scenario out of range");
  return {powers_.data() + k * block_count(), block_count()};
}

std::vector<LeakageAdjust> ScenarioBatch::scenario_adjust(std::size_t k) const {
  PTHERM_REQUIRE(k < size(), "scenario_adjust: scenario out of range");
  const std::size_t n = block_count();
  std::vector<LeakageAdjust> adjust(n);
  for (std::size_t j = 0; j < n; ++j) {
    adjust[j].scale = adj_scale_[k * n + j];
    adjust[j].delta_vt0 = adj_dvt0_[k * n + j];
  }
  return adjust;
}

int ScenarioBatch::scenario_level(std::size_t k) const {
  PTHERM_REQUIRE(k < size(), "scenario_level: scenario out of range");
  return level_index_[k];
}

std::vector<ScenarioResult> ScenarioBatch::solve_all() {
  TELEMETRY_SPAN("batch/solve_all");
  std::vector<ScenarioResult> results(size());
  for_each_chunk(size(), batch_.chunk, [&](std::size_t begin, std::size_t end) {
    run_chunk(begin, end, results);
  });
  return results;
}

// One chunk of scenarios through the solver's Picard kernel, plus the batch
// bookkeeping: the kernel tags diagnostics as a standalone solve would, and
// the batch names the scenario.
void ScenarioBatch::run_chunk(std::size_t begin, std::size_t end,
                              std::vector<ScenarioResult>& results) {
  TELEMETRY_SPAN("batch/chunk");
  const std::size_t n = block_count();
  const std::size_t count = end - begin;
  std::vector<const device::Technology*> tech(count);
  for (std::size_t k = begin; k < end; ++k) {
    tech[k - begin] = &levels_[static_cast<std::size_t>(level_index_[k])].tech;
  }
  const PicardScenarios in{{powers_.data() + begin * n, count * n},
                           {adj_scale_.data() + begin * n, count * n},
                           {adj_dvt0_.data() + begin * n, count * n},
                           tech};
  const long long sweeps = solver_.run_picard(in, {results.data() + begin, count}, &trace_);

  long long iterations_sum = 0;
  for (std::size_t k = begin; k < end; ++k) {
    ScenarioResult& res = results[k];
    iterations_sum += res.iterations;
    if (res.diagnostics) {
      res.diagnostics->solver = "ScenarioBatch";
      res.diagnostics->stage = "scenario " + std::to_string(k) + ": " + res.diagnostics->stage;
    }
  }
  stats_.scenarios += static_cast<long long>(count);
  stats_.batched_matvecs += sweeps;
  stats_.picard_iterations_total += iterations_sum;
  // Scenario-iterations the masks avoided: without masking every scenario
  // would ride all `sweeps` blocked applies.
  stats_.masked_iterations_saved += static_cast<long long>(count) * sweeps - iterations_sum;
}

}  // namespace ptherm::core
