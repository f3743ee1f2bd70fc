// The ONE counter catalog: every per-subsystem stat struct registers into
// the telemetry registry through the descriptor tables here, under the
// "subsystem/metric" naming scheme ("backend/cg_iterations",
// "spice/newton_iterations"). Merging stat sets is contribute() twice into
// one registry and reading the struct back (backend_cost_from), so no merge
// site keeps a hand-copied field list that could silently drop a counter.
// A static_assert pins each struct's size to its table, so an unnamed field
// fails the build.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_batch.hpp"
#include "spice/report.hpp"
#include "telemetry/registry.hpp"
#include "thermal/backend.hpp"

namespace ptherm::telemetry {

/// One thermal::BackendCostStats field: its registry name (bare, prefixed
/// per contribute call) and whether the perf trajectory guards it (a
/// deterministic solver-effort counter whose increase at fixed work is a
/// regression — what bench/compare_bench.py fails on).
struct BackendCounterField {
  const char* name;
  long long thermal::BackendCostStats::* member;
  bool guarded;
};

/// The full BackendCostStats catalog, in declaration order.
[[nodiscard]] std::span<const BackendCounterField> backend_counter_fields();

/// Adds every BackendCostStats field to `reg` as `<prefix><field name>`.
void contribute(Registry& reg, const thermal::BackendCostStats& stats,
                std::string_view prefix = "backend/");

/// Reads a BackendCostStats back out of `reg` (absent counters read 0) —
/// the inverse of contribute over the same catalog, so
/// backend_cost_from(contribute(a) + contribute(b)) IS the field-complete
/// merge of a and b.
[[nodiscard]] thermal::BackendCostStats backend_cost_from(
    const Registry& reg, std::string_view prefix = "backend/");

/// Batch-engine counters contribute under the same backend/ prefix as the
/// backend's own, so a batch's full cost set is two contributes into one
/// registry.
void contribute(Registry& reg, const core::ScenarioBatchStats& stats,
                std::string_view prefix = "backend/");

/// SPICE solve counters from a SolveReport: spice/newton_iterations,
/// spice/homotopy_steps, spice/rungs, spice/cold_restarts.
void contribute(Registry& reg, const spice::SolveReport& report,
                std::string_view prefix = "spice/");

/// Bare names of every guarded solver-effort counter (backend and batch
/// catalog fields flagged `guarded` plus the bench-level aggregates the speed benches
/// export). bench/run_bench.sh embeds this list into BENCH_<label>.json and
/// compare_bench.py guards exactly these keys — a new guarded counter is one
/// catalog entry, never a hand-edit of the Python tuple.
[[nodiscard]] std::vector<std::string> guarded_counter_names();

}  // namespace ptherm::telemetry
