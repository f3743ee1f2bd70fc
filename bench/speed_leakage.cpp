// Speed study S1 (leakage): the paper's core claim is that closed-form
// models make electro-thermal estimation fast enough for full chips, where
// "numerical approaches (as SPICE simulations)" are not. This bench times
//   * the collapse model (both variants),
//   * the exact nested-Brent stack solver,
//   * the full MNA Newton solve of the same stack,
//   * gate-level and netlist-level model evaluation,
//   * one compiled-leakage sweep over a 4096-block manycore plan: per block
//     and batched at spread temperatures, and uniform at the sink
//     temperature.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "device/mosfet.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/generators.hpp"
#include "leakage/collapse.hpp"
#include "leakage/exact_stack.hpp"
#include "leakage/gate.hpp"
#include "netlist/cells.hpp"
#include "netlist/netlist.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;
using device::MosModel;
using device::MosType;

const device::Technology& tech() {
  static const auto t = device::Technology::cmos012();
  return t;
}

void BM_CollapseModelStack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> widths(n, 1e-6);
  double temp = 300.0;
  for (auto _ : state) {
    temp = (temp < 400.0) ? temp + 0.01 : 300.0;  // defeat value caching
    benchmark::DoNotOptimize(
        leakage::chain_off_current(tech(), MosType::Nmos, widths, 0.12e-6, temp));
  }
}
BENCHMARK(BM_CollapseModelStack)->Arg(2)->Arg(4)->Arg(8);

void BM_CollapseRefinedStack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> widths(n, 1e-6);
  double temp = 300.0;
  for (auto _ : state) {
    temp = (temp < 400.0) ? temp + 0.01 : 300.0;
    benchmark::DoNotOptimize(leakage::chain_off_current(
        tech(), MosType::Nmos, widths, 0.12e-6, temp, 0.0,
        leakage::CollapseVariant::Refined));
  }
}
BENCHMARK(BM_CollapseRefinedStack)->Arg(2)->Arg(4);

void BM_ExactStackSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> widths(n, 1e-6);
  double temp = 300.0;
  for (auto _ : state) {
    temp = (temp < 400.0) ? temp + 0.01 : 300.0;
    benchmark::DoNotOptimize(
        leakage::solve_exact_chain(tech(), MosType::Nmos, widths, 0.12e-6, temp));
  }
}
BENCHMARK(BM_ExactStackSolver)->Arg(2)->Arg(4);

void BM_MnaStackSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  spice::Circuit ckt;
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), tech().vdd);
  spice::NodeId below = spice::Circuit::ground();
  for (int i = 0; i < n; ++i) {
    const spice::NodeId above = (i + 1 == n) ? vdd : ckt.node("n" + std::to_string(i));
    ckt.add_mosfet("M" + std::to_string(i), above, spice::Circuit::ground(), below,
                   spice::Circuit::ground(),
                   MosModel(tech(), MosType::Nmos, 1e-6, 0.12e-6));
    below = above;
  }
  spice::DcOptions opts;
  for (auto _ : state) {
    opts.temp = (opts.temp < 400.0) ? opts.temp + 0.01 : 300.0;
    benchmark::DoNotOptimize(spice::solve_dc(ckt, opts));
  }
}
BENCHMARK(BM_MnaStackSolve)->Arg(2)->Arg(4);

void BM_GateStaticNand4AllVectors(benchmark::State& state) {
  const netlist::CellLibrary lib(tech());
  const auto cell = lib.find("nand4");
  for (auto _ : state) {
    double sum = 0.0;
    for (unsigned v = 0; v < 16; ++v) {
      sum += leakage::gate_static(tech(), *cell, leakage::vector_from_index(v, 4), 320.0)
                 .i_off;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GateStaticNand4AllVectors);

void BM_NetlistLeakage(benchmark::State& state) {
  Rng rng(5);
  const netlist::CellLibrary lib(tech());
  const auto nl = netlist::make_random_netlist(lib, static_cast<int>(state.range(0)), rng);
  double temp = 300.0;
  for (auto _ : state) {
    temp = (temp < 400.0) ? temp + 0.01 : 300.0;
    benchmark::DoNotOptimize(nl.total_off_current(tech(), temp));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["gates"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_NetlistLeakage)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CompiledLeakageSweep(benchmark::State& state) {
  // One Picard sweep's leakage over the 4096-block manycore plan (32 x 32
  // tiles, 16,384 gate groups, 18 interned programs). Arg 0: every block at
  // its own temperature, spread over 318-348 K, one handle at a time. Arg 1:
  // every block at T_sink through uniform_leakage_power, each program once
  // (the start sweep). Arg 2: the spread temperatures through the batched
  // entry, program-major (sweeps >= 1).
  const auto mode = state.range(0);
  thermal::Die die;
  die.width = 12e-3;
  die.height = 12e-3;
  die.thickness = 500e-6;
  die.k_si = 148.0;
  die.t_sink = 318.15;
  Rng rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 1.5 * 32 * 32;
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_manycore(tech(), die, 32, 32, cfg, rng);
  const auto handles = floorplan::CompiledBlockLeakage::compile_all(fp.blocks());
  const std::size_t n = handles.size();
  std::vector<double> temps(n);
  for (std::size_t i = 0; i < n; ++i) temps[i] = die.t_sink + 30.0 * rng.uniform();
  std::vector<double> power(n);
  const device::Technology* const techs[] = {&tech()};
  for (auto _ : state) {
    if (mode == 1) {
      floorplan::CompiledBlockLeakage::uniform_leakage_power(handles, tech(), die.t_sink, 0.0,
                                                             power);
    } else if (mode == 2) {
      floorplan::CompiledBlockLeakage::leakage_power(handles, techs, temps, 0.0, power);
    } else {
      for (std::size_t i = 0; i < n; ++i) power[i] = handles[i].leakage_power(tech(), temps[i]);
    }
    benchmark::DoNotOptimize(power.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["blocks"] = static_cast<double>(n);
}
BENCHMARK(BM_CompiledLeakageSweep)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
