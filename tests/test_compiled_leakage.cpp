// Tests for the compiled leakage programs: bitwise agreement with the
// uncompiled Block walk (the oracle) across plans, temperatures, supplies,
// and body bias; the uniform-temperature and batched entry points against
// both, the batched one also over scenario-major tiles of one handle span;
// value stacks deeper than the local buffer; interning of one program
// per distinct gate state; technology independence of one compiled program;
// and the error contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "device/tech.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"
#include "floorplan/generators.hpp"
#include "leakage/gate.hpp"
#include "netlist/cells.hpp"

namespace ptherm::floorplan {
namespace {

using device::Technology;
using leakage::GateTopology;
using leakage::SpNetwork;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan generated_plan() {
  Rng rng(17);
  GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  return make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

floorplan::Floorplan manycore_plan() {
  Rng rng(5);
  thermal::Die die = die_1mm();
  die.width = 4e-3;
  die.height = 4e-3;
  return make_manycore(tech(), die, 4, 4, {}, rng);
}

/// Blocks drawn from the whole cell library: 0-6 groups each in random
/// states and counts, some states repeated inside a block, and some groups
/// on a structurally identical copy of a cell (a distinct topology pointer).
floorplan::Floorplan random_plan() {
  Rng rng(2718);
  const netlist::CellLibrary lib(tech());
  floorplan::Floorplan fp(die_1mm());
  for (int i = 0; i < 16; ++i) {
    Block b;
    b.name = "random_" + std::to_string(i);
    b.rect = {(i % 4) * 0.25e-3, (i / 4) * 0.25e-3, 0.2e-3, 0.2e-3};
    b.p_dynamic = 0.1;
    const auto groups = rng.uniform_index(7);
    for (std::uint64_t g = 0; g < groups; ++g) {
      auto cell = lib.find(lib.names()[rng.uniform_index(lib.names().size())]);
      if (rng.bernoulli(0.2)) cell = std::make_shared<const GateTopology>(*cell);
      leakage::InputVector inputs(static_cast<std::size_t>(cell->input_count()));
      for (std::size_t k = 0; k < inputs.size(); ++k) inputs[k] = rng.bernoulli();
      b.gate_groups.push_back({cell, std::move(inputs), rng.uniform(1.0, 1e4)});
      if (rng.bernoulli(0.2)) b.gate_groups.push_back(b.gate_groups.back());
    }
    fp.add_block(std::move(b));
  }
  return fp;
}

TEST(CompiledLeakage, BitwiseEqualsBlockWalkOnGeneratedBlocks) {
  const Technology nominal = tech();
  const Technology low_supply = device::at_supply(nominal, 0.8 * nominal.vdd);
  for (const auto& fp : {generated_plan(), manycore_plan(), random_plan()}) {
    const auto all = CompiledBlockLeakage::compile_all(fp.blocks());
    ASSERT_EQ(all.size(), fp.blocks().size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Block& block = fp.blocks()[i];
      const CompiledBlockLeakage single(block);
      for (const Technology* t : {&nominal, &low_supply}) {
        for (const double temp : {280.0, 300.0, 318.15, 360.0, 400.0}) {
          for (const double vb : {-0.2, 0.0}) {
            const double walk = block.leakage_current(*t, temp, vb);
            EXPECT_EQ(all[i].leakage_current(*t, temp, vb), walk)
                << block.name << " at " << temp << " K, vb " << vb;
            EXPECT_EQ(single.leakage_current(*t, temp, vb), walk) << block.name;
            EXPECT_EQ(all[i].leakage_power(*t, temp, vb), block.leakage_power(*t, temp, vb));
          }
        }
      }
    }
  }
}

TEST(CompiledLeakage, InternsOneProgramPerDistinctGateState) {
  for (const auto& fp : {manycore_plan(), random_plan()}) {
    std::set<std::pair<const GateTopology*, leakage::InputVector>> states;
    for (const Block& block : fp.blocks()) {
      for (const auto& g : block.gate_groups) states.emplace(g.gate.get(), g.inputs);
    }
    const auto all = CompiledBlockLeakage::compile_all(fp.blocks());
    for (const auto& compiled : all) EXPECT_EQ(compiled.program_count(), states.size());
  }
  // Four library cells in every reachable input state: 2 + 4 + 4 + 8.
  EXPECT_EQ(CompiledBlockLeakage::compile_all(manycore_plan().blocks()).front().program_count(),
            18u);
}

TEST(CompiledLeakage, BitwiseUnderBodyBias) {
  const auto fp = generated_plan();
  const Block& block = fp.blocks().front();
  const CompiledBlockLeakage compiled(block);
  for (const double vb : {-0.3, -0.1, 0.0}) {
    EXPECT_EQ(compiled.leakage_current(tech(), 330.0, vb),
              block.leakage_current(tech(), 330.0, vb));
  }
}

TEST(CompiledLeakage, OneProgramServesEveryTechnology) {
  // The program caches nothing tech- or temp-dependent, so the SAME compiled
  // block evaluates V/f corner technologies bitwise — the property the
  // batched scenario engine leans on.
  const auto fp = generated_plan();
  const Block& block = fp.blocks()[4];
  const CompiledBlockLeakage compiled(block);
  for (const double v_frac : {0.7, 0.85, 1.0, 1.1}) {
    const Technology corner = device::at_supply(tech(), tech().vdd * v_frac);
    EXPECT_EQ(compiled.leakage_current(corner, 345.0),
              block.leakage_current(corner, 345.0))
        << "supply fraction " << v_frac;
  }
}

TEST(CompiledLeakage, EmptyBlockLeaksNothing) {
  Block block;
  block.name = "empty";
  block.rect = {0.0, 0.0, 1e-4, 1e-4};
  EXPECT_EQ(CompiledBlockLeakage(block).leakage_current(tech(), 300.0), 0.0);
  EXPECT_EQ(CompiledBlockLeakage().leakage_current(tech(), 300.0), 0.0);
}

TEST(CompiledLeakage, UniformEvaluationIsBitwiseThePerBlockHandleAndTheWalk) {
  // One uniform-temperature evaluation (each program once, summed per block)
  // must reproduce every block's own handle and the Block walk exactly,
  // across plans (random_plan holds empty blocks), supplies and body biases.
  const Technology nominal = tech();
  const Technology low_supply = device::at_supply(nominal, 0.8 * nominal.vdd);
  bool saw_empty = false;
  for (const auto& fp : {manycore_plan(), random_plan()}) {
    const auto all = CompiledBlockLeakage::compile_all(fp.blocks());
    std::vector<double> power(all.size());
    for (const Technology* t : {&nominal, &low_supply}) {
      for (const double temp : {300.0, 318.15, 375.0}) {
        for (const double vb : {-0.2, 0.0}) {
          CompiledBlockLeakage::uniform_leakage_power(all, *t, temp, vb, power);
          for (std::size_t i = 0; i < all.size(); ++i) {
            const Block& block = fp.blocks()[i];
            saw_empty = saw_empty || block.gate_groups.empty();
            EXPECT_EQ(power[i], all[i].leakage_power(*t, temp, vb))
                << block.name << " at " << temp << " K, vb " << vb;
            EXPECT_EQ(power[i], block.leakage_power(*t, temp, vb)) << block.name;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_empty) << "random_plan should exercise empty blocks";
}

TEST(CompiledLeakage, UniformEvaluationFallsBackForHandlesOfAnotherSet) {
  // Handles from two compile_all calls plus a default (empty) handle: the
  // first set's programs run once, the others evaluate themselves.
  const auto many = manycore_plan();
  const auto rand = random_plan();
  const auto a = CompiledBlockLeakage::compile_all(many.blocks());
  const auto b = CompiledBlockLeakage::compile_all(rand.blocks());
  const std::vector<CompiledBlockLeakage> mixed{CompiledBlockLeakage(), a[0], b[1], a[3], b[0]};
  const std::vector<const Block*> oracle{nullptr, &many.blocks()[0], &rand.blocks()[1],
                                         &many.blocks()[3], &rand.blocks()[0]};
  std::vector<double> power(mixed.size());
  CompiledBlockLeakage::uniform_leakage_power(mixed, tech(), 340.0, -0.1, power);
  EXPECT_EQ(power[0], 0.0);
  for (std::size_t i = 1; i < mixed.size(); ++i) {
    EXPECT_EQ(power[i], oracle[i]->leakage_power(tech(), 340.0, -0.1)) << "handle " << i;
  }
  std::vector<double> too_short(2);
  EXPECT_THROW(CompiledBlockLeakage::uniform_leakage_power(mixed, tech(), 340.0, 0.0, too_short),
               PreconditionError);
}

TEST(CompiledLeakage, DeepTopologiesUseTheHeapStackBitwise) {
  // Value stacks deeper than the 32-slot local buffer: a 40-way parallel OFF
  // network (temperature-free, but too deep for the compile-time fold), a
  // 40-device series chain, and a parallel of such chains next to a shallow
  // inverter in the same plan.
  constexpr int kDeep = 40;
  constexpr double kW = 0.4e-6;
  const auto deep_gate = [&](bool series) {
    std::vector<SpNetwork> devices;
    for (int k = 0; k < kDeep; ++k) devices.push_back(SpNetwork::device(0, kW * (1.0 + 0.01 * k)));
    auto gate = std::make_shared<GateTopology>();
    gate->name = series ? "deep_series" : "deep_parallel";
    gate->length = 0.13e-6;
    // Input high: the pull-down conducts, the deep pMOS network is OFF.
    gate->pull_down = SpNetwork::device(0, kW);
    gate->pull_up = series ? SpNetwork::series(std::move(devices))
                           : SpNetwork::parallel(std::move(devices));
    return gate;
  };
  auto chains = std::make_shared<GateTopology>(*deep_gate(true));
  chains->name = "parallel_of_chains";
  chains->pull_up = SpNetwork::parallel({deep_gate(true)->pull_up, deep_gate(true)->pull_up});
  auto inverter = std::make_shared<GateTopology>(*deep_gate(false));
  inverter->name = "inv";
  inverter->pull_up = SpNetwork::device(0, kW);

  Block block;
  block.name = "deep";
  block.rect = {0.0, 0.0, 1e-4, 1e-4};
  block.gate_groups.push_back({deep_gate(false), {true}, 3.0});
  block.gate_groups.push_back({deep_gate(true), {true}, 5.0});
  block.gate_groups.push_back({chains, {true}, 2.0});
  block.gate_groups.push_back({inverter, {true}, 7.0});
  block.gate_groups.push_back({inverter, {false}, 11.0});
  const std::vector<Block> plan{block};
  const auto all = CompiledBlockLeakage::compile_all(plan);
  ASSERT_EQ(all.front().program_count(), 5u);
  std::vector<double> power(1);
  for (const double temp : {290.0, 330.0, 390.0}) {
    for (const double vb : {-0.2, 0.0}) {
      EXPECT_EQ(all.front().leakage_current(tech(), temp, vb),
                block.leakage_current(tech(), temp, vb))
          << temp << " K, vb " << vb;
      CompiledBlockLeakage::uniform_leakage_power(all, tech(), temp, vb, power);
      EXPECT_EQ(power.front(), block.leakage_power(tech(), temp, vb)) << temp << " K";
    }
  }
}

TEST(CompiledLeakage, CompileTimeErrorsMirrorTheLazyWalk) {
  // The uncompiled path throws on first evaluation; compilation front-loads
  // the same contract to construction.
  constexpr double kW = 0.5e-6;
  auto gate = std::make_shared<GateTopology>();
  gate->name = "inv";
  gate->pull_up = SpNetwork::device(0, kW);
  gate->pull_down = SpNetwork::device(0, kW);
  gate->length = 0.13e-6;

  Block block;
  block.name = "bad";
  block.rect = {0.0, 0.0, 1e-4, 1e-4};
  block.gate_groups.push_back({gate, {true}, 10.0});
  EXPECT_NO_THROW(CompiledBlockLeakage{block});

  const auto expect_rejected = [&](const Block& bad, const char* what) {
    EXPECT_THROW((void)bad.leakage_current(tech(), 300.0), PreconditionError) << what;
    EXPECT_THROW(CompiledBlockLeakage{bad}, PreconditionError) << what;
    // Interning must not let a valid group on the same topology, compiled
    // first, mask the bad one.
    const std::vector<Block> plan{block, bad};
    EXPECT_THROW((void)CompiledBlockLeakage::compile_all(plan), PreconditionError) << what;
  };

  Block wrong_inputs = block;
  wrong_inputs.gate_groups[0].inputs = {};  // too few for a 1-input gate
  expect_rejected(wrong_inputs, "short input vector");

  Block bad_length = block;
  auto zero_len = std::make_shared<GateTopology>(*gate);
  zero_len->length = 0.0;
  bad_length.gate_groups[0].gate = zero_len;
  expect_rejected(bad_length, "zero length");

  // Pull-up on input 1, pull-down on input 0: both ON or both OFF.
  auto split = std::make_shared<GateTopology>(*gate);
  split->pull_up = SpNetwork::device(1, kW);
  Block contention = block;
  contention.gate_groups[0] = {split, {true, false}, 10.0};
  expect_rejected(contention, "contention");
  Block floating = block;
  floating.gate_groups[0] = {split, {false, true}, 10.0};
  expect_rejected(floating, "floating output");
}

TEST(CompiledLeakage, BatchedEntryIsBitwiseThePerHandleAndTheWalk) {
  // Property: over generated plans (random_plan holds empty blocks and
  // repeated groups), random spans of handles (a count that is rarely a
  // multiple of 4), repeated and equal temperatures, body bias and a
  // technology per block (the RTM levels), every output equals the handle's
  // own leakage_power and the Block walk, bit for bit.
  const Technology nominal = tech();
  const std::vector<Technology> levels{nominal, device::at_supply(nominal, 0.9 * nominal.vdd),
                                       device::at_supply(nominal, 0.75 * nominal.vdd)};
  Rng rng(31);
  bool saw_empty = false;
  for (const auto& fp : {manycore_plan(), random_plan(), generated_plan()}) {
    const auto all = CompiledBlockLeakage::compile_all(fp.blocks());
    for (int trial = 0; trial < 12; ++trial) {
      // A random selection of blocks, in random order, with repeats.
      const std::size_t n = 1 + rng.uniform_index(2 * all.size());
      std::vector<std::size_t> pick(n);
      std::vector<CompiledBlockLeakage> handles;
      std::vector<double> temps(n);
      std::vector<const Technology*> per_block(n);
      for (std::size_t i = 0; i < n; ++i) {
        pick[i] = rng.uniform_index(all.size());
        handles.push_back(all[pick[i]]);
        // Every fourth temperature repeats its predecessor.
        temps[i] = i % 4 == 3 ? temps[i - 1] : rng.uniform(290.0, 420.0);
        per_block[i] = &levels[rng.uniform_index(levels.size())];
      }
      if (trial % 3 == 0) std::fill(temps.begin(), temps.end(), 333.0);
      const double vb = trial % 2 == 0 ? 0.0 : -0.25;
      std::vector<double> one_tech(n);
      std::vector<double> own_tech(n);
      const Technology* const shared[] = {&nominal};
      CompiledBlockLeakage::leakage_power(handles, shared, temps, vb, one_tech);
      CompiledBlockLeakage::leakage_power(handles, per_block, temps, vb, own_tech);
      for (std::size_t i = 0; i < n; ++i) {
        const Block& block = fp.blocks()[pick[i]];
        saw_empty = saw_empty || block.gate_groups.empty();
        EXPECT_EQ(one_tech[i], handles[i].leakage_power(nominal, temps[i], vb))
            << block.name << " at " << temps[i] << " K";
        EXPECT_EQ(one_tech[i], block.leakage_power(nominal, temps[i], vb)) << block.name;
        EXPECT_EQ(own_tech[i], handles[i].leakage_power(*per_block[i], temps[i], vb))
            << block.name << " at supply " << per_block[i]->vdd;
        EXPECT_EQ(own_tech[i], block.leakage_power(*per_block[i], temps[i], vb)) << block.name;
      }
    }
  }
  EXPECT_TRUE(saw_empty) << "random_plan should exercise empty blocks";
}

TEST(CompiledLeakage, BatchedEntryTilesTheHandleSpanScenarioMajor) {
  // A batched Picard sweep passes the plan's handles once and every active
  // scenario's temperatures after each other: entry e runs handle e % n.
  // Each output must be that handle's own leakage_power and the Block walk,
  // bit for bit, with one technology, one per scenario (repeated per block)
  // or one per entry, and a foreign and an empty handle in the span.
  const Technology nominal = tech();
  const std::vector<Technology> levels{nominal, device::at_supply(nominal, 0.85 * nominal.vdd)};
  const auto many = manycore_plan();
  const auto rand = random_plan();
  const auto a = CompiledBlockLeakage::compile_all(many.blocks());
  const auto b = CompiledBlockLeakage::compile_all(rand.blocks());
  std::vector<CompiledBlockLeakage> handles(a.begin(), a.end());
  std::vector<const Block*> oracle;
  for (const Block& block : many.blocks()) oracle.push_back(&block);
  handles.push_back(b[2]);
  oracle.push_back(&rand.blocks()[2]);
  handles.push_back(CompiledBlockLeakage());
  oracle.push_back(nullptr);
  const std::size_t n = handles.size();
  Rng rng(73);
  for (const std::size_t tiles : {1, 2, 3, 5}) {
    const std::size_t entries = tiles * n;
    std::vector<double> temps(entries);
    for (double& t : temps) t = rng.uniform(300.0, 410.0);
    // The last scenario repeats the first one's temperatures.
    if (tiles > 1) std::copy_n(temps.begin(), n, temps.end() - static_cast<std::ptrdiff_t>(n));
    std::vector<const Technology*> per_scenario(entries);
    std::vector<const Technology*> per_entry(entries);
    for (std::size_t e = 0; e < entries; ++e) {
      per_scenario[e] = &levels[(e / n) % levels.size()];
      per_entry[e] = &levels[rng.uniform_index(levels.size())];
    }
    const Technology* const shared[] = {&nominal};
    const double vb = tiles % 2 == 0 ? -0.2 : 0.0;
    for (const auto& techs : {std::span<const Technology* const>(shared),
                              std::span<const Technology* const>(per_scenario),
                              std::span<const Technology* const>(per_entry)}) {
      std::vector<double> power(entries);
      CompiledBlockLeakage::leakage_power(handles, techs, temps, vb, power);
      for (std::size_t e = 0; e < entries; ++e) {
        const Technology& t = *techs[techs.size() == 1 ? 0 : e];
        const std::size_t i = e % n;
        EXPECT_EQ(power[e], handles[i].leakage_power(t, temps[e], vb))
            << tiles << " tiles, entry " << e;
        EXPECT_EQ(power[e], oracle[i] ? oracle[i]->leakage_power(t, temps[e], vb) : 0.0)
            << tiles << " tiles, entry " << e;
      }
      if (tiles > 1 && techs.size() == 1) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(power[entries - n + i], power[i]) << "block " << i;
        }
      }
    }
  }
  // Sizes that do not tile the handle span are rejected before any work.
  const Technology* const shared[] = {&nominal};
  std::vector<double> temps(2 * n + 1, 340.0);
  std::vector<double> power(temps.size());
  EXPECT_THROW(CompiledBlockLeakage::leakage_power(handles, shared, temps, 0.0, power),
               PreconditionError);
  temps.resize(2 * n);
  EXPECT_THROW(CompiledBlockLeakage::leakage_power(handles, shared, temps, 0.0, power),
               PreconditionError);  // one output per temperature
  power.resize(2 * n);
  const std::vector<const Technology*> per_handle(n, &nominal);
  EXPECT_THROW(CompiledBlockLeakage::leakage_power(handles, per_handle, temps, 0.0, power),
               PreconditionError);  // one technology per handle, two tiles
  EXPECT_THROW(CompiledBlockLeakage::leakage_power({}, shared, temps, 0.0, power),
               PreconditionError);  // temperatures without handles
  std::vector<double> none;
  CompiledBlockLeakage::leakage_power({}, shared, none, 0.0, none);  // nothing to do
  CompiledBlockLeakage::leakage_power(handles, shared, temps, 0.0, power);
  for (std::size_t e = 0; e < temps.size(); ++e) {
    EXPECT_EQ(power[e], handles[e % n].leakage_power(nominal, 340.0, 0.0)) << "entry " << e;
  }
}

TEST(CompiledLeakage, BatchedEntryEvaluatesForeignHandlesOnTheirOwn) {
  // Handles from two compile_all calls plus a default (empty) handle, in
  // five places (not a multiple of 4): the first non-empty handle's set runs
  // program-major, the others evaluate themselves.
  const auto many = manycore_plan();
  const auto rand = random_plan();
  const auto a = CompiledBlockLeakage::compile_all(many.blocks());
  const auto b = CompiledBlockLeakage::compile_all(rand.blocks());
  const std::vector<CompiledBlockLeakage> mixed{CompiledBlockLeakage(), a[0], b[1], a[3], b[0]};
  const std::vector<const Block*> oracle{nullptr, &many.blocks()[0], &rand.blocks()[1],
                                         &many.blocks()[3], &rand.blocks()[0]};
  const std::vector<double> temps{300.0, 340.0, 355.0, 340.0, 372.5};
  const Technology nominal = tech();
  const Technology* const shared[] = {&nominal};
  std::vector<double> power(mixed.size());
  CompiledBlockLeakage::leakage_power(mixed, shared, temps, -0.1, power);
  EXPECT_EQ(power[0], 0.0);
  for (std::size_t i = 1; i < mixed.size(); ++i) {
    EXPECT_EQ(power[i], oracle[i]->leakage_power(nominal, temps[i], -0.1)) << "handle " << i;
  }
  std::vector<double> too_short(2);
  EXPECT_THROW(CompiledBlockLeakage::leakage_power(mixed, shared, temps, 0.0, too_short),
               PreconditionError);
  const std::vector<const Technology*> two_techs{&nominal, &nominal};
  EXPECT_THROW(CompiledBlockLeakage::leakage_power(mixed, two_techs, temps, 0.0, power),
               PreconditionError);
}

TEST(CompiledLeakage, BatchedEntryHandlesDeepProgramsBitwise) {
  // Programs whose value stack outgrows the per-handle local buffer, run
  // program-major over several blocks at once.
  constexpr int kDeep = 40;
  constexpr double kW = 0.4e-6;
  std::vector<SpNetwork> devices;
  for (int k = 0; k < kDeep; ++k) devices.push_back(SpNetwork::device(0, kW * (1.0 + 0.01 * k)));
  auto chain = std::make_shared<GateTopology>();
  chain->name = "deep_series";
  chain->length = 0.13e-6;
  chain->pull_down = SpNetwork::device(0, kW);
  chain->pull_up = SpNetwork::series(devices);
  auto chains = std::make_shared<GateTopology>(*chain);
  chains->name = "parallel_of_chains";
  chains->pull_up = SpNetwork::parallel({chain->pull_up, chain->pull_up});
  std::vector<Block> plan;
  for (int i = 0; i < 6; ++i) {
    Block block;
    block.name = "deep_" + std::to_string(i);
    block.rect = {0.0, 0.0, 1e-4, 1e-4};
    block.gate_groups.push_back({chain, {true}, 1.0 + i});
    if (i % 2 == 0) block.gate_groups.push_back({chains, {true}, 2.0});
    plan.push_back(block);
  }
  const auto all = CompiledBlockLeakage::compile_all(plan);
  const std::vector<double> temps{290.0, 310.0, 330.0, 350.0, 370.0, 390.0};
  const Technology nominal = tech();
  const Technology* const shared[] = {&nominal};
  std::vector<double> power(all.size());
  CompiledBlockLeakage::leakage_power(all, shared, temps, -0.2, power);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(power[i], plan[i].leakage_power(nominal, temps[i], -0.2)) << plan[i].name;
  }
}

}  // namespace
}  // namespace ptherm::floorplan
