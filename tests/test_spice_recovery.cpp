// Fault-injection tests for the DC convergence-recovery ladder: pathological
// circuits where each escalation stage (gmin continuation, source-stepping
// homotopy, temperature continuation) rescues a solve the previous stages
// cannot, plus the SolveReport audit trail (worst-KCL node by name) and the
// dc_sweep cold-restart path. Iteration budgets are deliberately tight —
// every fixture was tuned so the naive solver genuinely fails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "device/mosfet.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/newton_core.hpp"

namespace ptherm::spice {
namespace {

using device::MosModel;
using device::MosType;
using device::Technology;

Technology tech() { return Technology::cmos012(); }

/// N-high stacked OFF NMOS chain. At elevated temperature the subthreshold
/// exponentials are strong and every intermediate node sits on a balance of
/// two of them; with a tight iteration budget the plain Newton fails.
Circuit make_stack(int n, double temp_hint_unused = 0.0) {
  (void)temp_hint_unused;
  Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  NodeId below = Circuit::ground();
  for (int i = 0; i < n; ++i) {
    const NodeId above = (i == n - 1) ? vdd : ckt.node("n" + std::to_string(i + 1));
    ckt.add_mosfet("M" + std::to_string(i + 1), above, Circuit::ground(), below,
                   Circuit::ground(), MosModel(t, MosType::Nmos, 0.5e-6, t.l_drawn));
    below = above;
  }
  return ckt;
}

/// Cross-coupled inverter latch: bistable, with a metastable point at
/// q == qb that the zero initial guess sits right on top of.
Circuit make_latch() {
  Circuit ckt;
  const Technology t = tech();
  const double wn = 0.32e-6;
  const auto vdd = ckt.node("vdd");
  const auto q = ckt.node("q");
  const auto qb = ckt.node("qb");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_mosfet("MN1", q, qb, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP1", q, qb, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  ckt.add_mosfet("MN2", qb, q, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP2", qb, q, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  return ckt;
}

/// Forced current into an OFF device's drain, gate driven separately. With
/// the gate low the drain must climb deep into the DIBL region to absorb the
/// current — hostile territory for Newton without strong gmin support.
Circuit make_forced_current() {
  Circuit ckt;
  const Technology t = tech();
  const auto drain = ckt.node("drain");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VG", gate, Circuit::ground(), 0.0);
  ckt.add_isource("IFORCE", Circuit::ground(), drain, 1e-3);
  ckt.add_mosfet("MOFF", drain, gate, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, 1e-6, t.l_drawn));
  return ckt;
}

DcOptions naive(DcOptions o) {
  o.recovery.source_stepping = false;
  o.recovery.temp_stepping = false;
  return o;
}

// ---------------------------------------------------------------------------
// Stage 1: the gmin ladder itself is a rescue relative to a single weak rung.

TEST(RecoveryLadder, GminLadderRescuesHotStack) {
  DcOptions opts;
  opts.temp = 500.0;
  opts.max_iterations = 6;

  auto ckt = make_stack(4);
  const auto sol = solve_dc(ckt, naive(opts));
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.report.path, "gmin");

  // The same circuit and budget without the ladder (one weak rung only).
  DcOptions single = naive(opts);
  single.gmin_steps = {1e-12};
  auto ckt2 = make_stack(4);
  EXPECT_THROW((void)solve_dc(ckt2, single), ConvergenceFailure);
}

// ---------------------------------------------------------------------------
// Stage 2: source stepping rescues the latch once the budget starves the
// plain ladder.

TEST(RecoveryLadder, SourceSteppingRescuesLatch) {
  DcOptions opts;
  opts.max_iterations = 6;

  auto ckt = make_latch();
  try {
    (void)solve_dc(ckt, naive(opts));
    FAIL() << "naive Newton unexpectedly converged on the latch at this budget";
  } catch (const ConvergenceFailure& e) {
    EXPECT_EQ(e.report().path, "gmin");
    EXPECT_FALSE(e.report().worst_node.empty());
    // The structured context rides on the base ConvergenceError too.
    ASSERT_TRUE(e.diagnostics().has_value());
    EXPECT_EQ(e.diagnostics()->solver, "solve_dc");
  }

  auto ckt2 = make_latch();
  const auto sol = solve_dc(ckt2, opts);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.report.path, "gmin,source");
  EXPECT_GT(sol.report.homotopy_steps, 0);
  // The symmetric source ramp preserves the latch's symmetry, so the
  // homotopy tracks the metastable balance point — a legitimate DC operating
  // point (the one a .op finds), inside the rails.
  const double q = sol.voltage(ckt2.node("q"));
  const double qb = sol.voltage(ckt2.node("qb"));
  EXPECT_NEAR(q, qb, 1e-6);
  EXPECT_GT(q, 0.0);
  EXPECT_LT(q, tech().vdd);
}

// ---------------------------------------------------------------------------
// Stage 3: temperature continuation rescues the hot stack when source
// stepping is unavailable — solve cold (weak exponentials), ramp the device
// temperatures to the 500 K target at the gmin the cold ladder held.

TEST(RecoveryLadder, TempContinuationRescuesHotStack) {
  DcOptions opts;
  opts.temp = 500.0;
  opts.max_iterations = 5;
  opts.recovery.source_stepping = false;
  opts.recovery.temp_cold = 200.0;
  opts.recovery.temp_steps = 15;

  DcOptions no_temp = opts;
  no_temp.recovery.temp_stepping = false;
  auto ckt = make_stack(4);
  EXPECT_THROW((void)solve_dc(ckt, no_temp), ConvergenceFailure);

  auto ckt2 = make_stack(4);
  const auto sol = solve_dc(ckt2, opts);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.report.path, "gmin,temp");
  EXPECT_GT(sol.report.homotopy_steps, 0);
  // The final assembly ran at the target temperature, not the cold start.
  EXPECT_DOUBLE_EQ(sol.report.device_temperatures.at("M1"), 500.0);
}

// ---------------------------------------------------------------------------
// Circuits the plain ladder handles see the plain path — the recovery layer
// is arithmetic-transparent unless stage 1 fails.

TEST(RecoveryLadder, CleanCircuitTakesPlainGminPath) {
  Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_vsource("VIN", in, Circuit::ground(), 0.0);
  ckt.add_mosfet("MN", out, in, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
  ckt.add_mosfet("MP", out, in, vdd, vdd, MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
  const auto sol = solve_dc(ckt);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.report.path, "gmin");
  EXPECT_EQ(sol.report.homotopy_steps, 0);
  EXPECT_FALSE(sol.report.cold_restart);
  EXPECT_FALSE(sol.report.summary().empty());
}

// ---------------------------------------------------------------------------
// Total failure surfaces the full audit: every stage listed in the path, the
// actually-worst node named, and the structured diagnostics populated.

TEST(SolveReportAudit, TotalFailureNamesWorstNode) {
  DcOptions opts;
  opts.gmin_steps = {1e-9, 1e-12};  // too weak to hold the forced node

  auto ckt = make_forced_current();
  try {
    (void)solve_dc(ckt, opts);
    FAIL() << "forced-current circuit unexpectedly converged";
  } catch (const ConvergenceFailure& e) {
    EXPECT_EQ(e.report().path, "gmin,source,temp");
    EXPECT_FALSE(e.report().converged);
    // The 1 mA forced into the drain is the KCL violation: the audit must
    // name the drain node, not some incidental neighbour.
    EXPECT_EQ(e.report().worst_node, "drain");
    EXPECT_GT(std::abs(e.report().worst_residual), 1e-5);
    EXPECT_TRUE(e.report().device_temperatures.contains("MOFF"));
    ASSERT_TRUE(e.diagnostics().has_value());
    EXPECT_EQ(e.diagnostics()->worst, "node drain");
    EXPECT_NE(std::string(e.what()).find("drain"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Warm starts: one Newton at gmin = 0 first, the unchanged ladder from the
// same warm vector when it fails.

TEST(WarmStart, ConvergedWarmStartSkipsTheLadder) {
  auto ckt = make_stack(3);
  const DcOptions opts;
  detail::NewtonCore core(ckt, opts);
  const auto cold = detail::solve_dc_core(ckt, core, opts, nullptr);
  const auto warm_vec = detail::pack_unknowns(ckt, core, cold);
  const auto warm = detail::solve_dc_core(ckt, core, opts, &warm_vec);
  EXPECT_EQ(warm.report.path, "warm");
  ASSERT_EQ(warm.report.rungs.size(), 1u);
  EXPECT_EQ(warm.report.rungs[0].stage, "warm");
  EXPECT_EQ(warm.report.rungs[0].value, 0.0);
  EXPECT_TRUE(warm.report.rungs[0].converged);
  EXPECT_LE(warm.iterations, kWarmNewtonIterations);
  EXPECT_EQ(warm.report.homotopy_steps, 0);
  EXPECT_FALSE(warm.report.worst_node.empty());  // the exit audit still ran
  for (std::size_t n = 0; n < cold.node_voltages.size(); ++n) {
    EXPECT_NEAR(warm.node_voltages[n], cold.node_voltages[n], 1e-9) << "node " << n;
  }
}

TEST(WarmStart, NodeWithoutADcPathFallsBackToTheLadder) {
  // `f` hangs off `a` through a capacitor only: at gmin = 0 its KCL row is
  // empty, the warm Newton's Jacobian singular, so the ladder must take over
  // from the warm vector and land where the cold solve does.
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto f = ckt.node("f");
  ckt.add_vsource("V", a, Circuit::ground(), 1.0);
  ckt.add_resistor("R", a, Circuit::ground(), 1000.0);
  ckt.add_capacitor("C", a, f, 1e-12);
  const DcOptions opts;
  detail::NewtonCore core(ckt, opts);
  const auto cold = detail::solve_dc_core(ckt, core, opts, nullptr);
  auto warm_vec = detail::pack_unknowns(ckt, core, cold);
  warm_vec[static_cast<std::size_t>(f - 1)] = 0.5;  // a stale value on the floating node
  const auto warm = detail::solve_dc_core(ckt, core, opts, &warm_vec);
  EXPECT_EQ(warm.report.path, "warm,gmin");
  ASSERT_FALSE(warm.report.rungs.empty());
  EXPECT_EQ(warm.report.rungs.front().stage, "warm");
  EXPECT_FALSE(warm.report.rungs.front().converged);
  EXPECT_EQ(warm.report.rungs.back().stage, "polish");
  for (std::size_t n = 0; n < cold.node_voltages.size(); ++n) {
    EXPECT_NEAR(warm.node_voltages[n], cold.node_voltages[n], 1e-9) << "node " << n;
  }
}

TEST(WarmStart, PoisonedWarmStartFallsBackToTheLadder) {
  // All nodes at +v_limit: the capped warm Newton cannot walk back at
  // max_step per iteration, and the default-budget ladder from the same
  // vector must reach the cold solution.
  DcOptions opts;
  opts.temp = 500.0;
  auto ckt = make_stack(4);
  detail::NewtonCore core(ckt, opts);
  const std::vector<double> poisoned(static_cast<std::size_t>(core.size()), opts.v_limit);
  const auto warm = detail::solve_dc_core(ckt, core, opts, &poisoned);
  EXPECT_EQ(warm.report.path, "warm,gmin");
  EXPECT_EQ(warm.report.rungs.front().stage, "warm");
  EXPECT_EQ(warm.report.rungs.front().iterations, kWarmNewtonIterations);
  EXPECT_FALSE(warm.report.rungs.front().converged);
  const auto cold = solve_dc(ckt, opts);
  for (std::size_t n = 0; n < cold.node_voltages.size(); ++n) {
    EXPECT_NEAR(warm.node_voltages[n], cold.node_voltages[n], 1e-9) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// dc_sweep: cold-restart retry and sweep-value naming.

TEST(DcSweep, PoisonedWarmStartRescuedByColdRestart) {
  // The hazard the sweep retry guards against, exercised at the seam: a warm
  // start stranded far from the solution (all nodes at +v_limit) starves the
  // tight budget, while the identical cold solve converges.
  DcOptions opts = naive({});
  opts.temp = 500.0;
  opts.max_iterations = 6;

  auto ckt = make_stack(4);
  detail::NewtonCore core(ckt, opts);
  const std::vector<double> poisoned(static_cast<std::size_t>(core.size()), 10.0);
  EXPECT_THROW((void)detail::solve_dc_core(ckt, core, opts, &poisoned), ConvergenceFailure);
  const auto sol = detail::solve_dc_core(ckt, core, opts, nullptr);
  EXPECT_TRUE(sol.converged);
}

TEST(DcSweep, MidSweepFailureNamesPointAndValue) {
  DcOptions opts;
  opts.gmin_steps = {1e-9, 1e-12};

  auto ckt = make_forced_current();
  try {
    (void)dc_sweep(ckt, "VG", {0.8, 0.4}, opts);
    FAIL() << "sweep unexpectedly completed";
  } catch (const ConvergenceFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("point 1"), std::string::npos) << what;
    EXPECT_NE(what.find("VG = 0.4"), std::string::npos) << what;
    EXPECT_NE(what.find("cold restart"), std::string::npos) << what;
    EXPECT_EQ(e.report().worst_node, "drain");
  }
}

TEST(DcSweep, CleanSweepIsDeterministicAndNeverRetries) {
  const std::vector<double> values = {0.0, 0.3, 0.6, 0.9, 1.2};
  const auto run = [&] {
    Circuit ckt;
    const Technology t = tech();
    const auto vdd = ckt.node("vdd");
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
    ckt.add_vsource("VIN", in, Circuit::ground(), 0.0);
    ckt.add_mosfet("MN", out, in, Circuit::ground(), Circuit::ground(),
                   MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
    ckt.add_mosfet("MP", out, in, vdd, vdd, MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
    return dc_sweep(ckt, "VIN", values, {});
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), values.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_TRUE(a[k].converged);
    EXPECT_FALSE(a[k].report.cold_restart) << "point " << k;
    ASSERT_EQ(a[k].node_voltages.size(), b[k].node_voltages.size());
    for (std::size_t n = 0; n < a[k].node_voltages.size(); ++n) {
      EXPECT_EQ(a[k].node_voltages[n], b[k].node_voltages[n])
          << "point " << k << " node " << n;
    }
  }

  // The first sweep point has no warm start: it must be bitwise identical to
  // a standalone solve of the same circuit.
  Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_vsource("VIN", in, Circuit::ground(), values[0]);
  ckt.add_mosfet("MN", out, in, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
  ckt.add_mosfet("MP", out, in, vdd, vdd, MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
  const auto standalone = solve_dc(ckt);
  for (std::size_t n = 0; n < standalone.node_voltages.size(); ++n) {
    EXPECT_EQ(a[0].node_voltages[n], standalone.node_voltages[n]) << "node " << n;
  }
}

}  // namespace
}  // namespace ptherm::spice
