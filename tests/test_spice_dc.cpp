// Tests for the MNA DC solver — linear sanity, nonlinear gates, and the
// agreement with the dedicated exact stack solver that underpins Fig. 8.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "device/mosfet.hpp"
#include "leakage/exact_stack.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"

namespace ptherm::spice {
namespace {

using device::MosModel;
using device::MosType;
using device::Technology;

TEST(DcLinear, VoltageDivider) {
  Circuit ckt;
  const auto vin = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("V1", vin, Circuit::ground(), 10.0);
  ckt.add_resistor("R1", vin, mid, 1000.0);
  ckt.add_resistor("R2", mid, Circuit::ground(), 3000.0);
  const auto sol = solve_dc(ckt);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.voltage(mid), 7.5, 1e-9);
  // Source current: 10 V over 4 kOhm, flowing out of the + terminal through
  // the external circuit, i.e. -2.5 mA through the source by convention.
  EXPECT_NEAR(sol.vsource_currents.at("V1"), -2.5e-3, 1e-9);
}

TEST(DcLinear, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add_isource("I1", Circuit::ground(), n, 1e-3);
  ckt.add_resistor("R1", n, Circuit::ground(), 2000.0);
  const auto sol = solve_dc(ckt);
  EXPECT_NEAR(sol.voltage(n), 2.0, 1e-9);
}

TEST(DcLinear, TwoSourcesSuperpose) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_vsource("Va", a, Circuit::ground(), 5.0);
  ckt.add_vsource("Vb", b, Circuit::ground(), 3.0);
  ckt.add_resistor("R", a, b, 100.0);
  const auto sol = solve_dc(ckt);
  EXPECT_NEAR(sol.device_currents.at("R"), 0.02, 1e-9);
}

TEST(DcLinear, FloatingNodeHandledByGmin) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");  // b floats behind a resistor
  ckt.add_vsource("V", a, Circuit::ground(), 2.0);
  ckt.add_resistor("R", a, b, 1000.0);
  const auto sol = solve_dc(ckt);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.voltage(b), 2.0, 1e-5);  // pulled to a through R by gmin
}

TEST(DcLinear, DuplicateElementNameThrows) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R", a, Circuit::ground(), 1.0);
  EXPECT_THROW(ckt.add_resistor("R", a, Circuit::ground(), 2.0), PreconditionError);
}

class InverterTest : public ::testing::Test {
 protected:
  Technology tech_ = Technology::cmos012();

  Circuit make_inverter(double vin) {
    Circuit ckt;
    const auto vdd = ckt.node("vdd");
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::ground(), tech_.vdd);
    ckt.add_vsource("VIN", in, Circuit::ground(), vin);
    ckt.add_mosfet("MN", out, in, Circuit::ground(), Circuit::ground(),
                   MosModel(tech_, MosType::Nmos, 0.32e-6, tech_.l_drawn));
    ckt.add_mosfet("MP", out, in, vdd, vdd,
                   MosModel(tech_, MosType::Pmos, 0.8e-6, tech_.l_drawn));
    return ckt;
  }
};

TEST_F(InverterTest, OutputsFollowLogic) {
  {
    auto ckt = make_inverter(0.0);
    const auto sol = solve_dc(ckt);
    EXPECT_GT(sol.voltage(ckt.node("out")), 0.95 * tech_.vdd);
  }
  {
    auto ckt = make_inverter(tech_.vdd);
    const auto sol = solve_dc(ckt);
    EXPECT_LT(sol.voltage(ckt.node("out")), 0.05 * tech_.vdd);
  }
}

TEST_F(InverterTest, TransferCurveIsMonotoneDecreasing) {
  auto ckt = make_inverter(0.0);
  std::vector<double> vins;
  for (double v = 0.0; v <= tech_.vdd + 1e-9; v += 0.1) vins.push_back(v);
  const auto sols = dc_sweep(ckt, "VIN", vins);
  const auto out = ckt.node("out");
  double prev = 1e9;
  for (const auto& sol : sols) {
    const double vout = sol.voltage(out);
    EXPECT_LE(vout, prev + 1e-6);
    prev = vout;
  }
}

TEST_F(InverterTest, SweepPointsMatchColdStandaloneSolves) {
  // Every point after the first starts from the previous one and may end
  // on the warm gmin = 0 Newton alone: it must land on the cold solve's
  // operating point all the same.
  auto ckt = make_inverter(0.0);
  std::vector<double> vins;
  for (double v = 0.0; v <= tech_.vdd + 1e-9; v += 0.1) vins.push_back(v);
  const auto sols = dc_sweep(ckt, "VIN", vins);
  ASSERT_EQ(sols.size(), vins.size());
  EXPECT_EQ(sols[0].report.path, "gmin");
  int warm_only = 0;
  for (std::size_t k = 0; k < vins.size(); ++k) {
    const auto cold = solve_dc(make_inverter(vins[k]));
    ASSERT_EQ(sols[k].node_voltages.size(), cold.node_voltages.size());
    for (std::size_t n = 0; n < cold.node_voltages.size(); ++n) {
      EXPECT_NEAR(sols[k].node_voltages[n], cold.node_voltages[n], 1e-9)
          << "VIN = " << vins[k] << ", node " << n << ", path " << sols[k].report.path;
    }
    if (k > 0) {
      EXPECT_EQ(sols[k].report.path.rfind("warm", 0), 0u) << "point " << k;
      if (sols[k].report.path == "warm") ++warm_only;
    }
  }
  EXPECT_GT(warm_only, 0);  // the warm attempt carried at least some points
}

TEST_F(InverterTest, LeakageWithInputLowMatchesOffCurrent) {
  // Input low: nMOS blocks; supply current = nMOS OFF current (pMOS is ON
  // and drops ~nothing).
  auto ckt = make_inverter(0.0);
  const auto sol = solve_dc(ckt);
  const double i_vdd = -sol.vsource_currents.at("VDD");  // current delivered
  const double expected =
      device::off_current(tech_, MosType::Nmos, 0.32e-6, tech_.l_drawn, 300.0);
  EXPECT_NEAR(i_vdd, expected, 0.02 * expected);
}

TEST(DcStack, TwoStackMatchesExactSolver) {
  // Full MNA solve of a 2-high OFF nMOS stack must agree with the dedicated
  // nested-Brent solver to numerical accuracy (same device equations).
  const Technology tech = Technology::cmos012();
  const double w = 0.5e-6;
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), tech.vdd);
  ckt.add_mosfet("M1", mid, Circuit::ground(), Circuit::ground(), Circuit::ground(),
                 MosModel(tech, MosType::Nmos, w, tech.l_drawn));
  ckt.add_mosfet("M2", vdd, Circuit::ground(), mid, Circuit::ground(),
                 MosModel(tech, MosType::Nmos, w, tech.l_drawn));
  const auto sol = solve_dc(ckt);

  const double widths[] = {w, w};
  const auto exact = leakage::solve_exact_chain(tech, MosType::Nmos, widths, tech.l_drawn,
                                                300.0);
  EXPECT_NEAR(sol.voltage(mid), exact.node_voltages[0], 5e-5);
  const double i_mna = -sol.vsource_currents.at("VDD");
  EXPECT_NEAR(i_mna, exact.current, 0.01 * exact.current);
}

TEST(DcStack, ThreeStackNodeOrderingIsMonotone) {
  const Technology tech = Technology::cmos012();
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto n1 = ckt.node("n1");
  const auto n2 = ckt.node("n2");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), tech.vdd);
  const MosModel m(tech, MosType::Nmos, 0.5e-6, tech.l_drawn);
  ckt.add_mosfet("M1", n1, Circuit::ground(), Circuit::ground(), Circuit::ground(), m);
  ckt.add_mosfet("M2", n2, Circuit::ground(), n1, Circuit::ground(), m);
  ckt.add_mosfet("M3", vdd, Circuit::ground(), n2, Circuit::ground(), m);
  const auto sol = solve_dc(ckt);
  EXPECT_GT(sol.voltage(n1), 0.0);
  EXPECT_GT(sol.voltage(n2), sol.voltage(n1));
  EXPECT_LT(sol.voltage(n2), tech.vdd);
}

TEST(DcApi, EmptyCircuitThrows) {
  Circuit ckt;
  EXPECT_THROW(solve_dc(ckt), PreconditionError);
}

TEST(DcApi, SetVsourceValueOnUnknownNameThrows) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_vsource("V", a, Circuit::ground(), 1.0);
  EXPECT_THROW(ckt.set_vsource_value("X", 2.0), PreconditionError);
}

}  // namespace
}  // namespace ptherm::spice
