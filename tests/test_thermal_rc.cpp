// Tests for the compact thermal RC and the Fig. 9/10 self-heating
// experiment: Rth formulas, exponential transients, and the extraction
// procedure used by the "measurement".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "thermal/fdm.hpp"
#include "thermal/rc.hpp"

namespace ptherm::thermal {
namespace {

constexpr double kK = 148.0;
constexpr double kCv = 1.631e6;

TEST(DeviceRth, ShrinksWithDeviceArea) {
  const double small = device_r_th(kK, 1e-6, 0.35e-6, 500e-6);
  const double large = device_r_th(kK, 4e-6, 0.35e-6, 500e-6);
  EXPECT_GT(small, large);
  EXPECT_GT(large, 0.0);
}

TEST(DeviceRth, MagnitudeIsThousandsOfKelvinPerWatt) {
  // Micron-scale devices: Rth of order 1e3..1e4 K/W in silicon.
  const double rth = device_r_th(kK, 1e-6, 0.35e-6, 500e-6);
  EXPECT_GT(rth, 1e3);
  EXPECT_LT(rth, 1e5);
}

TEST(DeviceRth, SinkImageOnlyMattersForLargeDevices) {
  // For a tiny device the -P image at 2*t is a negligible correction.
  const double with_image = device_r_th(kK, 1e-6, 0.35e-6, 500e-6);
  const double no_image = rect_center_rise(kK, 1.0, 1e-6, 0.35e-6);
  EXPECT_NEAR(with_image / no_image, 1.0, 0.01);
  EXPECT_LT(with_image, no_image);
}

TEST(DeviceRth, AgreesWithFdmExtraction) {
  // The Fig. 10 comparison in miniature: analytic Rth vs an FDM solve of a
  // small silicon box with isothermal far boundaries. The source must span
  // several grid cells or the discrete peak under-reports; 8 x 4 um on a
  // 1 um grid does.
  const double w = 8e-6, l = 4e-6, p = 1e-3;
  Die box;
  box.width = 48e-6;
  box.height = 48e-6;
  box.thickness = 48e-6;
  box.k_si = kK;
  FdmOptions opts;
  opts.nx = 48;
  opts.ny = 48;
  opts.nz = 32;
  opts.lateral = LateralBoundary::Isothermal;
  FdmThermalSolver solver(box, opts);
  const std::vector<HeatSource> src = {{24e-6, 24e-6, w, l, p}};
  const auto sol = solver.solve_steady(src);
  ASSERT_TRUE(sol.converged);
  // Cell-centred FDM reports the first-layer average at z = dz/2; compare
  // against the analytic buried-potential form at exactly that depth (plus
  // the sink-plane image term device_r_th uses), which removes the surface-
  // extrapolation bias entirely.
  double sum = 0.0;
  for (int j = 23; j <= 24; ++j) {
    for (int i = 23; i <= 24; ++i) sum += sol.rise[solver.cell_index(i, j, 0)];
  }
  const double rth_fdm = (sum / 4.0) / p;
  const double dz_half = 0.5 * box.thickness / opts.nz;
  const HeatSource unit{0.0, 0.0, w, l, 1.0};
  const double rth_model =
      rect_rise_exact_at_depth(kK, unit, 0.0, 0.0, dz_half) -
      point_source_rise(kK, 1.0, box.thickness) * std::log(2.0);
  EXPECT_NEAR(rth_model / rth_fdm, 1.0, 0.08);
}

TEST(DeviceCth, ScalesWithVolumeFraction) {
  const double c1 = device_c_th(kCv, 500e-6, 0.5);
  const double c2 = device_c_th(kCv, 500e-6, 1.0);
  EXPECT_NEAR(c2 / c1, 8.0, 1e-9);  // r^3
}

TEST(DeviceRc, DefaultTimeConstantSuitsTheChopper) {
  // Fig. 9 shows near-saturating exponentials within a 3 Hz half-period
  // (167 ms): tau must sit well inside it.
  const auto rc = device_thermal_rc(kK, kCv, 2e-6, 0.35e-6, 500e-6);
  EXPECT_GT(rc.tau(), 5e-3);
  EXPECT_LT(rc.tau(), 100e-3);
}

SelfHeatingConfig config(double t_ambient_c = 30.0) {
  SelfHeatingConfig cfg;
  cfg.rc = device_thermal_rc(kK, kCv, 2e-6, 0.35e-6, 500e-6);
  cfg.t_ambient = celsius(t_ambient_c);
  cfg.v_drain = 3.3;
  cfg.i_on_ref = 3e-3;
  cfg.tc_current = 2e-3;
  cfg.f_chop = 3.0;
  cfg.t_stop = 1.0;
  cfg.dt = 5e-5;
  return cfg;
}

TEST(SelfHeating, TraceHeatsDuringOnPhaseCoolsDuringOff) {
  const auto cfg = config();
  const auto trace = run_self_heating(cfg);
  ASSERT_GT(trace.time.size(), 100u);
  // First ON phase: temperature rises monotonically.
  for (std::size_t i = 1; i < trace.time.size() && trace.time[i] < 0.5 / cfg.f_chop; ++i) {
    EXPECT_GE(trace.temp[i], trace.temp[i - 1] - 1e-9);
  }
  // Somewhere in the first OFF phase the device must cool.
  bool cooled = false;
  for (std::size_t i = 1; i < trace.time.size(); ++i) {
    if (trace.current[i] == 0.0 && trace.temp[i] < trace.temp[i - 1]) cooled = true;
  }
  EXPECT_TRUE(cooled);
}

TEST(SelfHeating, CurrentDropsAsDeviceHeats) {
  // The measured signal of Fig. 9: drain current decreases with temperature.
  const auto trace = run_self_heating(config());
  double i_first = 0.0, i_later = 0.0;
  for (std::size_t i = 0; i < trace.time.size(); ++i) {
    if (trace.current[i] > 0.0) {
      if (i_first == 0.0) i_first = trace.current[i];
      i_later = trace.current[i];
    }
  }
  EXPECT_LT(i_later, i_first);
  EXPECT_GT(i_later, 0.0);
}

TEST(SelfHeating, SenseVoltageIsCurrentTimesResistor) {
  const auto cfg = config();
  const auto trace = run_self_heating(cfg);
  for (std::size_t i = 0; i < trace.time.size(); i += 1000) {
    EXPECT_DOUBLE_EQ(trace.v_sense[i], trace.current[i] * cfg.r_sense);
  }
}

TEST(SelfHeating, AmbientShiftMovesWholeTrace) {
  // Fig. 9 shows the same exponential at 30/35/40 C, offset by ambient.
  const auto t30 = run_self_heating(config(30.0));
  const auto t40 = run_self_heating(config(40.0));
  const double rise30 = t30.max_rise(celsius(30.0));
  const double rise40 = t40.max_rise(celsius(40.0));
  // Nearly equal steady rises (the weak tc feedback shifts it slightly).
  EXPECT_NEAR(rise40 / rise30, 1.0, 0.05);
  // Absolute temperatures offset by ~10 K.
  const double peak30 = *std::max_element(t30.temp.begin(), t30.temp.end());
  const double peak40 = *std::max_element(t40.temp.begin(), t40.temp.end());
  EXPECT_NEAR(peak40 - peak30, 10.0, 1.0);
}

TEST(SelfHeating, SteadyRiseMatchesRthTimesPower) {
  // With feedback the fixed point is dT = Rth*P(T); verify to 2% using an
  // uninterrupted ON phase (chopping never quite reaches the plateau).
  auto cfg = config();
  cfg.f_chop = 0.05;  // 10 s half-period: always ON within the window
  cfg.t_stop = 2.0;   // many tau for full saturation
  const auto trace = run_self_heating(cfg);
  const double rise = trace.max_rise(cfg.t_ambient);
  const double p_hot = cfg.v_drain * cfg.i_on_ref * (1.0 - cfg.tc_current * rise);
  EXPECT_NEAR(rise, cfg.rc.r_th * p_hot, 0.02 * rise);
}

TEST(SelfHeating, ExtractedRthMatchesConfiguredRth) {
  // The measurement procedure itself: Rth = dT/P recovered from the trace.
  auto cfg = config();
  cfg.f_chop = 0.05;
  cfg.t_stop = 2.0;
  const auto trace = run_self_heating(cfg);
  const double rth = extract_r_th(cfg, trace);
  EXPECT_NEAR(rth / cfg.rc.r_th, 1.0, 0.03);
}

TEST(SelfHeating, TimeConstantGovernsTheRise) {
  // At t = tau the rise must be ~63% of its final value (weak feedback
  // perturbs this by a few percent at most). Use an uninterrupted ON phase.
  auto cfg = config();
  cfg.f_chop = 0.05;  // 10 s half-period: effectively always ON in [0, 2 s]
  cfg.t_stop = 2.0;
  const auto trace = run_self_heating(cfg);
  const double tau = cfg.rc.tau();
  ASSERT_LT(tau, 1.0);
  const double final_rise = trace.max_rise(cfg.t_ambient);
  double rise_at_tau = 0.0;
  for (std::size_t i = 0; i < trace.time.size(); ++i) {
    if (trace.time[i] >= tau) {
      rise_at_tau = trace.temp[i] - cfg.t_ambient;
      break;
    }
  }
  EXPECT_NEAR(rise_at_tau / final_rise, 1.0 - std::exp(-1.0), 0.05);
}

TEST(SelfHeating, TraceIsPinnedBitwise) {
  // Golden samples of the default chopped trace, captured as hexfloats: the
  // first sample, both sides of the first ON -> OFF edge, the last ON sample
  // and the last sample. Any change to the integrator's arithmetic or step
  // grid shows up here as a bitwise mismatch.
  const auto trace = run_self_heating(config());
  ASSERT_EQ(trace.time.size(), 20001u);
  struct Sample {
    std::size_t i;
    double temp, current;
  };
  const Sample golden[] = {
      {0, 0x1.2f26666666666p+8, 0x1.89374bc6a7efap-9},
      {3333, 0x1.50bc380c1e08p+8, 0x1.6ecdb230f2c5fp-9},
      {3334, 0x1.50b3d804f57fcp+8, 0.0},
      {16666, 0x1.50bec874cddaap+8, 0x1.6ecbadf85ffb2p-9},
      {20000, 0x1.2fd29d7ccb49dp+8, 0.0},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(trace.temp[g.i], g.temp) << "sample " << g.i;
    EXPECT_EQ(trace.current[g.i], g.current) << "sample " << g.i;
  }
  EXPECT_EQ(trace.time.back(), 0x1.ffffffffffc6ap-1);
}

TEST(SelfHeating, RejectsBadConfig) {
  SelfHeatingConfig cfg;  // rc unset
  EXPECT_THROW(run_self_heating(cfg), PreconditionError);
  cfg.rc = {1000.0, 1e-6};
  cfg.dt = 0.0;
  EXPECT_THROW(run_self_heating(cfg), PreconditionError);
}

// ------------------------------------------------- package Cauer network

TEST(PackageRc, StageValidationRejectsNonPositiveParameters) {
  EXPECT_THROW(validate(ThermalRc{0.0, 1.0}), PreconditionError);
  EXPECT_THROW(validate(ThermalRc{1.0, 0.0}), PreconditionError);
  EXPECT_THROW(validate(ThermalRc{-0.5, 1.0}), PreconditionError);
  EXPECT_NO_THROW(validate(ThermalRc{0.4, 0.1}));
  // The network constructor validates every stage through the same gate.
  EXPECT_THROW(PackageRcNetwork({{0.3, 0.02}, {0.5, -1.0}}), PreconditionError);
  EXPECT_THROW(PackageRcNetwork({}), PreconditionError);
}

TEST(PackageRc, TotalResistanceSumsTheLadder) {
  const PackageRcNetwork net({{0.3, 0.02}, {0.5, 2.0}, {0.1, 5.0}});
  EXPECT_DOUBLE_EQ(net.total_resistance(), 0.3 + 0.5 + 0.1);
  EXPECT_DOUBLE_EQ(net.steady_case_rise(12.5), (0.3 + 0.5 + 0.1) * 12.5);
}

TEST(PackageRc, SingleStageMatchesTheScalarExponential) {
  const double r = 0.8, c = 1.5, p = 20.0;
  const PackageRcNetwork net({{r, c}});
  auto state = net.make_state();
  const double dt = 0.05;
  double t = 0.0;
  for (int s = 0; s < 200; ++s) {
    const double got = net.advance(state, dt, p);
    t += dt;
    const double want = r * p * (1.0 - std::exp(-t / (r * c)));
    ASSERT_NEAR(got, want, 1e-12 * r * p) << "t = " << t;
  }
}

TEST(PackageRc, TwoStageStepResponseMatchesClosedForm) {
  // Case node (C1) -R1- sink node (C2) -R2- ambient under constant power P:
  //   C1 th0' = P - (th0 - th1) / R1
  //   C2 th1' = (th0 - th1) / R1 - th1 / R2
  // Solved in closed form via the 2 x 2 eigendecomposition here and compared
  // against advance() at every sampled instant — the exactness contract, not
  // an ODE-convergence bound.
  const double r1 = 0.25, c1 = 0.04, r2 = 0.6, c2 = 3.0, p = 15.0;
  const PackageRcNetwork net({{r1, c1}, {r2, c2}});

  // w = theta_inf - theta obeys w' = -A w from w(0) = theta_inf.
  const double a00 = 1.0 / (r1 * c1);
  const double a01 = -1.0 / (r1 * c1);
  const double a10 = -1.0 / (r1 * c2);
  const double a11 = (1.0 / r1 + 1.0 / r2) / c2;
  const double tr = a00 + a11;
  const double det = a00 * a11 - a01 * a10;
  const double disc = std::sqrt(tr * tr - 4.0 * det);
  const double lam_fast = 0.5 * (tr + disc);
  const double lam_slow = 0.5 * (tr - disc);
  // Eigenvector for lambda: (a01, lambda - a00).
  const double vf0 = a01, vf1 = lam_fast - a00;
  const double vs0 = a01, vs1 = lam_slow - a00;
  const double w0_case = (r1 + r2) * p;
  const double w0_sink = r2 * p;
  // Solve [vf vs] (af, as)^T = w(0).
  const double den = vf0 * vs1 - vs0 * vf1;
  const double af = (w0_case * vs1 - vs0 * w0_sink) / den;
  const double as = (vf0 * w0_sink - w0_case * vf1) / den;

  auto state = net.make_state();
  const double dt = 2e-3;
  double t = 0.0;
  for (int s = 0; s < 2000; ++s) {
    const double got = net.advance(state, dt, p);
    t += dt;
    const double want = w0_case - af * vf0 * std::exp(-lam_fast * t) -
                        as * vs0 * std::exp(-lam_slow * t);
    ASSERT_NEAR(got, want, 1e-9 * w0_case) << "t = " << t;
  }
}

TEST(PackageRc, OneStepEqualsManySubstepsToRounding) {
  // The exact-exponential contract: accuracy does not depend on the step.
  const PackageRcNetwork net({{0.3, 0.02}, {0.5, 2.0}});
  const double p = 30.0, h = 0.8;
  auto one = net.make_state();
  const double big = net.advance(one, h, p);
  auto many = net.make_state();
  double small = 0.0;
  for (int s = 0; s < 64; ++s) small = net.advance(many, h / 64.0, p);
  EXPECT_NEAR(big, small, 1e-12 * std::abs(big));
}

TEST(PackageRc, ConvergesToTheSteadyCaseRise) {
  const PackageRcNetwork net({{0.3, 0.02}, {0.5, 2.0}});
  const double p = 18.0;
  auto state = net.make_state();
  // Slowest time constant is of order R_total * C_total ~ 1.6 s; 60 s is
  // dozens of taus.
  const double rise = net.advance(state, 60.0, p);
  EXPECT_NEAR(rise, net.steady_case_rise(p), 1e-9 * net.steady_case_rise(p));
  EXPECT_DOUBLE_EQ(state.case_rise, rise);
}

TEST(PackageRc, ZeroPowerRelaxesBackToAmbient) {
  const PackageRcNetwork net({{0.4, 0.05}, {0.7, 1.0}});
  auto state = net.make_state();
  net.advance(state, 10.0, 25.0);           // charge
  const double relaxed = net.advance(state, 60.0, 0.0);  // discharge
  EXPECT_NEAR(relaxed, 0.0, 1e-9);
}

}  // namespace
}  // namespace ptherm::thermal
