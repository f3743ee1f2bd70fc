// Tests for the chip-level analytic model: superposition (Eq. 21) and the
// method-of-images boundary conditions of §3.3 (Figs. 6 and 7).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "thermal/images.hpp"

namespace ptherm::thermal {
namespace {

Die die_1mm() {
  Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 300.0;
  return d;
}

HeatSource center_block(double power = 0.5) {
  return {0.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, power};
}

TEST(ChipModel, TemperatureIsSinkPlusRise) {
  ChipThermalModel m(die_1mm(), {center_block()});
  const double x = 0.3e-3, y = 0.7e-3;
  EXPECT_DOUBLE_EQ(m.temperature(x, y), die_1mm().t_sink + m.rise(x, y));
  EXPECT_GT(m.rise(x, y), 0.0);
}

TEST(ChipModel, SuperpositionIsLinear) {
  const auto die = die_1mm();
  HeatSource a{0.3e-3, 0.3e-3, 0.1e-3, 0.1e-3, 0.2};
  HeatSource b{0.7e-3, 0.6e-3, 0.15e-3, 0.1e-3, 0.4};
  ChipThermalModel both(die, {a, b});
  ChipThermalModel only_a(die, {a});
  ChipThermalModel only_b(die, {b});
  const double x = 0.5e-3, y = 0.5e-3;
  EXPECT_NEAR(both.rise(x, y), only_a.rise(x, y) + only_b.rise(x, y), 1e-12);
}

TEST(ChipModel, StraddlingSourceMatchesPreClippedSource) {
  // The power-conservation clipping policy: a source straddling the die edge
  // behaves exactly like its in-die clipped footprint carrying the full
  // power. Matches FdmThermalSolver::surface_power's policy.
  const auto die = die_1mm();
  // Centre on the left edge: half the 0.2 mm footprint hangs off the die.
  HeatSource straddling{0.0, 0.5e-3, 0.2e-3, 0.2e-3, 0.5};
  HeatSource clipped{0.05e-3, 0.5e-3, 0.1e-3, 0.2e-3, 0.5};
  ChipThermalModel a(die, {straddling});
  ChipThermalModel b(die, {clipped});
  for (const auto& p : {std::pair{0.05e-3, 0.5e-3}, std::pair{0.3e-3, 0.5e-3},
                        std::pair{0.8e-3, 0.2e-3}}) {
    EXPECT_DOUBLE_EQ(a.rise(p.first, p.second), b.rise(p.first, p.second));
  }
}

TEST(ChipModel, FullyOffDieSourceContributesNothing) {
  const auto die = die_1mm();
  HeatSource off_die{1.5e-3, 0.5e-3, 0.2e-3, 0.2e-3, 4.0};
  ChipThermalModel alone(die, {off_die});
  EXPECT_EQ(alone.rise(0.5e-3, 0.5e-3), 0.0);
  EXPECT_EQ(alone.image_count(), 0u);
  // And in superposition it adds exactly nothing.
  ChipThermalModel with(die, {center_block(), off_die});
  ChipThermalModel without(die, {center_block()});
  EXPECT_DOUBLE_EQ(with.rise(0.4e-3, 0.6e-3), without.rise(0.4e-3, 0.6e-3));
  // The caller's geometry is still reported unclipped.
  EXPECT_DOUBLE_EQ(with.sources()[1].cx, 1.5e-3);
}

TEST(ChipModel, LateralImagesImposeZeroNormalGradient) {
  // Fig. 7's statement: dT/dx = 0 at both die edges. Probe with a central
  // difference straddling the wall.
  ImageOptions opts;
  opts.lateral_order = 3;
  ChipThermalModel m(die_1mm(), {{0.35e-3, 0.5e-3, 0.2e-3, 0.2e-3, 0.5}}, opts);
  const double h = 1e-6;
  for (double y : {0.2e-3, 0.5e-3, 0.8e-3}) {
    const double g_left = (m.rise(h, y) - m.rise(-h, y)) / (2.0 * h);
    const double g_right = (m.rise(1e-3 + h, y) - m.rise(1e-3 - h, y)) / (2.0 * h);
    // Compare with the interior gradient magnitude to give "zero" a scale.
    const double g_mid = std::abs((m.rise(0.6e-3 + h, y) - m.rise(0.6e-3 - h, y)) / (2.0 * h));
    EXPECT_LT(std::abs(g_left), 0.02 * g_mid + 1e-9) << "y = " << y;
    EXPECT_LT(std::abs(g_right), 0.02 * g_mid + 1e-9) << "y = " << y;
  }
}

TEST(ChipModel, WithoutImagesGradientAtWallIsNonzero) {
  ImageOptions opts;
  opts.lateral_order = 0;
  opts.bottom_images = false;
  ChipThermalModel m(die_1mm(), {{0.35e-3, 0.5e-3, 0.2e-3, 0.2e-3, 0.5}}, opts);
  const double h = 1e-6;
  const double g_left = (m.rise(h, 0.5e-3) - m.rise(-h, 0.5e-3)) / (2.0 * h);
  EXPECT_GT(std::abs(g_left), 1.0);  // K/m; clearly nonzero without mirrors
}

TEST(ChipModel, ImagesRaiseCornerTemperatures) {
  // Reflected heat cannot escape through adiabatic walls: with images the
  // on-die field is strictly hotter than the naive half-space model.
  ImageOptions with;
  with.lateral_order = 3;
  with.bottom_images = false;
  ImageOptions without;
  without.lateral_order = 0;
  without.bottom_images = false;
  ChipThermalModel m_with(die_1mm(), {center_block()}, with);
  ChipThermalModel m_without(die_1mm(), {center_block()}, without);
  for (double x : {0.1e-3, 0.5e-3, 0.9e-3}) {
    EXPECT_GT(m_with.rise(x, 0.1e-3), m_without.rise(x, 0.1e-3));
  }
}

TEST(ChipModel, BottomImagesCoolTheField) {
  ImageOptions with;
  with.bottom_images = true;
  ImageOptions without;
  without.bottom_images = false;
  ChipThermalModel m_with(die_1mm(), {center_block()}, with);
  ChipThermalModel m_without(die_1mm(), {center_block()}, without);
  EXPECT_LT(m_with.rise(0.5e-3, 0.5e-3), m_without.rise(0.5e-3, 0.5e-3));
  EXPECT_GT(m_with.rise(0.5e-3, 0.5e-3), 0.0);
}

TEST(ChipModel, ImageCountMatchesOrder) {
  ImageOptions opts;
  opts.lateral_order = 1;
  ChipThermalModel m(die_1mm(), {center_block()}, opts);
  // (2*1+1) lattice positions * 2 mirror signs per axis = 6 per axis -> 36
  // lateral copies for one source (z images are folded into evaluation).
  EXPECT_EQ(m.image_count(), 36u);
  ImageOptions none;
  none.lateral_order = 0;
  ChipThermalModel m0(die_1mm(), {center_block()}, none);
  EXPECT_EQ(m0.image_count(), 1u);
}

TEST(ChipModel, SetSourcePowerRescalesField) {
  ChipThermalModel m(die_1mm(), {center_block(1.0)});
  const double t1 = m.rise(0.2e-3, 0.2e-3);
  m.set_source_power(0, 2.0);
  EXPECT_NEAR(m.rise(0.2e-3, 0.2e-3), 2.0 * t1, 1e-12);
  m.set_source_power(0, 0.0);
  EXPECT_NEAR(m.rise(0.2e-3, 0.2e-3), 0.0, 1e-15);
  EXPECT_THROW(m.set_source_power(5, 1.0), PreconditionError);
}

TEST(ChipModel, SurfaceMapHasPeakOverTheBlock) {
  ChipThermalModel m(die_1mm(), {{0.25e-3, 0.25e-3, 0.15e-3, 0.15e-3, 0.5}});
  const int nx = 21, ny = 21;
  const auto map = m.surface_map(nx, ny);
  std::size_t hottest = 0;
  for (std::size_t i = 1; i < map.size(); ++i) {
    if (map[i] > map[hottest]) hottest = i;
  }
  const int ix = static_cast<int>(hottest) % nx;
  const int iy = static_cast<int>(hottest) / nx;
  const double px = 1e-3 * (ix + 0.5) / nx;
  const double py = 1e-3 * (iy + 0.5) / ny;
  EXPECT_NEAR(px, 0.25e-3, 0.06e-3);
  EXPECT_NEAR(py, 0.25e-3, 0.06e-3);
}

TEST(ChipModel, SourceCenterRiseMatchesDirectEvaluation) {
  ChipThermalModel m(die_1mm(), {center_block()});
  EXPECT_DOUBLE_EQ(m.source_center_rise(0), m.rise(0.5e-3, 0.5e-3));
  EXPECT_THROW((void)m.source_center_rise(3), PreconditionError);
}

TEST(ChipModel, RejectsDegenerateInput) {
  Die bad = die_1mm();
  bad.width = 0.0;
  EXPECT_THROW(ChipThermalModel(bad, {center_block()}), PreconditionError);
  HeatSource degenerate{0.5e-3, 0.5e-3, 0.0, 0.1e-3, 1.0};
  EXPECT_THROW(ChipThermalModel(die_1mm(), {degenerate}), PreconditionError);

  // Conductivity: zero gave a NaN rise, a negative one a negative rise.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double k : {0.0, -148.0, kNan, kInf}) {
    Die bad_k = die_1mm();
    bad_k.k_si = k;
    EXPECT_THROW(ChipThermalModel(bad_k, {center_block()}), PreconditionError) << k;
  }
  // Non-finite source centre or power, at construction and on update.
  for (const double v : {kNan, kInf, -kInf}) {
    HeatSource s = center_block();
    s.cx = v;
    EXPECT_THROW(ChipThermalModel(die_1mm(), {s}), PreconditionError) << v;
    s = center_block();
    s.cy = v;
    EXPECT_THROW(ChipThermalModel(die_1mm(), {s}), PreconditionError) << v;
    EXPECT_THROW(ChipThermalModel(die_1mm(), {center_block(v)}), PreconditionError) << v;
    ChipThermalModel m(die_1mm(), {center_block()});
    const double before = m.rise(0.5e-3, 0.5e-3);
    EXPECT_THROW(m.set_source_power(0, v), PreconditionError) << v;
    EXPECT_EQ(m.rise(0.5e-3, 0.5e-3), before);
  }
}

TEST(ChipModel, ImageOrderConvergesOnceSinkPlaneIsActive) {
  // With the sink plane on, the net field of a source decays exponentially
  // with lateral distance, so mirror rings beyond the first ones contribute
  // nothing: order 2 and order 4 must agree to numerical dust.
  auto rise_at_order = [&](int order, bool bottom) {
    ImageOptions opts;
    opts.lateral_order = order;
    opts.bottom_images = bottom;
    ChipThermalModel m(die_1mm(), {center_block()}, opts);
    return m.rise(0.5e-3, 0.5e-3);
  };
  const double base = rise_at_order(2, true);
  EXPECT_NEAR(rise_at_order(4, true), base, 1e-6 * base + 1e-12);
  // Without the sink plane the 1/r tails make successive rings matter, but
  // with decreasing weight.
  const double d12 = std::abs(rise_at_order(2, false) - rise_at_order(1, false));
  const double d34 = std::abs(rise_at_order(4, false) - rise_at_order(3, false));
  EXPECT_GT(d12, 0.0);
  EXPECT_LT(d34, d12);
}

}  // namespace
}  // namespace ptherm::thermal
