// Bitwise oracle for the analytic image kernel. ChipThermalModel::rise runs
// the images in chunks (cull and gather, z-series with the image loop
// innermost, Euler finish) and the library is built with -fno-math-errno so
// that loop vectorizes. This file keeps the plain scalar form — one image at
// a time, Eq. (20) and the z-series evaluated per image, summed in image
// order — compiled without that flag, and requires every analytic entry
// point (rise, surface_map, the backend's surface_rises and the influence
// columns) to reproduce it bit for bit on seeded generated inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "thermal/backend.hpp"
#include "thermal/images.hpp"

namespace ptherm::thermal {
namespace {

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------- the oracle

double oracle_point_rise(double k_si, double power, double r) {
  return power / (2.0 * kPi * k_si * std::max(r, 1e-30));
}

double oracle_center_rise(double k_si, double power, double w, double l) {
  return power / (kPi * k_si * w * l) * (l * std::asinh(w / l) + w * std::asinh(l / w));
}

double oracle_line_rise(double k_si, double power, double w, double x, double y) {
  const double ay = std::max(std::abs(y), 1e-30);
  const double u1 = x + 0.5 * w;
  const double u2 = x - 0.5 * w;
  return power / (2.0 * kPi * k_si * w) * (std::asinh(u1 / ay) - std::asinh(u2 / ay));
}

double oracle_rect_rise_min(double k_si, const HeatSource& src, double x, double y) {
  const double t0 = oracle_center_rise(k_si, src.power, src.w, src.l);
  double dx = x - src.cx;
  double dy = y - src.cy;
  double length = src.w;
  if (src.l > src.w) {
    std::swap(dx, dy);
    length = src.l;
  }
  return std::min(t0, oracle_line_rise(k_si, src.power, length, dx, dy));
}

/// The die-clipped mirror images of `sources`, in the model's order.
std::vector<HeatSource> oracle_images(const Die& die, const std::vector<HeatSource>& sources,
                                      const ImageOptions& opts) {
  std::vector<HeatSource> images;
  for (const HeatSource& s : sources) {
    const double x0 = std::max(s.cx - 0.5 * s.w, 0.0);
    const double x1 = std::min(s.cx + 0.5 * s.w, die.width);
    const double y0 = std::max(s.cy - 0.5 * s.l, 0.0);
    const double y1 = std::min(s.cy + 0.5 * s.l, die.height);
    if (x1 <= x0 || y1 <= y0) continue;
    HeatSource c = s;
    if (x0 > s.cx - 0.5 * s.w || x1 < s.cx + 0.5 * s.w) {
      c.cx = 0.5 * (x0 + x1);
      c.w = x1 - x0;
    }
    if (y0 > s.cy - 0.5 * s.l || y1 < s.cy + 0.5 * s.l) {
      c.cy = 0.5 * (y0 + y1);
      c.l = y1 - y0;
    }
    const int order = opts.lateral_order;
    if (order == 0) {
      images.push_back(c);
      continue;
    }
    for (int mx = -order; mx <= order; ++mx) {
      for (int sx = 0; sx < 2; ++sx) {
        if (sx == 1 && c.cx == 0.0) continue;
        for (int my = -order; my <= order; ++my) {
          for (int sy = 0; sy < 2; ++sy) {
            if (sy == 1 && c.cy == 0.0) continue;
            HeatSource img = c;
            img.cx = 2.0 * mx * die.width + (sx == 0 ? c.cx : -c.cx);
            img.cy = 2.0 * my * die.height + (sy == 0 ? c.cy : -c.cy);
            images.push_back(img);
          }
        }
      }
    }
  }
  return images;
}

/// The scalar reference for one model: its images evaluated one at a time
/// and summed in order.
struct Oracle {
  Die die;
  ImageOptions opts;
  std::vector<HeatSource> images;
  int culled = 0;  ///< image evaluations the sink plane's 8t cut dropped

  Oracle(const Die& d, const ImageOptions& o, const std::vector<HeatSource>& sources)
      : die(d), opts(o), images(oracle_images(d, sources, o)) {}

  double image_rise(const HeatSource& img, double x, double y) {
    const double dx = x - img.cx;
    const double dy = y - img.cy;
    const double rho_sq = dx * dx + dy * dy;
    const double t = die.thickness;
    if (opts.bottom_images && rho_sq > (8.0 * t) * (8.0 * t)) {
      ++culled;
      return 0.0;
    }
    const double rise = oracle_rect_rise_min(die.k_si, img, x, y);
    if (!opts.bottom_images) return rise;
    const int n_terms = opts.z_order;
    constexpr int kTail = 8;
    double partials[kTail];
    double series = 0.0;
    int tail_count = 0;
    for (int j = 1; j <= n_terms; ++j) {
      const double depth = 2.0 * j * t;
      series += 2.0 * ((j % 2 == 1) ? -1.0 : 1.0) *
                oracle_point_rise(die.k_si, img.power, std::sqrt(rho_sq + depth * depth));
      if (j > n_terms - kTail) partials[tail_count++] = series;
    }
    for (int level = tail_count - 1; level > 0; --level) {
      for (int i = 0; i < level; ++i) partials[i] = 0.5 * (partials[i] + partials[i + 1]);
    }
    return rise + (tail_count > 0 ? partials[0] : series);
  }

  double rise(double x, double y) {
    double sum = 0.0;
    for (const HeatSource& img : images) sum += image_rise(img, x, y);
    return sum;
  }
};

// ------------------------------------------------------------------ inputs

void expect_bitwise_eq(double actual, double oracle) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(oracle))
      << actual << " vs oracle " << oracle;
}

/// A source of kind `kind` on `die`: 0 interior, 1 centred on the wall x = 0
/// or y = 0, 2 straddling the edge x = width, 3 fully off the die. Aspect
/// ratios cover both line-source orientations.
HeatSource make_source(const Die& die, Rng& rng, int kind) {
  HeatSource s;
  s.w = die.width * rng.uniform(0.03, 0.3);
  s.l = die.height * rng.uniform(0.03, 0.3);
  if (rng.bernoulli()) std::swap(s.w, s.l);  // some l > w, some l < w
  s.power = rng.uniform(0.05, 2.0);
  s.cx = die.width * rng.uniform(0.1, 0.9);
  s.cy = die.height * rng.uniform(0.1, 0.9);
  switch (kind) {
    case 1:
      (rng.bernoulli() ? s.cx : s.cy) = 0.0;
      break;
    case 2:
      s.cx = die.width + 0.25 * s.w;
      break;
    case 3:
      s.cy = -die.height;
      break;
    default:
      break;
  }
  return s;
}

struct Case {
  Die die;
  ImageOptions opts;
  std::vector<HeatSource> sources;
};

Die square_die() {
  Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  return d;
}

/// Thin and wide: 8t = 240 um, so far mirrors (and far sources) are culled.
Die thin_die() {
  Die d;
  d.width = 1.2e-3;
  d.height = 0.8e-3;
  d.thickness = 30e-6;
  d.k_si = 120.0;
  return d;
}

std::vector<Case> make_cases() {
  Rng rng(20260601);
  std::vector<Case> cases;
  for (const Die& die : {square_die(), thin_die()}) {
    for (int order = 0; order <= 3; ++order) {
      for (const int z_order : {1, 7, 8, 24}) {
        for (const bool bottom : {true, false}) {
          Case c;
          c.die = die;
          c.opts.lateral_order = order;
          c.opts.z_order = z_order;
          c.opts.bottom_images = bottom;
          const int n = 1 + static_cast<int>(rng.uniform_index(4));
          for (int s = 0; s < n; ++s) {
            c.sources.push_back(make_source(die, rng, static_cast<int>(rng.uniform_index(4))));
          }
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

/// Query points: interior, on the walls and corners, and just off the die.
std::vector<SurfaceSample> make_points(const Die& die, Rng& rng) {
  const double w = die.width;
  const double h = die.height;
  std::vector<SurfaceSample> pts = {{0, 0}, {w, h}, {0, 0.5 * h}, {0.5 * w, h}, {-0.05 * w, h / 3}};
  for (int p = 0; p < 6; ++p) {
    pts.push_back({w * rng.uniform(0.0, 1.0), h * rng.uniform(0.0, 1.0)});
  }
  return pts;
}

// ------------------------------------------------------------------- tests

TEST(ImageKernelOracle, RiseAndSurfaceMapMatchTheScalarImageSumBitwise) {
  Rng rng(7);
  int culled = 0;
  bool partial_chunk = false;
  for (const Case& c : make_cases()) {
    ChipThermalModel model(c.die, c.sources, c.opts);
    std::vector<HeatSource> sources = c.sources;
    Oracle oracle(c.die, c.opts, sources);
    ASSERT_EQ(model.image_count(), oracle.images.size());
    const std::size_t count = oracle.images.size();
    if (count > 64 && count % 64 != 0) partial_chunk = true;

    for (const auto& p : make_points(c.die, rng)) {
      expect_bitwise_eq(model.rise(p.x, p.y), oracle.rise(p.x, p.y));
    }
    const int nx = 5;
    const int ny = 4;
    const auto map = model.surface_map(nx, ny);
    for (int j = 0; j < ny; ++j) {
      const double y = c.die.height * (j + 0.5) / ny;
      for (int i = 0; i < nx; ++i) {
        const double x = c.die.width * (i + 0.5) / nx;
        expect_bitwise_eq(map[static_cast<std::size_t>(j) * nx + i],
                          c.die.t_sink + oracle.rise(x, y));
      }
    }
    culled += oracle.culled;

    // New power on one source: the model updates its images in place.
    const std::size_t s = rng.uniform_index(sources.size());
    sources[s].power = rng.uniform(0.0, 3.0);
    model.set_source_power(s, sources[s].power);
    Oracle updated(c.die, c.opts, sources);
    for (const auto& p : make_points(c.die, rng)) {
      expect_bitwise_eq(model.rise(p.x, p.y), updated.rise(p.x, p.y));
    }
  }
  // The inputs reach the 8t cut and a chunk of fewer than 64 images after a
  // full one.
  EXPECT_GT(culled, 0);
  EXPECT_TRUE(partial_chunk);
}

TEST(ImageKernelOracle, BackendRisesAndInfluenceColumnsMatchTheScalarImageSumBitwise) {
  Rng rng(11);
  int culled = 0;
  for (const Case& c : make_cases()) {
    const auto samples = make_points(c.die, rng);
    // One footprint per sample, as the influence build requires.
    std::vector<HeatSource> sources = c.sources;
    while (sources.size() < samples.size()) {
      sources.push_back(make_source(c.die, rng, static_cast<int>(sources.size() % 4)));
    }

    const AnalyticImagesBackend backend(c.die, c.opts);
    const auto rises = backend.surface_rises(sources, samples);
    Oracle oracle(c.die, c.opts, sources);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      expect_bitwise_eq(rises[i], oracle.rise(samples[i].x, samples[i].y));
    }
    culled += oracle.culled;

    const auto r = analytic_influence_columns(c.die, sources, samples, c.opts);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      HeatSource unit = sources[j];
      unit.power = 1.0;
      Oracle column(c.die, c.opts, {unit});
      for (std::size_t i = 0; i < samples.size(); ++i) {
        expect_bitwise_eq(r(i, j), column.rise(samples[i].x, samples[i].y));
      }
    }
  }
  EXPECT_GT(culled, 0);
}

}  // namespace
}  // namespace ptherm::thermal
