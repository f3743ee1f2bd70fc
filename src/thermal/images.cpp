#include "thermal/images.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace ptherm::thermal {

namespace {
constexpr double kPi = std::numbers::pi;
/// Images per kernel chunk: the three passes of rise() work on stack arrays
/// of this many images.
constexpr std::size_t kChunk = 64;
/// Trailing partial sums of the z-image series the Euler transform averages.
constexpr int kTail = 8;
}  // namespace

void validate_footprint(const HeatSource& s) {
  PTHERM_REQUIRE(std::isfinite(s.cx) && std::isfinite(s.cy),
                 "HeatSource: non-finite centre");
  PTHERM_REQUIRE(std::isfinite(s.w) && std::isfinite(s.l) && s.w > 0.0 && s.l > 0.0,
                 "HeatSource: degenerate footprint (w, l must be finite and > 0)");
}

void validate(const HeatSource& s) {
  validate_footprint(s);
  PTHERM_REQUIRE(std::isfinite(s.power), "HeatSource: non-finite power");
}

ChipThermalModel::ChipThermalModel(Die die, std::vector<HeatSource> sources, ImageOptions opts)
    : die_(die), sources_(std::move(sources)), opts_(opts) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0 && die_.thickness > 0.0,
                 "ChipThermalModel: degenerate die");
  PTHERM_REQUIRE(std::isfinite(die_.k_si) && die_.k_si > 0.0,
                 "ChipThermalModel: k_si must be finite and > 0");
  PTHERM_REQUIRE(opts_.lateral_order >= 0, "ChipThermalModel: negative image order");
  PTHERM_REQUIRE(opts_.z_order >= 1, "ChipThermalModel: z_order must be positive");
  for (const auto& s : sources_) validate(s);
  clip_sources();
  rebuild_images();
}

void ChipThermalModel::clip_sources() {
  // Power-conservation policy (see class comment): the full power radiates
  // from the die-clipped footprint; fully off-die sources are inert, marked
  // by a zero-width clipped entry so indices stay aligned with sources_.
  clipped_.resize(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const HeatSource& s = sources_[i];
    const DieFootprint f = clip_to_die(die_, s);
    HeatSource c = s;
    if (!f.on_die()) {
      c.w = 0.0;
      c.l = 0.0;
    } else {
      // Rewrite only axes that were actually clipped: recomputing an
      // untouched extent as x1 - x0 can perturb it by an ulp, and the
      // min-kernel's line-source orientation test (l > w) must not flip on
      // rounding noise for fully in-die sources.
      if (f.x0 > s.cx - 0.5 * s.w || f.x1 < s.cx + 0.5 * s.w) {
        c.cx = 0.5 * (f.x0 + f.x1);
        c.w = f.x1 - f.x0;
      }
      if (f.y0 > s.cy - 0.5 * s.l || f.y1 < s.cy + 0.5 * s.l) {
        c.cy = 0.5 * (f.y0 + f.y1);
        c.l = f.y1 - f.y0;
      }
    }
    clipped_[i] = c;
  }
}

void ChipThermalModel::rebuild_images() {
  images_.clear();
  const int order = opts_.lateral_order;
  const double wd = die_.width;
  const double hd = die_.height;
  for (std::size_t si = 0; si < clipped_.size(); ++si) {
    const HeatSource& s = clipped_[si];
    if (s.w <= 0.0) continue;  // fully off-die: no field
    const double t0 = rect_center_rise(die_.k_si, s.power, s.w, s.l);
    if (order == 0) {
      images_.push_back({s, si, t0});
      continue;
    }
    // Mirror lattice for adiabatic walls at x = 0 / x = wd (and same in y):
    // a source at cx maps to 2*m*wd + cx and 2*m*wd - cx for every m.
    for (int mx = -order; mx <= order; ++mx) {
      for (int sx = 0; sx < 2; ++sx) {
        // Skip duplicates when a source sits exactly on a wall (then +cx and
        // -cx coincide for every lattice index).
        if (sx == 1 && s.cx == 0.0) continue;
        const double cx = 2.0 * mx * wd + (sx == 0 ? s.cx : -s.cx);
        for (int my = -order; my <= order; ++my) {
          for (int sy = 0; sy < 2; ++sy) {
            if (sy == 1 && s.cy == 0.0) continue;
            const double cy = 2.0 * my * hd + (sy == 0 ? s.cy : -s.cy);
            HeatSource img = s;
            img.cx = cx;
            img.cy = cy;
            images_.push_back({img, si, t0});
          }
        }
      }
    }
  }
}

double ChipThermalModel::rise(double x, double y) const {
  const double t = die_.thickness;
  const double k = die_.k_si;
  const bool bottom = opts_.bottom_images;
  // With a sink plane at depth t the net field of a source decays like
  // exp(-pi*rho/(2t)); beyond a few thicknesses it is numerically nothing,
  // so distant lateral mirrors are skipped outright (this also makes the
  // lateral-order truncation converge instead of accumulating tails).
  const double cut_sq = (8.0 * t) * (8.0 * t);
  const double two_pi_k = 2.0 * kPi * k;  // Eq. (16) denominator, less r
  const int n_terms = opts_.z_order;
  double sum = 0.0;
  for (std::size_t begin = 0; begin < images_.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, images_.size());
    // Pass 1 — cull and gather: each near image's squared lateral distance,
    // power and Eq. (20) rise min(T0, Tline), the line source along the
    // longer side (T0 is precomputed per image).
    double rho_sq[kChunk];
    double power[kChunk];
    double surface[kChunk];
    std::size_t m = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Image& img = images_[i];
      double dx = x - img.source.cx;
      double dy = y - img.source.cy;
      const double r_sq = dx * dx + dy * dy;
      if (bottom && r_sq > cut_sq) continue;
      double length = img.source.w;
      if (img.source.l > img.source.w) {
        std::swap(dx, dy);
        length = img.source.l;
      }
      rho_sq[m] = r_sq;
      power[m] = img.source.power;
      surface[m] = std::min(img.t0, line_source_rise(k, img.source.power, length, dx, dy));
      ++m;
    }
    if (!bottom) {
      for (std::size_t q = 0; q < m; ++q) sum += surface[q];
      continue;
    }
    // Pass 2 — alternating z-image series for the isothermal plane at depth
    // t, seen from the (adiabatic) surface:
    //   dT = 2 * sum_j (-1)^j * P / (2 pi k sqrt(rho^2 + (2jt)^2)).
    // Terms use the point kernel (every image is buried >= 2t, far compared
    // to the source extent, so r >= 2t > 0 and Eq. (16)'s floor on r never
    // applies). The terms decay slowly for rho >~ t, so the sum is
    // Euler-accelerated: repeated averaging of the trailing partial sums
    // turns O(1/J) truncation error into something negligible. The image
    // loop is innermost so it vectorizes.
    double series[kChunk];
    double partials[kTail][kChunk];
    std::fill_n(series, m, 0.0);
    int tail_count = 0;
    for (int j = 1; j <= n_terms; ++j) {
      const double depth = 2.0 * j * t;
      const double depth_sq = depth * depth;
      const double weight = 2.0 * ((j % 2 == 1) ? -1.0 : 1.0);
      for (std::size_t q = 0; q < m; ++q) {
        series[q] += weight * (power[q] / (two_pi_k * std::sqrt(rho_sq[q] + depth_sq)));
      }
      if (j > n_terms - kTail) std::copy_n(series, m, partials[tail_count++]);
    }
    // Pass 3 — finish: Euler transform on the trailing partial sums, then
    // each image's surface rise plus its series, added in image order.
    for (int level = tail_count - 1; level > 0; --level) {
      for (int i = 0; i < level; ++i) {
        for (std::size_t q = 0; q < m; ++q) {
          partials[i][q] = 0.5 * (partials[i][q] + partials[i + 1][q]);
        }
      }
    }
    for (std::size_t q = 0; q < m; ++q) sum += surface[q] + partials[0][q];
  }
  return sum;
}

double ChipThermalModel::temperature(double x, double y) const {
  return die_.t_sink + rise(x, y);
}

double ChipThermalModel::source_center_rise(std::size_t i) const {
  PTHERM_REQUIRE(i < sources_.size(), "source_center_rise: index out of range");
  return rise(sources_[i].cx, sources_[i].cy);
}

std::vector<double> ChipThermalModel::surface_map(int nx, int ny) const {
  PTHERM_REQUIRE(nx >= 2 && ny >= 2, "surface_map: need at least a 2x2 grid");
  std::vector<double> map(static_cast<std::size_t>(nx) * ny, 0.0);
  for (int j = 0; j < ny; ++j) {
    const double y = die_.height * (j + 0.5) / ny;
    for (int i = 0; i < nx; ++i) {
      const double x = die_.width * (i + 0.5) / nx;
      map[static_cast<std::size_t>(j) * nx + i] = temperature(x, y);
    }
  }
  return map;
}

void ChipThermalModel::set_source_power(std::size_t i, double power) {
  PTHERM_REQUIRE(i < sources_.size(), "set_source_power: index out of range");
  PTHERM_REQUIRE(std::isfinite(power), "set_source_power: non-finite power");
  sources_[i].power = power;
  clipped_[i].power = power;
  const double t0 = rect_center_rise(die_.k_si, power, clipped_[i].w, clipped_[i].l);
  for (auto& img : images_) {
    if (img.parent == i) {
      img.source.power = power;
      img.t0 = t0;
    }
  }
}

}  // namespace ptherm::thermal
