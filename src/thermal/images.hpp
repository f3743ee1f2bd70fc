// Full-chip analytic thermal model: superposition of rectangle sources
// (Eq. 21) plus the method of images (§3.3) to impose the paper's boundary
// conditions — adiabatic die sidewalls (mirror lattice in x and y) and an
// isothermal bottom at the heat sink (a -P image reflected across the sink
// plane).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "thermal/analytic.hpp"

namespace ptherm::thermal {

/// Die geometry and material for the analytic chip model.
struct Die {
  double width = 1e-3;        ///< x extent [m]
  double height = 1e-3;       ///< y extent [m]
  double thickness = 350e-6;  ///< distance from surface to the heat sink [m]
  double k_si = 148.0;        ///< thermal conductivity [W/(m K)]
  double t_sink = 300.0;      ///< heat-sink (bottom) temperature [K]
  double cv_si = 1.631e6;     ///< volumetric heat capacity [J/(m^3 K)] (transients)
};

/// Throws ptherm::PreconditionError unless `s` has a finite centre and a
/// finite, positive width and length: the geometry every backend clips.
/// Influence builds and projections, which ignore `power`, check this; a
/// NaN footprint is rejected, never clipped to nothing.
void validate_footprint(const HeatSource& s);

/// validate_footprint plus a finite power: what every backend checks where
/// a source's power enters (steady solves, transient steps).
void validate(const HeatSource& s);

/// A source footprint clipped to the die surface, [x0, x1] x [y0, y1]. The
/// clipping policy every backend shares: the FULL source power deposits
/// over the clipped rectangle, and a source entirely off the die
/// (on_die() false) deposits nothing. Callers validate() the source first.
struct DieFootprint {
  double x0, x1, y0, y1;

  [[nodiscard]] bool on_die() const noexcept { return x1 > x0 && y1 > y0; }
  [[nodiscard]] double area() const noexcept { return (x1 - x0) * (y1 - y0); }
};

[[nodiscard]] inline DieFootprint clip_to_die(const Die& die, const HeatSource& s) noexcept {
  return {std::max(s.cx - 0.5 * s.w, 0.0), std::min(s.cx + 0.5 * s.w, die.width),
          std::max(s.cy - 0.5 * s.l, 0.0), std::min(s.cy + 0.5 * s.l, die.height)};
}

/// A surface point a thermal query reports the rise at (a block centre in
/// the co-simulation use). Shared by the backend layer's batched queries and
/// the spectral solver's matrix-free influence projections.
struct SurfaceSample {
  double x = 0.0;
  double y = 0.0;
};

struct ImageOptions {
  /// Lateral mirror order: images at indices -order..order in both axes
  /// ((2*order+1)^2 positions x 2 mirror signs per axis). 0 disables
  /// sidewall images entirely (pure Eq. 21 superposition).
  int lateral_order = 2;
  /// Impose the isothermal sink plane at z = thickness. A single -P image is
  /// not enough: the adiabatic top re-reflects it, giving the alternating
  /// series  T(rho) = P/(2 pi k) [1/rho + 2 sum_j (-1)^j / sqrt(rho^2 +
  /// (2 j t)^2)]  whose truncation (with a half-term correction) reproduces
  /// the exponential lateral decay a Dirichlet plane causes.
  bool bottom_images = true;
  /// Number of z-image terms in that series.
  int z_order = 24;
};

/// Analytic chip thermal model: evaluate anywhere on the surface in O(#images)
/// closed-form kernel calls — the "fast" estimator the paper contrasts with
/// numerical solvers.
///
/// Every evaluation (rise, temperature, surface_map, and through them the
/// analytic backend and its influence columns) runs one kernel over the
/// mirror images in fixed-size chunks: cull the images beyond the sink
/// plane's reach and gather the near ones' Eq. (20) rises, sum their
/// z-image series with the image loop innermost, then finish each image and
/// add it in image order. Each image's arithmetic is the scalar per-image
/// formula, so the result does not depend on the chunking.
///
/// Rejects (ptherm::PreconditionError) a non-positive or non-finite k_si, a
/// degenerate die, and any source validate() rejects.
///
/// Source-clipping policy (power conservation, matching FdmThermalSolver):
/// each source's footprint is clipped to the die surface and the FULL source
/// power is radiated from the clipped rectangle; a source entirely outside
/// the die contributes nothing. `sources()` still reports the caller's
/// unclipped geometry — clipping is internal to the field evaluation.
class ChipThermalModel {
 public:
  ChipThermalModel(Die die, std::vector<HeatSource> sources, ImageOptions opts = {});

  /// Temperature rise above the heat sink at surface point (x, y) [K].
  [[nodiscard]] double rise(double x, double y) const;

  /// Absolute temperature = sink temperature + rise [K].
  [[nodiscard]] double temperature(double x, double y) const;

  /// Rise at the centre of source `i` (what a block "feels"; used by the
  /// co-simulation loop as the block temperature).
  [[nodiscard]] double source_center_rise(std::size_t i) const;

  /// Samples temperature on an nx x ny surface grid (row-major, y outer).
  [[nodiscard]] std::vector<double> surface_map(int nx, int ny) const;

  [[nodiscard]] const Die& die() const noexcept { return die_; }
  [[nodiscard]] const std::vector<HeatSource>& sources() const noexcept { return sources_; }
  [[nodiscard]] std::size_t image_count() const noexcept { return images_.size(); }

  /// Replaces the power of source `i` (geometry fixed); images are updated.
  /// Used by the electro-thermal fixed point, which re-evaluates powers only.
  /// Throws PreconditionError on a non-finite power.
  void set_source_power(std::size_t i, double power);

 private:
  struct Image {
    HeatSource source;   ///< lateral mirror copy
    std::size_t parent;  ///< index of the originating source
    double t0;           ///< Eq. (18) centre rise of the clipped source
  };
  void clip_sources();
  void rebuild_images();

  Die die_;
  std::vector<HeatSource> sources_;   ///< as given by the caller
  std::vector<HeatSource> clipped_;   ///< die-clipped footprints; w == 0 marks fully off-die
  ImageOptions opts_;
  std::vector<Image> images_;
};

}  // namespace ptherm::thermal
