// Spectral (cosine-series) Green's-function solver for the paper's die
// boundary-value problem: adiabatic sidewalls and top, isothermal heat sink
// at depth t. The adiabatic sides make cos(m pi x / W) cos(n pi y / H) the
// exact lateral eigenbasis, so the steady conduction problem diagonalizes:
// each mode has the closed-form depth profile sinh(g (t - z)) / sinh(g t)
// with g^2 = (m pi / W)^2 + (n pi / H)^2, and the surface response to a
// surface heat flux q_mn is
//     S_mn = q_mn * tanh(g t) / (k g)          (S_00 = q_00 * t / k).
// Rectangular source footprints project onto the modes analytically (sine
// antiderivatives — no quadrature, no assembly), a steady "solve" is one
// mode-space multiply, and a full surface map is synthesized by the
// hand-rolled DCT in numerics/fft.hpp in O(M log M). This is the
// Kemper-et-al. "ultrafast" formulation the influence operator wants: an
// influence column costs one mode-space multiply instead of a CG solve.
//
// The decomposition diagonalizes the TRANSIENT problem too: with the same
// adiabatic top and isothermal bottom, the z direction has the eigenbasis
// cos(gamma_p z) with gamma_p = (p + 1/2) pi / t, so each (lateral mode,
// z-mode) amplitude obeys an independent scalar ODE
//     dA/dt = -lambda A + F,   lambda = alpha (g^2 + gamma_p^2),
// whose solution under piecewise-constant power is the exact exponential
// update A <- A e^{-lambda h} + (F/lambda)(1 - e^{-lambda h}). The per-mode
// steady gains sum in closed form to the steady transfer (the identity
// sum_p 2 / (t (g^2 + gamma_p^2)) = tanh(g t) / g), so the z-truncation
// tail is carried quasi-statically and the long-time limit reproduces
// solve_steady exactly; the truncated modes have sub-microsecond time
// constants, far below any useful co-simulation step.
//
// Source-clipping policy matches the other backends: footprints are clipped
// to the die and the FULL source power deposits over the clipped rectangle;
// fully off-die sources contribute nothing; a source validate()
// (thermal/images.hpp) rejects — non-finite or degenerate — throws.
//
// DIE STACKS. The lateral eigenbasis only needs adiabatic sidewalls, so the
// whole machinery survives an arbitrary z-stack (thermal/stack.hpp): the
// per-mode steady transfer generalizes from tanh(g t) / (k g) to the
// transmission-line impedance recursion through the layers (each slab maps
// its load impedance as Z -> (Z + tanh(g t)/(k g)) / (1 + Z k g tanh(g t)),
// seeded with 0 at an isothermal plane or 1/h at a convective film), and
// the transient z-eigenbasis cos(gamma_p z) generalizes to the eigenmodes
// of a per-mode symmetric tridiagonal z-operator on a layered grid, solved
// with numerics/eigen.hpp and advanced by the same exact exponential
// update. The truncation-plus-discretization tail is again folded in
// quasi-statically against the EXACT (continuous) transfer, so the layered
// transient's long-time limit reproduces solve_steady to rounding for every
// mode. A stack that reduces_to the die — DieStack::single(die), which the
// Die-only constructor builds — takes the closed forms above. When every
// layer shares one diffusivity k/cv, the z-operator's g-dependence is a
// scalar shift alpha g^2 I: one eigendecomposition serves all lateral
// modes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "thermal/images.hpp"
#include "thermal/stack.hpp"

namespace ptherm::thermal {

struct SpectralOptions {
  /// Cosine modes per axis, including the DC mode. More modes sharpen source
  /// edges; the mode sum converges absolutely like 1/modes^2 away from
  /// footprint boundaries. 64 x 64 matches a 32^3 FDM reference to well
  /// under a percent at block centres.
  int modes_x = 64;
  int modes_y = 64;
  /// z-eigenfunctions per lateral mode carried explicitly by the transient
  /// integrator; the truncated tail is folded in quasi-statically (its time
  /// constants fall like 1/p^2 — mode 8 of a 350 um die settles in ~2 us).
  int modes_z = 8;
  /// z-cells of the layered modal reduction (stack constructor only): the
  /// per-lateral-mode z-operator is discretized on this many cells, split
  /// across the layers proportionally to thickness, and modes_z of its
  /// slowest eigenmodes are carried. Single-die solvers ignore it (their
  /// z-eigenbasis is closed-form).
  int layered_nz = 40;
};

class SpectralThermalSolver {
 public:
  /// The single-die solver: the stack constructor over
  /// DieStack::single(die), which reduces to the die and so takes the
  /// closed forms.
  SpectralThermalSolver(Die die, SpectralOptions opts = {});

  /// The stack is authoritative for everything in z (the die supplies the
  /// lateral dimensions and the ambient temperature; its thickness, k_si
  /// and cv_si only matter through reduces_to). A stack satisfying
  /// stack.reduces_to(die) takes the single-die closed forms; any other
  /// runs the layered machinery. Throws ptherm::PreconditionError on a
  /// degenerate die or mode counts below one (the stack validated its own
  /// layers, so a non-positive heat capacity throws there, at
  /// construction).
  SpectralThermalSolver(Die die, DieStack stack, SpectralOptions opts = {});

  /// Whether this solver runs the layered z-machinery (false: single-die
  /// closed forms, including when a trivial stack was handed in).
  [[nodiscard]] bool layered() const noexcept { return layered_; }

  /// Surface-rise mode coefficients S_mn for the given sources; coeff is
  /// modes_y-major (coeff[n * modes_x + m]).
  struct Solution {
    std::vector<double> coeff;
  };
  [[nodiscard]] Solution solve_steady(const std::vector<HeatSource>& sources) const;

  /// Surface rise at (x, y): a one-point SampleSynthesis, the O(modes)
  /// cosine sum.
  [[nodiscard]] double surface_rise(const Solution& sol, double x, double y) const;

  /// Rise at depth z below surface point (x, y): each coefficient scaled by
  /// its depth transfer sinh(g (t - z)) / sinh(g t), evaluated in
  /// overflow-safe exponential form, then synthesized at (x, y) like
  /// surface_rise. Used to compare against cell-centred FDM layers without
  /// extrapolation bias. On layered stacks z spans the whole stack and the
  /// per-mode profile is the exact slab-by-slab transmission-line ratio
  /// (two-sided decaying exponentials — no sinh overflow, no cancellation).
  [[nodiscard]] double rise_at_depth(const Solution& sol, double x, double y, double z) const;

  /// Surface-rise map on the nx x ny cell-centre grid (row-major, y outer —
  /// the ChipThermalModel::surface_map convention, but rises, not absolute
  /// temperatures). Power-of-two grids go through the DCT synthesis
  /// (O(M log M)); other sizes go through a SampleSynthesis of the cell
  /// centres (nx * modes_x + ny * modes_y cosines, O(nx * modes + nx * ny *
  /// modes_y) sums), bitwise what surface_rise gives at each centre.
  [[nodiscard]] std::vector<double> surface_map(const Solution& sol, int nx, int ny) const;

  /// Source half of the factored spectral projection: powers -> flux modes,
  /// factored over the tensor-grid structure of real floorplans. Tiled
  /// plans reuse footprint edges (a t x t make_manycore plan has 4t^2 blocks
  /// but only 3t distinct clipped x-intervals), so the separable flux tables
  /// are interned — one row per DISTINCT clipped interval — and each source
  /// keeps only its weight and two row indices. Rows are shared exactly when
  /// their inputs are bit-identical, so interning changes no table entry.
  /// Memory is O(n + G * modes_per_axis) with G <= n the distinct-row count.
  /// The influence apply (and the dense build, all unit columns in one
  /// batched apply) and the transient step project through its passes; the
  /// one-shot solve_steady adds each source's flux modes directly.
  struct SourceProjection {
    /// A source's flux modes are power * weight * flux_x[x] (x) flux_y[y].
    struct Rows {
      double weight = 0.0;  ///< 1 / (clipped area * W * H); 0 when fully off-die
      std::uint32_t x = 0;  ///< row of flux_x
      std::uint32_t y = 0;  ///< row of flux_y
    };

    std::size_t modes_x = 0;
    std::size_t modes_y = 0;
    /// c_m * integral of cos(m pi x / W) over each distinct clipped
    /// x-interval, modes_x per row (flux_y likewise over y, modes_y per row).
    std::vector<double> flux_x;
    std::vector<double> flux_y;
    std::vector<Rows> sources;
    /// project()'s scratch: the flux_y rows summed per x-interval, modes_y
    /// per row, sized on first use. The x-intervals a projection touched
    /// (one per interval), for project() and the influence apply alike.
    std::vector<double> rows;
    std::vector<std::uint32_t> live;

    [[nodiscard]] std::size_t x_intervals() const noexcept {
      return modes_x == 0 ? 0 : flux_x.size() / modes_x;
    }

    /// flux[n * modes_x + m] = sum_j powers[j] * (source j's flux modes), in
    /// two passes: (1) sum each source's weighted flux_y row into its
    /// x-interval (n * modes_y); (2) sum, per flux mode, the touched
    /// x-intervals against their flux_x rows (G * modes). Sources with zero
    /// power or weight are skipped. The same passes serve the influence
    /// apply, one vector or a 4-vector block at a time.
    void project(std::span<const double> powers, std::span<double> flux);
  };

  /// Sample half: mode coefficients -> values at fixed sample points, with
  /// the cosine tables interned over distinct sample coordinates the same
  /// way (the 4t^2 block centres of a t x t tiling have 3t distinct x). The
  /// influence apply and the transient readback synthesize through it; the
  /// sample count is independent of any source count.
  struct SampleSynthesis {
    /// A sample's value is the cosine sum over synth_x[x] (x) synth_y[y].
    struct Rows {
      std::uint32_t x = 0;  ///< row of synth_x
      std::uint32_t y = 0;  ///< row of synth_y
    };

    std::size_t modes_x = 0;
    std::size_t modes_y = 0;
    /// cos(m pi x / W) at each distinct sample x, modes_x per row (synth_y
    /// likewise at each distinct sample y, modes_y per row).
    std::vector<double> synth_x;
    std::vector<double> synth_y;
    std::vector<Rows> samples;
    /// synthesize()'s scratch: the coefficients synthesized along x at each
    /// distinct sample x, modes_y per row, sized on first use.
    std::vector<double> rows;

    [[nodiscard]] std::size_t sample_xs() const noexcept {
      return modes_x == 0 ? 0 : synth_x.size() / modes_x;
    }

    /// values[p] = sum_mn coeff[n * modes_x + m] cos(m pi x_p / W) cos(n pi
    /// y_p / H), in two passes: (4) synthesize along x at each distinct
    /// sample x (G * modes); (5) finish each sample along y (n * modes_y).
    /// Every sum runs in ascending mode order from +0.0; the same passes
    /// serve the influence apply, surface_rise and the non-power-of-two
    /// surface_map.
    void synthesize(std::span<const double> coeff, std::span<double> values);
  };

  /// Builds the source half for fixed source geometry (powers are ignored;
  /// the caller supplies them per projection). Off-die sources project to
  /// zero; footprints validate_footprint() rejects throw. Interning
  /// is sort + unique, O(n log n); the tables cost O(G * modes_per_axis)
  /// trigonometric evaluations.
  [[nodiscard]] SourceProjection make_source_projection(std::span<const HeatSource> sources) const;

  /// Builds the sample half for fixed sample points (any count, including
  /// zero).
  [[nodiscard]] SampleSynthesis make_sample_synthesis(std::span<const SurfaceSample> samples) const;

  /// The matrix-free influence apply `rises = R * powers`: the source half,
  /// the per-mode surface transfer and the sample half. Memory is
  /// O(n + G * modes_per_axis + modes) — the tables and one scratch, sized
  /// for one 4-vector block once an apply of count >= 4 has run, whatever
  /// the apply's `count` — versus the O(n^2) dense matrix whose build is
  /// also O(n^2 * modes).
  struct InfluenceProjection {
    std::size_t count = 0;  ///< sources == samples count
    SourceProjection source;
    SampleSynthesis sample;
    /// The apply's scratch: max(Gx, Gs) * modes_y axis entries, then
    /// mode_count() mode-space entries, with Gs = sample.sample_xs(); one
    /// vector's until the first apply of count >= 4 grows it to four
    /// vectors' (lane-interleaved). The halves' own `rows` stay empty.
    std::vector<double> block;
  };

  /// Builds the influence projection for fixed source geometry and sample
  /// points. Requires one sample per source.
  [[nodiscard]] InfluenceProjection make_influence_projection(
      std::span<const HeatSource> sources, std::span<const SurfaceSample> samples) const;

  /// rises[k*n + i] = sum_j R[i][j] * powers[k*n + j] for `count` power
  /// vectors (scenario-major, n = proj.count) without forming R: the source
  /// half's passes 1-2, (3) the per-mode surface transfer, then the sample
  /// half's passes 4-5. Cost per vector is O(n * modes_per_axis + G *
  /// modes); with nothing shared (G = n) that is the per-source rank-1
  /// apply's 2 n modes plus 2 n modes_y. Full blocks of 4 vectors run
  /// through the five passes together, lane-interleaved — one 4-wide AVX2
  /// vector per entry where numerics::dispatched_isa() picks the AVX2
  /// clone, two SSE2 pairs in the baseline build — so each table entry is
  /// loaded once for four vectors; the count % 4 remainder runs one vector
  /// at a time. All go through one definition of each pass, written over
  /// the entry type (one double or four lanes), so every lane does the lone
  /// apply's arithmetic, each sum in the same order: a source is skipped only
  /// when its power is zero in every lane, and any other zero is added as
  /// an exact zero product, which cannot change an accumulator that starts
  /// at +0.0. So with finite tables vector k's rises are bitwise identical
  /// to a count-1 apply of it alone, whatever `count` is, and a non-finite
  /// power stays in its own vector. `proj` must come from this solver's
  /// make_influence_projection.
  void apply_influence_batch(InfluenceProjection& proj, std::span<const double> powers,
                             std::span<double> rises, std::size_t count) const;

  /// Transient field in mode space: per-(lateral mode, z-mode) amplitudes
  /// plus the synthesized surface solution, and the two step caches — the
  /// source half of the factored projection for the current geometry (only
  /// powers change between co-simulation steps, so a power update is the
  /// two interned passes) and the e^{-lambda h} decay factors keyed by the
  /// step size.
  struct TransientSolution {
    /// Surface-rise coefficients S_mn after the last step. A plain steady
    /// Solution, so surface_rise / surface_map / the influence basis all
    /// read a transient field with zero extra machinery.
    Solution surface;
    /// z-eigenmode amplitudes, p-major: amps[p * mode_count() + mode], so
    /// one z-mode's amplitudes of neighbouring lateral modes are adjacent
    /// and the step advances eight lateral modes at once.
    std::vector<double> amps;
    /// Flux mode coefficients q_mn of the last-applied sources [W/m^2].
    std::vector<double> flux;

    /// Source half for the last-ingested geometry, rebuilt whole when any
    /// source's cx, cy, w or l differs from geometry_key (4 per source).
    SourceProjection projection;
    std::vector<double> geometry_key;
    /// Last-ingested power per source: when neither powers nor geometry
    /// moved since the previous step, the flux modes are still valid and
    /// the whole projection is skipped — interior steps of a power-update
    /// epoch collapse to the pure mode-decay update.
    std::vector<double> power_key;

    /// Decay cache: e^{-lambda h} per (mode, p), p-major like amps, keyed
    /// by decay_h. A factor that falls below the fully-decayed floor
    /// (2^-512) is stored as 0, so that entry's update is amp = q g. On a
    /// single die the rate alpha (g^2 + gamma_p^2) separates and a re-key
    /// costs modes + modes_z exponentials: the entry is the product of the
    /// lateral and the z factor, and the floor is decided on the exponent.
    /// On a layered stack it is exp(-lambda h) from the per-(mode, p) rates.
    double decay_h = 0.0;
    std::vector<double> decay;
  };

  /// Zero-rise transient field (everything at the sink temperature).
  [[nodiscard]] TransientSolution make_transient() const;

  /// Advances the field by `h` seconds under `sources` (held constant over
  /// the step). The per-mode update is EXACT for piecewise-constant power —
  /// accuracy does not depend on h, and one call with h == k*h' equals k
  /// calls with h' to rounding. Returns 1: one mode-space update (the
  /// generic "inner iteration" count transient drivers accumulate). Throws
  /// ptherm::PreconditionError, leaving `state` untouched, when validate()
  /// rejects one of the sources from the first that changed since the last
  /// step on.
  int step_transient(TransientSolution& state, double h,
                     const std::vector<HeatSource>& sources) const;

  /// Surface rise of a transient field (delegates to the steady query on the
  /// synthesized surface coefficients).
  [[nodiscard]] double surface_rise(const TransientSolution& state, double x, double y) const {
    return surface_rise(state.surface, x, y);
  }

  /// Rise at depth z of the transient field: per lateral mode, the explicit
  /// z-modes evaluated at cos(gamma_p z) plus the truncation tail at its
  /// quasi-static depth profile, then synthesized at (x, y). Used
  /// for matched-depth comparison against the FDM trajectory (whose top
  /// layer reports dz/2 below the surface). Single-die solvers only — a
  /// layered field's carried z-modes live on the modal grid, not a
  /// closed-form eigenbasis, so this throws ptherm::PreconditionError on
  /// layered stacks (query the surface, or use the layered FDM backend for
  /// depth traces).
  [[nodiscard]] double rise_at_depth(const TransientSolution& state, double x, double y,
                                     double z) const;

  [[nodiscard]] int modes_x() const noexcept { return opts_.modes_x; }
  [[nodiscard]] int modes_y() const noexcept { return opts_.modes_y; }
  [[nodiscard]] int modes_z() const noexcept { return opts_.modes_z; }
  [[nodiscard]] int mode_count() const noexcept { return opts_.modes_x * opts_.modes_y; }
  /// 1-D FFT invocations performed by surface_map so far (cost counter).
  [[nodiscard]] long long fft_calls() const noexcept { return fft_calls_; }
  /// Transient steps that had to re-project changed source powers into the
  /// flux modes (cost counter): with an epoch-driven driver this counts
  /// epochs, not steps — the gap between the two is the cache's win.
  [[nodiscard]] long long transient_power_updates() const noexcept { return power_updates_; }
  [[nodiscard]] const Die& die() const noexcept { return die_; }

 private:
  /// The single-die closed-form setup (transfer, cos(gamma_p z) eigenbasis,
  /// gains, tail), taken by every stack that reduces to the die.
  void init_single_die();

  /// Per-mode steady surface impedance of the layered stack: the
  /// transmission-line recursion from the boundary seed up through every
  /// layer. The single-layer isothermal case reproduces tanh(g t) / (k g)
  /// bitwise.
  [[nodiscard]] double layered_transfer(double g) const;

  /// theta(z) / theta(0) of lateral mode g at steady state, slab by slab.
  [[nodiscard]] double layered_depth_ratio(double g, double z) const;

  /// Builds lambda_/gain_/tail_ for the layered transient on first use
  /// (steady-only callers never pay for the per-mode eigensolves).
  void ensure_transient_modes() const;

  Die die_;
  SpectralOptions opts_;
  std::vector<double> transfer_;  ///< steady surface transfer per mode [K m^2 / W]
  std::vector<double> g2_;        ///< lateral eigenvalue g^2 per mode
  std::vector<double> gamma2_;    ///< z eigenvalue gamma_p^2, p < modes_z (single-die)
  /// Steady gain of z-mode p of lateral mode mn — 2 / (k t (g^2 + gamma_p^2))
  /// closed-form on a single die, u_0p^2 / lambda_p on a layered stack —
  /// p-major like TransientSolution::amps (gain_[p * modes + mode]).
  /// Mutable: layered solvers fill it lazily in ensure_transient_modes().
  mutable std::vector<double> gain_;
  /// transfer_ minus the carried z-modes' gains: the quasi-static tail
  /// (truncation + discretization on layered stacks, so the long-time limit
  /// is the exact steady transfer either way).
  mutable std::vector<double> tail_;

  DieStack stack_;
  // Layered machinery; engaged when the stack does not reduce to the die.
  bool layered_ = false;
  std::vector<double> dz_z_;  ///< layered z-grid cell heights, surface first
  std::vector<double> k_z_;   ///< per-cell conductivity
  std::vector<double> cv_z_;  ///< per-cell volumetric heat capacity
  mutable bool transient_ready_ = false;
  /// Per-(mode, p) modal rates [1/s] of a layered stack, p-major like gain_.
  mutable std::vector<double> lambda_;

  mutable long long fft_calls_ = 0;
  mutable long long power_updates_ = 0;
};

}  // namespace ptherm::thermal
