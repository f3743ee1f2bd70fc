// The paper's §2 contribution: collapsing a chain of serially connected OFF
// transistors into one equivalent transistor whose width captures the stack
// effect, using only closed-form expressions (Eqs. 3-13).
//
// Conventions: equations are written for an nMOS chain whose bottom source
// sits at the low rail and whose top drain sits at VDD; pMOS chains are
// mirrored (the paper notes the analysis is equivalent) so callers simply
// pass MosType::Pmos and the pMOS parameter set is used.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "device/mosfet.hpp"

namespace ptherm::leakage {

/// alpha of Eq. (9): n / (1 + gamma' + 2 sigma) — slope of the large-f
/// asymptote Delta-V = alpha * VT * f.
[[nodiscard]] double collapse_alpha(const device::Technology& tech) noexcept;

/// f(W_up, W_low) of Eq. (9): ln((W_up / W_low) * exp(sigma*VDD/(n*VT))).
/// `temp` sets VT.
[[nodiscard]] double collapse_f(const device::Technology& tech, double w_upper, double w_lower,
                                double temp) noexcept;

/// Case (a), Eq. (7): Delta-V = alpha * VT * f, valid for Delta-V >> VT.
[[nodiscard]] double delta_v_case_a(const device::Technology& tech, double f,
                                    double temp) noexcept;

/// Case (b), Eq. (8): Delta-V = VT * e^f, valid for Delta-V < VT.
[[nodiscard]] double delta_v_case_b(const device::Technology& tech, double f,
                                    double temp) noexcept;

/// Eq. (10): empirical blend covering both cases,
///   Delta-V = VT * [ alpha*ln(1+e^f) + (1-alpha) * e^f/(1+e^f) ].
/// (The published typography of Eq. 10 is corrupted; this reconstruction
/// matches Eq. (7) as f->inf and Eq. (8) as f->-inf, the two limits the paper
/// derives, and is validated against the exact solution — see Fig. 3 bench.)
[[nodiscard]] double delta_v_blend(const device::Technology& tech, double f,
                                   double temp) noexcept;

/// Eq. (10) with VT and alpha supplied — the blend's arithmetic, which
/// delta_v_blend evaluates after computing both, on numerics::exp and
/// numerics::log1p. floorplan/compiled_leakage hoists VT and alpha out of its
/// loops and evaluates this expression per lane, bitwise equal to it.
[[nodiscard]] double delta_v_blend_at(double f, double vt, double alpha) noexcept;

/// Extension beyond the paper: one guarded refinement of the blend through
/// the exact continuity relation  f = x/alpha + ln(1 - e^-x), x = dV/VT,
/// applied only where that map is contractive (x >~ 1.2) and faded in
/// smoothly. Still closed form — no iteration — and cuts the mid-f error of
/// the pure blend from ~5% to well under 1% (see bench/ablation_collapse).
[[nodiscard]] double delta_v_refined(const device::Technology& tech, double f,
                                     double temp) noexcept;

/// Which Delta-V expression the collapse uses. PaperBlend is Eq. (10) — the
/// published model; the others exist for the ablation study (bench A2).
enum class CollapseVariant { PaperBlend, CaseAOnly, CaseBOnly, Refined };

/// Dispatches on the variant.
[[nodiscard]] double delta_v(const device::Technology& tech, double f, double temp,
                             CollapseVariant variant) noexcept;

/// Full collapse of a chain. `widths` are ordered from the rail (bottom,
/// source of the chain) to the output (top); all devices share length L.
struct CollapseResult {
  /// Equivalent width W<1,N> of Eq. (11).
  double w_eff = 0.0;
  /// Per-device drain-source drops Delta-V_i for the N-1 non-top devices,
  /// bottom first (Eq. 10 applied pairwise during the collapse).
  std::vector<double> drops;
  /// Sum of drops = V_{N-1}, the source potential of the top device (Eq. 12).
  double v_top = 0.0;
};

[[nodiscard]] CollapseResult collapse_chain(const device::Technology& tech,
                                            device::MosType type,
                                            std::span<const double> widths, double temp,
                                            CollapseVariant variant = CollapseVariant::PaperBlend);

/// Eq. (13): OFF current of the collapsed chain at temperature `temp` with
/// optional substrate bias `vb` (reverse body bias lowers leakage).
/// Widths bottom-first, shared channel length `length`.
[[nodiscard]] double chain_off_current(const device::Technology& tech, device::MosType type,
                                       std::span<const double> widths, double length,
                                       double temp, double vb = 0.0,
                                       CollapseVariant variant = CollapseVariant::PaperBlend);

/// Single-number convenience: equal-width stack of `n` devices.
[[nodiscard]] double stack_off_current(const device::Technology& tech, device::MosType type,
                                       double width, double length, int n, double temp,
                                       double vb = 0.0,
                                       CollapseVariant variant = CollapseVariant::PaperBlend);

}  // namespace ptherm::leakage
