// Thermal influence operator: the dense block-to-block coupling R[i][j] =
// rise at sample point i per watt injected in block j [K/W] that the
// concurrent electro-thermal fixed point iterates on. Every thermal backend
// is linear in injected power, so the operator captures them exactly; it is
// precomputed once and the Picard loop then costs one dense matvec per
// iteration (flat row-major storage, no pointer chasing).
//
// Construction is batched per column by the backend layer
// (thermal/backend.hpp):
//  * Analytic: a single-source image model per column evaluates only that
//    column's mirror images.
//  * FDM: one solver (one stencil assembly + one IC(0) factorization) for
//    every column, each unit-source CG warm-started from the previous
//    column's field translated onto the new source position.
//  * Spectral: one mode-space multiply per column — no linear solve at all.
// The free builders below keep the caller-owned-solver form for benches and
// tests; `ElectroThermalSolver` itself goes through `thermal::SolverBackend`.
#pragma once

#include <span>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/backend.hpp"

namespace ptherm::core {

/// Surface point an influence row reports the rise at (a block centre in the
/// co-simulation use).
using InfluenceSample = thermal::SurfaceSample;

/// The dense influence operator is the thermal layer's dense realization of
/// the InfluenceApply seam; this name is kept for the builders below and
/// their callers.
using InfluenceOperator = thermal::DenseInfluenceApply;

/// Block centres of a floorplan — the sample points the co-simulation uses.
[[nodiscard]] std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp);

/// Batched analytic build: column j comes from a single-source image model
/// (only source j's images are evaluated). `sources` supplies geometry; the
/// powers are ignored (unit power per column).
[[nodiscard]] InfluenceOperator build_influence_analytic(
    const thermal::Die& die, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, const thermal::ImageOptions& opts = {});

/// Batched FDM build against a caller-owned solver (stencil assembled and
/// factorized once for all columns). With `warm_start`, column j's CG starts
/// from the previous column's field translated (edge-replicated) onto this
/// column's source position; pass false for the reference per-column
/// cold-start build. Throws
/// ptherm::PreconditionError naming the column, the failure mode (CG
/// breakdown versus iteration limit), and the residual if a column fails to
/// converge. A non-null `stats` receives this build's cost counters.
[[nodiscard]] InfluenceOperator build_influence_fdm(
    const thermal::FdmThermalSolver& solver, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, bool warm_start = true,
    thermal::BackendCostStats* stats = nullptr);

/// Batched spectral build against a caller-owned solver: each column is one
/// analytic mode projection plus one mode-space multiply.
[[nodiscard]] InfluenceOperator build_influence_spectral(
    const thermal::SpectralThermalSolver& solver, std::vector<thermal::HeatSource> sources,
    std::span<const InfluenceSample> samples, thermal::BackendCostStats* stats = nullptr);

}  // namespace ptherm::core
