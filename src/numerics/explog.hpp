// Deterministic exp, log and log1p for the leakage model.
//
// One hand-written kernel (numerics/explog_kernel.hpp: Cody-Waite reduction,
// fixed polynomials, no fused multiply-add) serves both the scalar functions
// below and the four-lane builds the batched leakage entry runs, so a value
// computed one block at a time and one computed in a lane of four are the
// same bits. The lane kernels are compiled for the baseline ISA and, with
// GCC/Clang on x86, as an AVX2 clone picked at run time; both clones return
// identical bits. The results are within a few ulp of the C library's, not
// bitwise equal to them (tests/test_numerics_explog.cpp bounds the
// difference).
#pragma once

#include <span>

namespace ptherm::numerics {

/// e^x.
[[nodiscard]] double exp(double x) noexcept;
/// ln x.
[[nodiscard]] double log(double x) noexcept;
/// ln(1 + x).
[[nodiscard]] double log1p(double x) noexcept;

/// The builds of the lane kernels.
enum class Isa { Baseline, Avx2 };

/// Whether this build and this CPU can run `isa`'s build.
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// The build the library's lane kernels run: Avx2 where available, unless
/// the library was configured with PTHERM_FORCE_BASELINE_ISA (a test-only
/// switch that makes it Baseline everywhere).
[[nodiscard]] Isa dispatched_isa() noexcept;

/// y[i] = exp(x[i]), log(x[i]) or log1p(x[i]) through `isa`'s four-lane
/// build: bitwise the scalar functions. `isa` must be available; y.size()
/// must equal x.size().
void exp_lanes(Isa isa, std::span<const double> x, std::span<double> y);
void log_lanes(Isa isa, std::span<const double> x, std::span<double> y);
void log1p_lanes(Isa isa, std::span<const double> x, std::span<double> y);

}  // namespace ptherm::numerics
