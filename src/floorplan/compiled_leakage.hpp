// Compiled block leakage: the one leakage evaluator the solvers call.
//
// Block::leakage_current walks each gate group's series-parallel OFF network
// on every call, re-deciding ON/OFF per node and heap-allocating
// collapse_chain's drops vector. The ON/OFF partition depends only on the
// topology and its fixed input vector, so compile_all compiles it once per
// distinct (topology, inputs) in a plan (18 programs for a 4096-block
// manycore plan) into one shared set of flat op programs over a tiny value
// stack. A block's handle is a range of (program, count) terms in group
// order.
//
// Evaluation does no work twice that a call's (tech, temp, vb) already fixes:
//  * Hoisted factors. The temperature factors — VT, (T/Tref), the drain
//    factor 1 - exp(-VDD/VT), exp((0 - VTH)/(n VT)) per OFF type, and the
//    collapse's n VT, sigma VDD/(n VT) and alpha — are computed once per
//    block instead of once per gate group inside subthreshold_current,
//    collapse_f and delta_v.
//  * Folding. A program without a series collapse (an inverter, a parallel
//    OFF network, a single OFF device) has a temperature-free OFF width;
//    compile_all runs its push / parallel-sum ops once and keeps W/L.
//  * Program-major lanes. The batched leakage_power(handles, techs, temps,
//    vb, out) — every Picard sweep after the first and the exit sweep, each
//    over all of a batch's active scenarios in one call, the transient epoch
//    hook and the RTM actuator — fills a structure-of-arrays table of every
//    block's factors (four blocks per lane group), evaluates folded terms
//    block by block, then runs each series-collapse program
//    over all the blocks that hold it, op by op, four lanes at a time, and
//    sums each block's terms in group order. The lanes are an AVX2 clone
//    picked at run time; the baseline build runs the same template one lane
//    at a time.
//  * The uniform entry point. uniform_leakage_power evaluates many handles
//    at one temperature, running each distinct program once and summing per
//    block — the Picard start sweep, where every block sits at T_sink.
// Every entry point replays the arithmetic of off_reduction + collapse_chain
// + subthreshold_current in the same order on the same values, with the
// same exp/log/log1p kernel (numerics/explog.hpp, no fused multiply-add),
// so results are BITWISE equal to Block::leakage_current, which the tests
// keep as their oracle. No program caches a temperature- or
// technology-dependent value, so one handle serves every (tech, temp, vb):
// V/f corners, RTM supply levels.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "device/tech.hpp"
#include "floorplan/floorplan.hpp"

namespace ptherm::floorplan {

class CompiledBlockLeakage {
 public:
  /// Empty program: leakage_current == 0 (a block without gate groups).
  CompiledBlockLeakage() = default;

  /// Compiles one block: compile_all over a one-block span.
  explicit CompiledBlockLeakage(const Block& block);

  /// One handle per block, all sharing one interned program set. Throws the
  /// same contention / floating / missing-topology errors the uncompiled
  /// path would raise on first eval, checked once per distinct program.
  [[nodiscard]] static std::vector<CompiledBlockLeakage> compile_all(
      std::span<const Block> blocks);

  /// Bitwise equal to block.leakage_current(tech, temp, vb) [A].
  [[nodiscard]] double leakage_current(const device::Technology& tech, double temp,
                                       double vb = 0.0) const;

  /// Bitwise equal to block.leakage_power(tech, temp, vb) [W].
  [[nodiscard]] double leakage_power(const device::Technology& tech, double temp,
                                     double vb = 0.0) const {
    return leakage_current(tech, temp, vb) * tech.vdd;
  }

  /// out[e] = handles[e % n].leakage_power(tech_e, temps[e], vb), bitwise,
  /// for n = handles.size(): temps holds one or more scenario-major copies of
  /// the handle span's temperatures (every active scenario of a batched
  /// Picard sweep in one call), so temps.size() must be a multiple of n, and
  /// out holds one entry per temperature. tech_e is techs[0] when techs holds
  /// one technology and techs[e] when it holds one per temperature (an RTM
  /// block at its own V/f level, a scenario at its own). The handles of the
  /// first non-empty handle's set run program-major over every entry (see
  /// the file comment); a handle from another set falls back to its own
  /// leakage_power.
  static void leakage_power(std::span<const CompiledBlockLeakage> handles,
                            std::span<const device::Technology* const> techs,
                            std::span<const double> temps, double vb, std::span<double> out);

  /// power[i] = handles[i].leakage_power(tech, temp, vb), bitwise, with
  /// every handle at the SAME temperature. Each program of the first
  /// non-empty handle's set runs once, when a term first needs it; a handle
  /// from another set falls back to its own leakage_power. power.size()
  /// must equal handles.size().
  static void uniform_leakage_power(std::span<const CompiledBlockLeakage> handles,
                                    const device::Technology& tech, double temp, double vb,
                                    std::span<double> power);

  /// Programs in the shared set: one per distinct (topology, inputs).
  [[nodiscard]] std::size_t program_count() const noexcept { return set_ ? set_->programs : 0; }

  // The op and program representation is public for the compiler and the
  // kernel in the implementation file; the program set stays private.
  /// Post-order program over a value stack of effective widths [m].
  struct Op {
    enum class Kind : std::uint8_t {
      Push,            ///< push a device width
      ParallelSum,     ///< pop `count` widths, push their sum (child order)
      SeriesCollapse,  ///< pop `count` widths (rail-side deepest), push the
                       ///< collapse_chain equivalent width
    };
    Kind kind = Kind::Push;
    double width = 0.0;        ///< Push only
    std::int32_t count = 0;    ///< ParallelSum / SeriesCollapse only
  };

  /// One interned (topology, inputs) program: a slice of `ops` that leaves
  /// the collapsed OFF width on the stack, plus the Eq. (13) parameters. A
  /// folded program has an empty slice and holds its constant W/L instead of
  /// the channel length, so the descriptor stays 24 bytes.
  struct Program {
    device::MosType off_type = device::MosType::Nmos;
    std::int32_t id = 0;          ///< interning order, 0 .. program_count() - 1
    double length_or_wl = 0.0;    ///< channel length [m]; W/L when folded
    std::int32_t op_begin = 0;
    std::int32_t op_end = 0;
    [[nodiscard]] bool folded() const noexcept { return op_begin == op_end; }
  };

 private:
  /// One gate group of a block: its program's descriptor, held by value so
  /// the eval loop reaches the ops in one load, and how many gates run it.
  struct Term {
    Program program;
    double count = 0.0;
  };
  struct ProgramSet {
    std::vector<Op> ops;
    std::vector<Term> terms;   ///< every block's groups, block after block
    std::size_t programs = 0;  ///< distinct (topology, inputs) interned
    int max_stack = 0;         ///< deepest value stack any program needs
  };

  CompiledBlockLeakage(std::shared_ptr<const ProgramSet> set, std::int32_t term_begin,
                       std::int32_t term_end)
      : set_(std::move(set)), term_begin_(term_begin), term_end_(term_end) {}

  std::shared_ptr<const ProgramSet> set_;
  std::int32_t term_begin_ = 0;  ///< this block's slice of set_->terms
  std::int32_t term_end_ = 0;
};

}  // namespace ptherm::floorplan
