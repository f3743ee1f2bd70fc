#include "floorplan/compiled_leakage.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "device/mosfet.hpp"
#include "leakage/collapse.hpp"

namespace ptherm::floorplan {

using device::MosType;
using device::Technology;
using leakage::SpNetwork;

namespace {

/// Emits the op program for one OFF network. Mirrors SpNetwork::off_reduction
/// exactly: the recursion order here is the traversal order there, so the
/// replayed floating-point operations form the same dependency chains.
class NetworkCompiler {
 public:
  NetworkCompiler(std::vector<CompiledBlockLeakage::Op>* ops, MosType off_type,
                  const leakage::InputVector& inputs)
      : ops_(ops), off_type_(off_type), inputs_(inputs) {}

  int max_depth() const noexcept { return max_depth_; }
  /// Whether the program holds a series collapse, i.e. depends on temperature.
  bool collapses() const noexcept { return collapses_; }

  void emit(const SpNetwork& net) {
    switch (net.kind()) {
      case SpNetwork::Kind::Device:
        PTHERM_ASSERT(!net.is_on(off_type_, inputs_), "compile: device unexpectedly ON");
        push({CompiledBlockLeakage::Op::Kind::Push, net.width(), 0});
        return;

      case SpNetwork::Kind::Parallel: {
        // An OFF parallel block has no ON branch (any ON branch would short
        // it); every child contributes one width, summed in child order.
        for (const auto& c : net.children()) emit(c);
        reduce({CompiledBlockLeakage::Op::Kind::ParallelSum, 0.0,
                static_cast<std::int32_t>(net.children().size())});
        return;
      }

      case SpNetwork::Kind::Series: {
        // ON children are internal shorts; the OFF children form a chain,
        // rail-side first — exactly the `widths` vector off_reduction builds.
        std::int32_t off_children = 0;
        for (const auto& c : net.children()) {
          if (c.is_on(off_type_, inputs_)) continue;
          emit(c);
          ++off_children;
        }
        PTHERM_ASSERT(off_children > 0, "compile: series unexpectedly ON");
        if (off_children > 1) {
          reduce({CompiledBlockLeakage::Op::Kind::SeriesCollapse, 0.0, off_children});
          collapses_ = true;
        }
        return;
      }
    }
  }

 private:
  void push(CompiledBlockLeakage::Op op) {
    ops_->push_back(op);
    max_depth_ = std::max(max_depth_, ++depth_);
  }
  void reduce(CompiledBlockLeakage::Op op) {
    ops_->push_back(op);
    depth_ -= op.count - 1;
  }

  std::vector<CompiledBlockLeakage::Op>* ops_;
  MosType off_type_;
  const leakage::InputVector& inputs_;
  int depth_ = 0;
  int max_depth_ = 0;
  bool collapses_ = false;
};

// Library gates stack a handful of devices; a fixed local buffer keeps the
// evaluation (and the compile-time fold) allocation-free and thread-safe.
constexpr int kLocalStack = 32;

/// The value stack of one evaluation: the local buffer, or the heap for
/// synthetic topologies deeper than any real cell.
class ValueStack {
 public:
  explicit ValueStack(int depth) {
    if (depth > kLocalStack) {
      heap_.resize(static_cast<std::size_t>(depth));
      data_ = heap_.data();
    }
  }
  ValueStack(const ValueStack&) = delete;
  ValueStack& operator=(const ValueStack&) = delete;

  double* data() noexcept { return data_; }

 private:
  double local_[kLocalStack];
  std::vector<double> heap_;
  double* data_ = local_;
};

/// The factors one (tech, temp, vb) fixes for every gate group, computed
/// once per call with subthreshold_current's and collapse_chain's
/// expressions. The Eq. (13) exponential of each OFF type is computed on
/// first use: a block of one type never pays for the other.
class Factors {
 public:
  // Eq. (13)'s bias: VGS = 0, VDS = VDD, VSB = -vb (gate_static's).
  Factors(const Technology& tech, double temp, double vb)
      : tech_(tech),
        bias_{0.0, tech.vdd, -vb, temp},
        vt_(thermal_voltage(temp)),
        ratio_(temp / tech.t_ref),
        drain_factor_(1.0 - std::exp(-bias_.vds / vt_)),
        nvt_(tech.n_swing * vt_),
        dibl_(tech.sigma_dibl * tech.vdd / nvt_),
        neg_body_exp_(-(1.0 + tech.gamma_lin + tech.sigma_dibl)),
        alpha_(leakage::collapse_alpha(tech)) {}

  /// collapse_chain's pairwise step (Eqs. 6-12, PaperBlend): the running
  /// equivalent width after absorbing the next device down the chain.
  [[nodiscard]] double collapse(double w_eq, double w_lower) const noexcept {
    const double f = std::log(w_eq / w_lower) + dibl_;  // collapse_f
    const double dv = leakage::delta_v_blend_at(f, vt_, alpha_);
    // exp(-body_exp * dv / nvt): negating first is exact, so same bits.
    return w_eq * std::exp(neg_body_exp_ * dv / nvt_);
  }

  /// Eq. (13): subthreshold_current of the collapsed OFF device.
  [[nodiscard]] double off_current(MosType type, double w_over_l) noexcept {
    double& exp_term = exp_term_[static_cast<int>(type)];
    if (exp_term < 0.0) {
      const double vth = device::threshold_voltage(tech_, type, bias_);
      exp_term = std::exp((bias_.vgs - vth) / (tech_.n_swing * vt_));
    }
    return device::subthreshold_product(tech_.i0(type), w_over_l, ratio_, exp_term,
                                        drain_factor_);
  }

 private:
  const Technology& tech_;
  device::BiasPoint bias_;
  double vt_;
  double ratio_;
  double drain_factor_;
  double nvt_;
  double dibl_;
  double neg_body_exp_;
  double alpha_;
  double exp_term_[2] = {-1.0, -1.0};  ///< per MosType; < 0: not yet computed
};

/// Replays ops [op, end) on `stack` and returns the width they leave. A
/// series collapse needs `factors`; the temperature-free programs the
/// compile-time fold runs pass none.
double replay(const CompiledBlockLeakage::Op* op, const CompiledBlockLeakage::Op* end,
              double* stack, const Factors* factors) {
  using Kind = CompiledBlockLeakage::Op::Kind;
  int sp = 0;
  for (; op != end; ++op) {
    switch (op->kind) {
      case Kind::Push:
        stack[sp++] = op->width;
        break;
      case Kind::ParallelSum: {
        const int base = sp - op->count;
        double s = 0.0;  // same left-to-right sum as off_reduction's loop
        for (int i = base; i < sp; ++i) s += stack[i];
        sp = base;
        stack[sp++] = s;
        break;
      }
      case Kind::SeriesCollapse: {
        // collapse_chain minus the drops bookkeeping: identical expressions
        // in the identical order, so w_eq matches bitwise.
        PTHERM_ASSERT(factors != nullptr, "series collapse needs a temperature");
        const int base = sp - op->count;
        double w_eq = stack[sp - 1];
        for (int i = sp - 2; i >= base; --i) w_eq = factors->collapse(w_eq, stack[i]);
        sp = base;
        stack[sp++] = w_eq;
        break;
      }
    }
  }
  PTHERM_ASSERT(sp == 1, "compiled program left a bad stack");
  return stack[0];
}

/// One gate running `program`: its OFF width (folded, or replayed) through
/// Eq. (13) — the one kernel both entry points call.
double off_current(const CompiledBlockLeakage::Op* ops,
                   const CompiledBlockLeakage::Program& program, Factors& factors,
                   double* stack) {
  const double w_over_l =
      program.folded()
          ? program.length_or_wl
          : replay(ops + program.op_begin, ops + program.op_end, stack, &factors) /
                program.length_or_wl;
  return factors.off_current(program.off_type, w_over_l);
}

}  // namespace

CompiledBlockLeakage::CompiledBlockLeakage(const Block& block)
    : CompiledBlockLeakage(compile_all(std::span(&block, 1)).front()) {}

std::vector<CompiledBlockLeakage> CompiledBlockLeakage::compile_all(
    std::span<const Block> blocks) {
  // 16,384 terms on a 4096-block plan: a wider term costs resident memory.
  static_assert(sizeof(Term) == 32, "Term must stay 32 bytes");
  // Handles share the set while it is filled; it is immutable once returned.
  const auto set = std::make_shared<ProgramSet>();
  // Validates one gate state and appends its program to the set.
  const auto compile = [&](const GateGroup& g) {
    const auto& gate = *g.gate;
    PTHERM_REQUIRE(gate.length > 0.0, "CompiledBlockLeakage: gate.length not set");
    PTHERM_REQUIRE(static_cast<int>(g.inputs.size()) >= gate.input_count(),
                   "CompiledBlockLeakage: input vector too short");

    const bool up_on = gate.pull_up.is_on(MosType::Pmos, g.inputs);
    const bool down_on = gate.pull_down.is_on(MosType::Nmos, g.inputs);
    PTHERM_REQUIRE(!(up_on && down_on),
                   "CompiledBlockLeakage: contention (both networks ON) — not static CMOS");
    PTHERM_REQUIRE(up_on || down_on,
                   "CompiledBlockLeakage: floating output (both networks OFF) — not static CMOS");

    Program program;
    program.off_type = up_on ? MosType::Nmos : MosType::Pmos;
    program.id = static_cast<std::int32_t>(set->programs++);
    program.op_begin = static_cast<std::int32_t>(set->ops.size());
    NetworkCompiler compiler(&set->ops, program.off_type, g.inputs);
    compiler.emit(up_on ? gate.pull_down : gate.pull_up);
    if (!compiler.collapses() && compiler.max_depth() <= kLocalStack) {
      // Temperature-free: run the pushes and sums now, keep W/L, drop the ops.
      double stack[kLocalStack];
      const Op* const ops = set->ops.data();
      program.length_or_wl =
          replay(ops + program.op_begin, ops + set->ops.size(), stack, nullptr) / gate.length;
      set->ops.resize(static_cast<std::size_t>(program.op_begin));
    } else {
      program.length_or_wl = gate.length;
      set->max_stack = std::max(set->max_stack, compiler.max_depth());
    }
    program.op_end = static_cast<std::int32_t>(set->ops.size());
    return program;
  };

  // The interning key points into the blocks' own groups, which outlive this
  // call, so a lookup copies no input vector.
  using Key = std::pair<const leakage::GateTopology*, const leakage::InputVector*>;
  const auto hash = [](const Key& k) {
    return std::hash<const void*>{}(k.first) ^ std::hash<leakage::InputVector>{}(*k.second);
  };
  const auto equal = [](const Key& a, const Key& b) {
    return a.first == b.first && *a.second == *b.second;
  };
  std::unordered_map<Key, Program, decltype(hash), decltype(equal)> interned(0, hash, equal);
  std::vector<CompiledBlockLeakage> compiled;
  compiled.reserve(blocks.size());
  for (const Block& block : blocks) {
    const auto begin = static_cast<std::int32_t>(set->terms.size());
    for (const auto& g : block.gate_groups) {
      PTHERM_ASSERT(g.gate != nullptr, "GateGroup without topology");
      const auto [it, fresh] = interned.try_emplace(Key{g.gate.get(), &g.inputs});
      if (fresh) it->second = compile(g);
      set->terms.push_back({it->second, g.count});
    }
    compiled.push_back(
        CompiledBlockLeakage(set, begin, static_cast<std::int32_t>(set->terms.size())));
  }
  return compiled;
}

double CompiledBlockLeakage::leakage_current(const Technology& tech, double temp,
                                             double vb) const {
  if (term_begin_ == term_end_) return 0.0;
  const ProgramSet& set = *set_;
  ValueStack stack(set.max_stack);
  Factors factors(tech, temp, vb);
  // Locals, not members: they stay in registers across the opaque calls.
  const Op* const ops = set.ops.data();
  const Term* const end = set.terms.data() + term_end_;
  double sum = 0.0;
  for (const Term* term = set.terms.data() + term_begin_; term != end; ++term) {
    sum += term->count * off_current(ops, term->program, factors, stack.data());
  }
  return sum;
}

void CompiledBlockLeakage::uniform_leakage_power(std::span<const CompiledBlockLeakage> handles,
                                                 const Technology& tech, double temp,
                                                 double vb, std::span<double> power) {
  PTHERM_REQUIRE(power.size() == handles.size(),
                 "uniform_leakage_power: need one output per handle");
  const ProgramSet* shared = nullptr;
  for (const auto& h : handles) {
    if (h.term_begin_ != h.term_end_) {
      shared = h.set_.get();
      break;
    }
  }
  // One gate's OFF current per program of the shared set, by id, each run
  // the first time a term needs it (< 0: not yet run).
  std::vector<double> i_off(shared != nullptr ? shared->programs : 0, -1.0);
  ValueStack stack(shared != nullptr ? shared->max_stack : 0);
  Factors factors(tech, temp, vb);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const CompiledBlockLeakage& h = handles[i];
    if (h.set_.get() != shared || h.term_begin_ == h.term_end_) {
      power[i] = h.leakage_power(tech, temp, vb);
      continue;
    }
    // leakage_current's sum in group order, over the same per-program values.
    const Term* const end = shared->terms.data() + h.term_end_;
    double sum = 0.0;
    for (const Term* term = shared->terms.data() + h.term_begin_; term != end; ++term) {
      double& program_i_off = i_off[static_cast<std::size_t>(term->program.id)];
      if (program_i_off < 0.0) {
        program_i_off = off_current(shared->ops.data(), term->program, factors, stack.data());
      }
      sum += term->count * program_i_off;
    }
    power[i] = sum * tech.vdd;
  }
}

}  // namespace ptherm::floorplan
