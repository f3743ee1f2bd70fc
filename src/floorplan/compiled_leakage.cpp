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
};

}  // namespace

CompiledBlockLeakage::CompiledBlockLeakage(const Block& block)
    : CompiledBlockLeakage(compile_all(std::span(&block, 1)).front()) {}

std::vector<CompiledBlockLeakage> CompiledBlockLeakage::compile_all(
    std::span<const Block> blocks) {
  // Handles share the set while it is filled; it is immutable once returned.
  const auto set = std::make_shared<ProgramSet>();
  // Validates one gate state and appends its program to the set's ops.
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
    program.length = gate.length;
    program.op_begin = static_cast<std::int32_t>(set->ops.size());
    NetworkCompiler compiler(&set->ops, program.off_type, g.inputs);
    compiler.emit(up_on ? gate.pull_down : gate.pull_up);
    program.op_end = static_cast<std::int32_t>(set->ops.size());
    set->max_stack = std::max(set->max_stack, compiler.max_depth());
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
  set->programs = interned.size();
  return compiled;
}

double CompiledBlockLeakage::leakage_current(const Technology& tech, double temp,
                                             double vb) const {
  if (term_begin_ == term_end_) return 0.0;
  const ProgramSet& set = *set_;
  // Library gates stack a handful of devices; a fixed local buffer keeps the
  // eval allocation-free and thread-safe. The heap fallback is for synthetic
  // topologies deeper than any real cell.
  constexpr int kLocalStack = 32;
  double local[kLocalStack];
  std::vector<double> heap;
  double* stack = local;
  if (set.max_stack > kLocalStack) {
    heap.resize(static_cast<std::size_t>(set.max_stack));
    stack = heap.data();
  }

  device::BiasPoint bias;
  bias.vgs = 0.0;
  bias.vds = tech.vdd;
  bias.vsb = -vb;
  bias.temp = temp;

  // Locals, not members: they stay in registers across the opaque calls.
  const Op* const ops = set.ops.data();
  const Term* const end = set.terms.data() + term_end_;
  double sum = 0.0;
  for (const Term* term = set.terms.data() + term_begin_; term != end; ++term) {
    const Program& program = term->program;
    int sp = 0;
    for (std::int32_t oi = program.op_begin; oi < program.op_end; ++oi) {
      const Op& op = ops[oi];
      switch (op.kind) {
        case Op::Kind::Push:
          stack[sp++] = op.width;
          break;
        case Op::Kind::ParallelSum: {
          const int base = sp - op.count;
          double s = 0.0;  // same left-to-right sum as off_reduction's loop
          for (int i = base; i < sp; ++i) s += stack[i];
          sp = base;
          stack[sp++] = s;
          break;
        }
        case Op::Kind::SeriesCollapse: {
          // collapse_chain (Eqs. 6-12) minus the drops bookkeeping: identical
          // expressions in the identical order, so w_eq matches bitwise.
          const int base = sp - op.count;
          const double nvt = tech.n_swing * thermal_voltage(temp);
          const double body_exp = 1.0 + tech.gamma_lin + tech.sigma_dibl;
          double w_eq = stack[sp - 1];
          for (int i = sp - 2; i >= base; --i) {
            const double f = leakage::collapse_f(tech, w_eq, stack[i], temp);
            const double dv =
                leakage::delta_v(tech, f, temp, leakage::CollapseVariant::PaperBlend);
            w_eq *= std::exp(-body_exp * dv / nvt);
          }
          sp = base;
          stack[sp++] = w_eq;
          break;
        }
      }
    }
    PTHERM_ASSERT(sp == 1, "compiled program left a bad stack");
    // Eq. (13) on the collapsed width — the gate_static tail.
    const double i_off =
        device::subthreshold_current(tech, program.off_type, stack[0], program.length, bias);
    sum += term->count * i_off;
  }
  return sum;
}

}  // namespace ptherm::floorplan
