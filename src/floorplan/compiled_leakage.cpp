#include "floorplan/compiled_leakage.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "device/mosfet.hpp"
#include "leakage/collapse.hpp"
#include "numerics/explog.hpp"
#include "numerics/explog_kernel.hpp"
#include "numerics/lanes.hpp"

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

// The evaluator runs on one value type T: a double holds one block's value,
// an F64x4 four blocks' (one per lane), with the same roundings per lane.
using numerics::exp_kernel;
using numerics::F64x4;
using numerics::log_kernel;
using numerics::splat;

/// delta_v_blend_at's expression (Eq. 10) on the same kernel, so that each
/// lane's drop is the walk's bit for bit.
template <class T>
PTHERM_LANES_INLINE T blend(const T& f, const T& vt, const T& alpha) {
  // log1p/softplus guard against overflow for large |f|.
  const T softplus = numerics::select(f > 30.0, f, numerics::log1p_kernel(exp_kernel(f)));
  const T logistic = 1.0 / (1.0 + exp_kernel(-f));
  return vt * (alpha * softplus + (1.0 - alpha) * logistic);
}

/// collapse_chain's pairwise step (Eqs. 6-12, PaperBlend) in its three
/// parts, shared by the per-handle replay and the program-major passes:
/// collapse_f of the running width over the next device down the chain ...
template <class T>
PTHERM_LANES_INLINE T collapse_f_at(const T& w_eq, const T& w_lower, const T& dibl) {
  return log_kernel(w_eq / w_lower) + dibl;
}

/// ... its Delta-V, blend(f, vt, alpha), and the running width that drop
/// leaves. exp(-body_exp * dv / nvt): negating first is exact, so same bits.
template <class T>
PTHERM_LANES_INLINE T collapsed_width(const T& w_eq, const T& dv, const T& neg_body_exp,
                                      const T& nvt) {
  return w_eq * exp_kernel(neg_body_exp * dv / nvt);
}

/// The technology values the factors read, one per lane.
template <class T>
struct TechValues {
  T vdd, n_swing, t_ref, gamma_lin, sigma_dibl, k_t;
  T vt0[2], i0[2];  ///< per MosType
};

TechValues<double> tech_values(const Technology& t) {
  return {t.vdd,     t.n_swing, t.t_ref, t.gamma_lin, t.sigma_dibl, t.k_t,
          {t.vt0_n, t.vt0_p}, {t.i0_n, t.i0_p}};
}

/// Lanes per value of lane type L: 1 for a double, 4 for an F64x4.
template <class L>
inline constexpr std::size_t kWidth = sizeof(L) / sizeof(double);

/// Lane k = values[at[k]].
template <class L>
PTHERM_LANES_INLINE L gather(const double* values, const std::size_t* at) {
  if constexpr (kWidth<L> == 1) {
    return values[at[0]];
  } else {
    return L::of(values[at[0]], values[at[1]], values[at[2]], values[at[3]]);
  }
}

/// out[k] = lane k of v for k < count.
template <class L>
PTHERM_LANES_INLINE void store(double* out, std::size_t count, const L& v) {
  if constexpr (kWidth<L> == 1) {
    *out = v;
  } else if (count == kWidth<L>) {
    std::memcpy(out, &v.v, sizeof v.v);
  } else {
    for (std::size_t k = 0; k < count; ++k) out[k] = v[static_cast<int>(k)];
  }
}

/// Lane k: t[k]->*field. A function, not a lambda: a lambda is not always
/// inlined, and one returning lanes to the AVX2 clone from a baseline build
/// of itself (an unoptimized build) returns them through the wrong ABI.
template <class L>
PTHERM_LANES_INLINE L tech_lanes(const Technology* const* t, double Technology::*field) {
  double values[kWidth<L>];
  std::size_t at[kWidth<L>];
  for (std::size_t k = 0; k < kWidth<L>; ++k) {
    values[k] = t[k]->*field;
    at[k] = k;
  }
  return gather<L>(values, at);
}

/// Lane k from *t[k].
template <class L>
PTHERM_LANES_INLINE TechValues<L> tech_values(const Technology* const* t) {
  return {tech_lanes<L>(t, &Technology::vdd),
          tech_lanes<L>(t, &Technology::n_swing),
          tech_lanes<L>(t, &Technology::t_ref),
          tech_lanes<L>(t, &Technology::gamma_lin),
          tech_lanes<L>(t, &Technology::sigma_dibl),
          tech_lanes<L>(t, &Technology::k_t),
          {tech_lanes<L>(t, &Technology::vt0_n), tech_lanes<L>(t, &Technology::vt0_p)},
          {tech_lanes<L>(t, &Technology::i0_n), tech_lanes<L>(t, &Technology::i0_p)}};
}

/// collapse_chain's factors at one (tech, temp): its n VT, sigma VDD/(n VT),
/// alpha and body exponent, computed once instead of per pairwise step.
template <class T>
struct CollapseFactors {
  T vt, nvt, dibl, neg_body_exp, alpha;

  PTHERM_LANES_INLINE CollapseFactors(const TechValues<T>& t, const T& vt_)
      : vt(vt_),
        nvt(t.n_swing * vt_),
        dibl(t.sigma_dibl * t.vdd / nvt),
        neg_body_exp(-(1.0 + t.gamma_lin + t.sigma_dibl)),
        alpha(t.n_swing / (1.0 + t.gamma_lin + 2.0 * t.sigma_dibl)) {}  // collapse_alpha

  /// collapse_chain's pairwise step (Eqs. 6-12, PaperBlend): the running
  /// equivalent width after absorbing the next device down the chain.
  PTHERM_LANES_INLINE T collapse(const T& w_eq, const T& w_lower) const noexcept {
    return collapsed_width(w_eq, blend(collapse_f_at(w_eq, w_lower, dibl), vt, alpha),
                           neg_body_exp, nvt);
  }
};

/// thermal_voltage(temp).
template <class T>
PTHERM_LANES_INLINE T thermal_voltage_of(const T& temp) {
  return kBoltzmann * temp / kElementaryCharge;
}

/// subthreshold_current's drain factor 1 - exp(-VDS/VT) at Eq. (13)'s VDS = VDD.
template <class T>
PTHERM_LANES_INLINE T drain_factor_of(const TechValues<T>& t, const T& vt) {
  return 1.0 - exp_kernel(-t.vdd / vt);
}

/// subthreshold_current's exp((VGS - VTH)/(n VT)) at Eq. (13)'s bias VGS = 0,
/// VDS = VDD, VSB = -vb, with threshold_voltage's expression for VTH.
template <class T>
PTHERM_LANES_INLINE T exp_term_of(const TechValues<T>& t, int type, const T& temp, const T& vt,
                                double vb) {
  const T vth = t.vt0[type] + t.gamma_lin * -vb + t.k_t * (temp - t.t_ref) -
                t.sigma_dibl * (t.vdd - t.vdd);
  return exp_kernel((0.0 - vth) / (t.n_swing * vt));
}

/// The factors one (tech, temp, vb) fixes for every gate group of one block,
/// computed once per call. The Eq. (13) exponential of each OFF type is
/// computed on first use: a block of one type never pays for the other.
class Factors {
 public:
  Factors(const Technology& tech, double temp, double vb)
      : tech_(tech_values(tech)),
        temp_(temp),
        vb_(vb),
        ratio_(temp / tech.t_ref),
        collapse_(tech_, thermal_voltage_of(temp)),
        drain_factor_(drain_factor_of(tech_, collapse_.vt)) {}

  [[nodiscard]] const CollapseFactors<double>& collapse() const noexcept { return collapse_; }

  /// Eq. (13): subthreshold_current of the collapsed OFF device.
  [[nodiscard]] double off_current(MosType type, double w_over_l) noexcept {
    const int t = static_cast<int>(type);
    double& exp_term = exp_term_[t];
    if (exp_term < 0.0) exp_term = exp_term_of(tech_, t, temp_, collapse_.vt, vb_);
    return device::subthreshold_product(tech_.i0[t], w_over_l, ratio_, exp_term, drain_factor_);
  }

 private:
  TechValues<double> tech_;
  double temp_;
  double vb_;
  double ratio_;
  CollapseFactors<double> collapse_;
  double drain_factor_;
  double exp_term_[2] = {-1.0, -1.0};  ///< per MosType; < 0: not yet computed
};

/// Replays ops [op, end) on `stack` and returns the width they leave. A
/// series collapse needs `factors`; the temperature-free programs the
/// compile-time fold runs pass none.
double replay(const CompiledBlockLeakage::Op* op, const CompiledBlockLeakage::Op* end,
              double* stack, const CollapseFactors<double>* factors) {
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
/// Eq. (13) — the one kernel both single-temperature entry points call.
double off_current(const CompiledBlockLeakage::Op* ops,
                   const CompiledBlockLeakage::Program& program, Factors& factors,
                   double* stack) {
  const double w_over_l =
      program.folded() ? program.length_or_wl
                       : replay(ops + program.op_begin, ops + program.op_end, stack,
                                &factors.collapse()) /
                             program.length_or_wl;
  return factors.off_current(program.off_type, w_over_l);
}

/// Rows of the batched entry's per-block factor table, each n long.
enum Row : std::size_t {
  kVt,
  kNvt,
  kDibl,
  kNegBodyExp,
  kAlpha,
  kRatio,
  kDrain,
  kExpTerm,           ///< two rows, by MosType
  kI0 = kExpTerm + 2,  ///< two rows, by MosType
  kRows = kI0 + 2,
};

/// The blocks holding one series-collapse program: their term slots and
/// their positions in the handle span.
struct Holders {
  const CompiledBlockLeakage::Program* program = nullptr;
  std::vector<std::size_t> slot;
  std::vector<std::size_t> block;  ///< padded to a multiple of 4 with its last
};

/// The batched entry's buffers, kept per thread so that a sweep allocates
/// nothing once they have grown to the plan.
struct Workspace {
  std::vector<double> table;         ///< kRows rows of n factors
  std::vector<double> i_off;         ///< one gate's OFF current per term slot
  std::vector<std::int32_t> ranges;  ///< per block: its term range, or empty
  std::vector<Holders> holders;      ///< by program id
  std::vector<double> values;        ///< a program's value stack, one array per entry
  std::vector<double> f;             ///< collapse_f per holder
  std::vector<double> dv;            ///< Delta-V per holder
};

/// Lanes [i, i + kWidth<L>) of p.
template <class L>
PTHERM_LANES_INLINE L load(const double* p) {
  if constexpr (kWidth<L> == 1) {
    return *p;
  } else {
    L v;
    std::memcpy(&v.v, p, sizeof v.v);
    return v;
  }
}

/// One batched evaluation on lane type L: every block's factors, then every
/// term's OFF current into ws.i_off. Folded programs are evaluated block by
/// block; each series-collapse program then runs over all the blocks that
/// hold it, op by op, kW lanes at a time.
template <class L>
class Sweep {
 public:
  static constexpr std::size_t kW = kWidth<L>;

  PTHERM_LANES_INLINE Sweep(Workspace& ws, std::size_t n, const CompiledBlockLeakage::Op* ops,
                            int max_stack)
      : ws_(ws), n_(n), ops_(ops), max_stack_(static_cast<std::size_t>(max_stack)) {}

  /// Fills every block's factors, kW blocks at a time, from one technology
  /// (kOneTech) or one per block.
  template <bool kOneTech>
  PTHERM_LANES_INLINE void factors(std::span<const Technology* const> techs,
                                   std::span<const double> temps, double vb) {
    const Technology* lane[kW];
    for (std::size_t k = 0; k < kW; ++k) lane[k] = techs[0];
    TechValues<L> t = tech_values<L>(lane);
    for (std::size_t i = 0; i < n_; i += kW) {
      const std::size_t count = std::min(kW, n_ - i);
      std::size_t at[kW];
      for (std::size_t k = 0; k < kW; ++k) at[k] = i + std::min(k, count - 1);
      if constexpr (!kOneTech) {
        for (std::size_t k = 0; k < kW; ++k) lane[k] = techs[at[k]];
        t = tech_values<L>(lane);
      }
      const L temp = gather<L>(temps.data(), at);
      const CollapseFactors<L> c(t, thermal_voltage_of(temp));
      store(row(kVt) + i, count, c.vt);
      store(row(kNvt) + i, count, c.nvt);
      store(row(kDibl) + i, count, c.dibl);
      store(row(kNegBodyExp) + i, count, c.neg_body_exp);
      store(row(kAlpha) + i, count, c.alpha);
      store(row(kRatio) + i, count, L(temp / t.t_ref));
      store(row(kDrain) + i, count, drain_factor_of(t, c.vt));
      for (int type = 0; type < 2; ++type) {
        store(row(kExpTerm + type) + i, count, exp_term_of(t, type, temp, c.vt, vb));
        store(row(kI0 + type) + i, count, t.i0[type]);
      }
    }
  }

  /// Every term of every block; terms[ws.ranges[2b] .. ws.ranges[2b + 1])
  /// are block b's, and term slots count through them in that order.
  template <class Term>
  PTHERM_LANES_INLINE void terms(const Term* terms) {
    for (Holders& h : ws_.holders) {
      h.slot.clear();
      h.block.clear();
    }
    std::size_t s = 0;
    for (std::size_t b = 0; b < n_; ++b) {
      const Term* const end = terms + ws_.ranges[2 * b + 1];
      for (const Term* term = terms + ws_.ranges[2 * b]; term != end; ++term, ++s) {
        const CompiledBlockLeakage::Program& program = term->program;
        if (program.folded()) {
          const auto type = static_cast<std::size_t>(program.off_type);
          ws_.i_off[s] = device::subthreshold_product(at(kI0 + type, b), program.length_or_wl,
                                                      at(kRatio, b), at(kExpTerm + type, b),
                                                      at(kDrain, b));
          continue;
        }
        Holders& h = ws_.holders[static_cast<std::size_t>(program.id)];
        h.program = &program;
        h.slot.push_back(s);
        h.block.push_back(b);
      }
    }
    for (Holders& h : ws_.holders) {
      if (!h.slot.empty()) run(h);
    }
  }

 private:
  PTHERM_LANES_INLINE double* row(std::size_t r) { return ws_.table.data() + r * n_; }
  PTHERM_LANES_INLINE double at(std::size_t r, std::size_t b) const {
    return ws_.table[r * n_ + b];
  }
  /// Row r's factors of the blocks at[0 .. kW). A member, not a lambda: see
  /// tech_lanes.
  PTHERM_LANES_INLINE L lanes(std::size_t r, const std::size_t* at) {
    return gather<L>(row(r), at);
  }

  /// Replays h's program over every holder: each value-stack entry is an
  /// array with one value per holder, and each op runs over all of them
  /// before the next, so consecutive lane groups are independent work.
  PTHERM_LANES_INLINE void run(Holders& h) {
    const std::size_t m = h.slot.size();
    const std::size_t padded = (m + 3) / 4 * 4;
    h.block.resize(padded, h.block.back());
    const std::size_t* const blocks = h.block.data();
    ws_.values.resize(max_stack_ * padded);
    ws_.f.resize(padded);
    ws_.dv.resize(padded);
    const auto entry = [&](std::size_t k) { return ws_.values.data() + k * padded; };
    using Kind = CompiledBlockLeakage::Op::Kind;
    const CompiledBlockLeakage::Program& program = *h.program;
    std::size_t sp = 0;
    for (const auto* op = ops_ + program.op_begin; op != ops_ + program.op_end; ++op) {
      switch (op->kind) {
        case Kind::Push:
          std::fill(entry(sp), entry(sp) + padded, op->width);
          ++sp;
          break;
        case Kind::ParallelSum: {
          // off_reduction's left-to-right sum from 0.0, per holder.
          const std::size_t base = sp - static_cast<std::size_t>(op->count);
          for (std::size_t i = 0; i < padded; i += kW) {
            L sum = splat<L>(0.0);
            for (std::size_t k = base; k < sp; ++k) sum += load<L>(entry(k) + i);
            store(entry(base) + i, kW, sum);
          }
          sp = base + 1;
          break;
        }
        case Kind::SeriesCollapse: {
          // collapse_chain's pairwise steps, rail-side last, each split in
          // three passes over the holders (collapse_f, Delta-V, the width
          // update): the collapse's expressions, in its order.
          const std::size_t base = sp - static_cast<std::size_t>(op->count);
          double* const w_eq = entry(sp - 1);
          for (std::size_t k = sp - 1; k-- > base;) {
            const double* const w_lower = entry(k);
            for (std::size_t i = 0; i < padded; i += kW) {
              store(ws_.f.data() + i, kW,
                    collapse_f_at(load<L>(w_eq + i), load<L>(w_lower + i),
                                  lanes(kDibl, blocks + i)));
            }
            for (std::size_t i = 0; i < padded; i += kW) {
              store(ws_.dv.data() + i, kW,
                    blend(load<L>(ws_.f.data() + i), lanes(kVt, blocks + i),
                          lanes(kAlpha, blocks + i)));
            }
            for (std::size_t i = 0; i < padded; i += kW) {
              store(w_eq + i, kW,
                    collapsed_width(load<L>(w_eq + i), load<L>(ws_.dv.data() + i),
                                    lanes(kNegBodyExp, blocks + i), lanes(kNvt, blocks + i)));
            }
          }
          if (base != sp - 1) std::copy(w_eq, w_eq + padded, entry(base));
          sp = base + 1;
          break;
        }
      }
    }
    PTHERM_ASSERT(sp == 1, "compiled program left a bad stack");
    // Eq. (13) of the collapsed OFF width, as off_current does it.
    const auto type = static_cast<std::size_t>(program.off_type);
    for (std::size_t i = 0; i < padded; i += kW) {
      const L w_over_l = load<L>(entry(0) + i) / program.length_or_wl;
      const std::size_t* const at = blocks + i;
      const L current = device::subthreshold_product(lanes(kI0 + type, at), w_over_l,
                                                     lanes(kRatio, at), lanes(kExpTerm + type, at),
                                                     lanes(kDrain, at));
      for (std::size_t k = 0; k < kW && i + k < m; ++k) {
        ws_.i_off[h.slot[i + k]] = numerics::lane(current, static_cast<int>(k));
      }
    }
  }

  Workspace& ws_;
  std::size_t n_;
  const CompiledBlockLeakage::Op* ops_;
  std::size_t max_stack_;
};

/// The lane work of one batched evaluation, written once: 4-lane F64x4 in
/// the AVX2 clone, one lane at a time in the baseline build (a 32-byte
/// vector without AVX spills through memory); numerics::dispatched_isa
/// picks. Both return the scalar kernel's bits. Each clone starts on a
/// 64-byte boundary, so that edits elsewhere in the library do not move its
/// loops across cache lines.
template <class L, class Term>
PTHERM_LANES_INLINE void sweep(Workspace& ws, const CompiledBlockLeakage::Op* ops, int max_stack,
                               const Term* terms, std::span<const Technology* const> techs,
                               std::span<const double> temps, double vb) {
  Sweep<L> s(ws, temps.size(), ops, max_stack);
  if (techs.size() == 1) {
    s.template factors<true>(techs, temps, vb);
  } else {
    s.template factors<false>(techs, temps, vb);
  }
  s.terms(terms);
}

template <class Term>
[[gnu::aligned(64)]] void sweep_baseline(Workspace& ws, const CompiledBlockLeakage::Op* ops,
                                         int max_stack, const Term* terms,
                                         std::span<const Technology* const> techs,
                                         std::span<const double> temps, double vb) {
  sweep<double>(ws, ops, max_stack, terms, techs, temps, vb);
}

#if PTHERM_HAVE_AVX2_CLONE
template <class Term>
[[gnu::aligned(64)]] PTHERM_TARGET_AVX2 void sweep_avx2(Workspace& ws,
                                                        const CompiledBlockLeakage::Op* ops,
                                                        int max_stack, const Term* terms,
                                                        std::span<const Technology* const> techs,
                                                        std::span<const double> temps, double vb) {
  sweep<F64x4>(ws, ops, max_stack, terms, techs, temps, vb);
}
#endif

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

void CompiledBlockLeakage::leakage_power(std::span<const CompiledBlockLeakage> handles,
                                         std::span<const Technology* const> techs,
                                         std::span<const double> temps, double vb,
                                         std::span<double> out) {
  const std::size_t n = handles.size();
  // Entry e evaluates handles[i] at temps[e], i = e % n (counted, not
  // divided, in the loops below): one copy of the handle span per scenario
  // of a batched sweep.
  const std::size_t entries = temps.size();
  PTHERM_REQUIRE(n == 0 ? entries == 0 : entries % n == 0,
                 "leakage_power: need a whole number of temperatures per handle");
  PTHERM_REQUIRE(out.size() == entries, "leakage_power: need one output per temperature");
  PTHERM_REQUIRE(techs.size() == 1 || techs.size() == entries,
                 "leakage_power: need one technology, or one per temperature");
  if (entries == 0) return;
  const auto tech = [&](std::size_t e) -> const Technology& {
    return *techs[techs.size() == 1 ? 0 : e];
  };
  const ProgramSet* shared = nullptr;
  for (const auto& h : handles) {
    if (h.term_begin_ != h.term_end_) {
      shared = h.set_.get();
      break;
    }
  }
  const auto in_shared = [&](const CompiledBlockLeakage& h) {
    return h.set_.get() == shared && h.term_begin_ != h.term_end_;
  };
  if (shared == nullptr) {
    for (std::size_t e = 0, i = 0; e < entries; ++e, i = i + 1 == n ? 0 : i + 1) {
      out[e] = handles[i].leakage_power(tech(e), temps[e], vb);
    }
    return;
  }

  // One slot per term of the shared handles, in entry then group order;
  // the other handles get an empty range and evaluate themselves below.
  thread_local Workspace ws;
  ws.ranges.resize(2 * entries);
  std::size_t slots = 0;
  for (std::size_t e = 0, i = 0; e < entries; ++e, i = i + 1 == n ? 0 : i + 1) {
    const CompiledBlockLeakage& h = handles[i];
    const bool run = in_shared(h);
    ws.ranges[2 * e] = run ? h.term_begin_ : 0;
    ws.ranges[2 * e + 1] = run ? h.term_end_ : 0;
    if (run) slots += static_cast<std::size_t>(h.term_end_ - h.term_begin_);
  }
  ws.table.resize(kRows * entries);
  ws.i_off.resize(slots);
  ws.holders.resize(shared->programs);
  const Op* const ops = shared->ops.data();
#if PTHERM_HAVE_AVX2_CLONE
  if (numerics::dispatched_isa() == numerics::Isa::Avx2) {
    sweep_avx2(ws, ops, shared->max_stack, shared->terms.data(), techs, temps, vb);
  } else {
    sweep_baseline(ws, ops, shared->max_stack, shared->terms.data(), techs, temps, vb);
  }
#else
  sweep_baseline(ws, ops, shared->max_stack, shared->terms.data(), techs, temps, vb);
#endif

  // leakage_current's sum in group order, over the same per-term values.
  std::size_t s = 0;
  for (std::size_t e = 0, i = 0; e < entries; ++e, i = i + 1 == n ? 0 : i + 1) {
    const CompiledBlockLeakage& h = handles[i];
    if (!in_shared(h)) {
      out[e] = h.leakage_power(tech(e), temps[e], vb);
      continue;
    }
    const Term* const end = shared->terms.data() + h.term_end_;
    double sum = 0.0;
    for (const Term* term = shared->terms.data() + h.term_begin_; term != end; ++term) {
      sum += term->count * ws.i_off[s++];
    }
    out[e] = sum * tech(e).vdd;
  }
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
