// Property test over randomly generated series-parallel gates: for every
// random topology and every input vector, the compact gate model (with the
// weak-level correction) must track a full transistor-level MNA solve of the
// very same network. This exercises arbitrary nesting the hand-written cell
// tests cannot reach.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "device/mosfet.hpp"
#include "leakage/gate.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"

namespace ptherm::leakage {
namespace {

using device::MosModel;
using device::MosType;
using device::Technology;

Technology tech() { return Technology::cmos012(); }

/// Random series-parallel network over `n_inputs` inputs with at most
/// `budget` devices. Leaves get widths in [0.3, 2.4] um.
SpNetwork random_network(Rng& rng, int n_inputs, int budget, int depth = 0) {
  if (budget <= 1 || depth >= 3 || rng.bernoulli(0.35)) {
    return SpNetwork::device(static_cast<int>(rng.uniform_index(n_inputs)),
                             rng.uniform(0.3e-6, 2.4e-6));
  }
  const int n_children = 2 + static_cast<int>(rng.uniform_index(2));  // 2..3
  std::vector<SpNetwork> children;
  int remaining = budget - 1;
  for (int c = 0; c < n_children; ++c) {
    const int share = std::max(1, remaining / (n_children - c));
    children.push_back(random_network(rng, n_inputs, share, depth + 1));
    remaining -= children.back().device_count();
  }
  return rng.bernoulli() ? SpNetwork::series(std::move(children))
                         : SpNetwork::parallel(std::move(children));
}

/// Structural dual: series <-> parallel with the same leaves (the textbook
/// complementary pull-up for a given pull-down).
SpNetwork dual_network(const SpNetwork& net, double p_over_n_width) {
  if (net.kind() == SpNetwork::Kind::Device) {
    return SpNetwork::device(net.input_index(), net.width() * p_over_n_width);
  }
  std::vector<SpNetwork> children;
  for (const auto& c : net.children()) children.push_back(dual_network(c, p_over_n_width));
  return net.kind() == SpNetwork::Kind::Series ? SpNetwork::parallel(std::move(children))
                                               : SpNetwork::series(std::move(children));
}

/// Emits the transistor-level circuit of one complementary gate and returns
/// the supply current.
class SpiceGateBuilder {
 public:
  SpiceGateBuilder(const Technology& t, const InputVector& inputs) : tech_(t) {
    vdd_ = ckt_.node("vdd");
    out_ = ckt_.node("out");
    ckt_.add_vsource("VDD", vdd_, spice::Circuit::ground(), t.vdd);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto n = ckt_.node("in" + std::to_string(i));
      ckt_.add_vsource("VIN" + std::to_string(i), n, spice::Circuit::ground(),
                       inputs[i] ? t.vdd : 0.0);
      input_nodes_.push_back(n);
    }
  }

  /// Wires `net` between `lo` (rail side) and `hi` (output side).
  void emit(const SpNetwork& net, MosType type, spice::NodeId lo, spice::NodeId hi) {
    switch (net.kind()) {
      case SpNetwork::Kind::Device: {
        const auto bulk = (type == MosType::Nmos) ? spice::Circuit::ground() : vdd_;
        // nMOS: source at the rail-side node; pMOS mirrored.
        const auto src = (type == MosType::Nmos) ? lo : hi;
        const auto drn = (type == MosType::Nmos) ? hi : lo;
        ckt_.add_mosfet("M" + std::to_string(counter_++), drn,
                        input_nodes_[net.input_index()], src, bulk,
                        MosModel(tech_, type, net.width(), tech_.l_drawn));
        return;
      }
      case SpNetwork::Kind::Series: {
        spice::NodeId prev = lo;
        for (std::size_t c = 0; c < net.children().size(); ++c) {
          const bool last = (c + 1 == net.children().size());
          const auto next = last ? hi : ckt_.node("x" + std::to_string(node_counter_++));
          emit(net.children()[c], type, prev, next);
          prev = next;
        }
        return;
      }
      case SpNetwork::Kind::Parallel:
        for (const auto& c : net.children()) emit(c, type, lo, hi);
        return;
    }
  }

  double supply_current(double temp) {
    spice::DcOptions opts;
    opts.temp = temp;
    const auto sol = spice::solve_dc(ckt_, opts);
    return -sol.vsource_currents.at("VDD");
  }

  spice::Circuit& circuit() { return ckt_; }
  spice::NodeId vdd() const { return vdd_; }
  spice::NodeId out() const { return out_; }

 private:
  Technology tech_;  // a copy: callers pass temporaries such as tech()
  spice::Circuit ckt_;
  spice::NodeId vdd_ = 0;
  spice::NodeId out_ = 0;
  std::vector<spice::NodeId> input_nodes_;
  int counter_ = 0;
  int node_counter_ = 0;
};

class RandomGateSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomGateSweep, ModelTracksMnaForEveryVector) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 13u);
  const int n_inputs = 2 + static_cast<int>(rng.uniform_index(2));  // 2..3
  GateTopology gate;
  gate.name = "random" + std::to_string(GetParam());
  gate.pull_down = random_network(rng, n_inputs, 5);
  gate.pull_up = dual_network(gate.pull_down, 2.5);
  gate.length = tech().l_drawn;

  const GateEvalOptions corrected{true};
  for (unsigned v = 0; v < (1u << n_inputs); ++v) {
    const auto inputs = vector_from_index(v, n_inputs);
    const auto model = gate_static(tech(), gate, inputs, 300.0, 0.0, corrected);

    SpiceGateBuilder builder(tech(), inputs);
    builder.emit(gate.pull_down, MosType::Nmos, spice::Circuit::ground(), builder.out());
    builder.emit(gate.pull_up, MosType::Pmos, builder.vdd(), builder.out());
    const double i_spice = builder.supply_current(300.0);

    // Random nested topologies stress the collapse approximations harder
    // than standard cells (parallel blocks inside series chains are
    // collapsed under a full-VDD assumption the real circuit does not obey).
    // Measured worst case across this corpus is ~28%; the 30% band keeps the
    // test a sharp regression detector without codifying luck.
    EXPECT_NEAR(model.i_off / i_spice, 1.0, 0.30)
        << gate.name << " inputs=" << n_inputs << " vector=" << v
        << " devices=" << gate.pull_down.device_count();
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RandomGateSweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace ptherm::leakage
