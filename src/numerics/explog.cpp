#include "numerics/explog.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "numerics/explog_kernel.hpp"

namespace ptherm::numerics {

namespace explog_detail {

// 2^(j/128) rounded to double, and the relative error of that rounding,
// (2^(j/128) - hi) / hi, from 60-digit decimal arithmetic.
const double kExp2Hi[128] = {
    0x1.0000000000000p+0, 0x1.0163da9fb3335p+0, 0x1.02c9a3e778061p+0, 0x1.04315e86e7f85p+0,
    0x1.059b0d3158574p+0, 0x1.0706b29ddf6dep+0, 0x1.0874518759bc8p+0, 0x1.09e3ecac6f383p+0,
    0x1.0b5586cf9890fp+0, 0x1.0cc922b7247f7p+0, 0x1.0e3ec32d3d1a2p+0, 0x1.0fb66affed31bp+0,
    0x1.11301d0125b51p+0, 0x1.12abdc06c31ccp+0, 0x1.1429aaea92de0p+0, 0x1.15a98c8a58e51p+0,
    0x1.172b83c7d517bp+0, 0x1.18af9388c8deap+0, 0x1.1a35beb6fcb75p+0, 0x1.1bbe084045cd4p+0,
    0x1.1d4873168b9aap+0, 0x1.1ed5022fcd91dp+0, 0x1.2063b88628cd6p+0, 0x1.21f49917ddc96p+0,
    0x1.2387a6e756238p+0, 0x1.251ce4fb2a63fp+0, 0x1.26b4565e27cddp+0, 0x1.284dfe1f56381p+0,
    0x1.29e9df51fdee1p+0, 0x1.2b87fd0dad990p+0, 0x1.2d285a6e4030bp+0, 0x1.2ecafa93e2f56p+0,
    0x1.306fe0a31b715p+0, 0x1.32170fc4cd831p+0, 0x1.33c08b26416ffp+0, 0x1.356c55f929ff1p+0,
    0x1.371a7373aa9cbp+0, 0x1.38cae6d05d866p+0, 0x1.3a7db34e59ff7p+0, 0x1.3c32dc313a8e5p+0,
    0x1.3dea64c123422p+0, 0x1.3fa4504ac801cp+0, 0x1.4160a21f72e2ap+0, 0x1.431f5d950a897p+0,
    0x1.44e086061892dp+0, 0x1.46a41ed1d0057p+0, 0x1.486a2b5c13cd0p+0, 0x1.4a32af0d7d3dep+0,
    0x1.4bfdad5362a27p+0, 0x1.4dcb299fddd0dp+0, 0x1.4f9b2769d2ca7p+0, 0x1.516daa2cf6642p+0,
    0x1.5342b569d4f82p+0, 0x1.551a4ca5d920fp+0, 0x1.56f4736b527dap+0, 0x1.58d12d497c7fdp+0,
    0x1.5ab07dd485429p+0, 0x1.5c9268a5946b7p+0, 0x1.5e76f15ad2148p+0, 0x1.605e1b976dc09p+0,
    0x1.6247eb03a5585p+0, 0x1.6434634ccc320p+0, 0x1.6623882552225p+0, 0x1.68155d44ca973p+0,
    0x1.6a09e667f3bcdp+0, 0x1.6c012750bdabfp+0, 0x1.6dfb23c651a2fp+0, 0x1.6ff7df9519484p+0,
    0x1.71f75e8ec5f74p+0, 0x1.73f9a48a58174p+0, 0x1.75feb564267c9p+0, 0x1.780694fde5d3fp+0,
    0x1.7a11473eb0187p+0, 0x1.7c1ed0130c132p+0, 0x1.7e2f336cf4e62p+0, 0x1.80427543e1a12p+0,
    0x1.82589994cce13p+0, 0x1.8471a4623c7adp+0, 0x1.868d99b4492edp+0, 0x1.88ac7d98a6699p+0,
    0x1.8ace5422aa0dbp+0, 0x1.8cf3216b5448cp+0, 0x1.8f1ae99157736p+0, 0x1.9145b0b91ffc6p+0,
    0x1.93737b0cdc5e5p+0, 0x1.95a44cbc8520fp+0, 0x1.97d829fde4e50p+0, 0x1.9a0f170ca07bap+0,
    0x1.9c49182a3f090p+0, 0x1.9e86319e32323p+0, 0x1.a0c667b5de565p+0, 0x1.a309bec4a2d33p+0,
    0x1.a5503b23e255dp+0, 0x1.a799e1330b358p+0, 0x1.a9e6b5579fdbfp+0, 0x1.ac36bbfd3f37ap+0,
    0x1.ae89f995ad3adp+0, 0x1.b0e07298db666p+0, 0x1.b33a2b84f15fbp+0, 0x1.b59728de5593ap+0,
    0x1.b7f76f2fb5e47p+0, 0x1.ba5b030a1064ap+0, 0x1.bcc1e904bc1d2p+0, 0x1.bf2c25bd71e09p+0,
    0x1.c199bdd85529cp+0, 0x1.c40ab5fffd07ap+0, 0x1.c67f12e57d14bp+0, 0x1.c8f6d9406e7b5p+0,
    0x1.cb720dcef9069p+0, 0x1.cdf0b555dc3fap+0, 0x1.d072d4a07897cp+0, 0x1.d2f87080d89f2p+0,
    0x1.d5818dcfba487p+0, 0x1.d80e316c98398p+0, 0x1.da9e603db3285p+0, 0x1.dd321f301b460p+0,
    0x1.dfc97337b9b5fp+0, 0x1.e264614f5a129p+0, 0x1.e502ee78b3ff6p+0, 0x1.e7a51fbc74c83p+0,
    0x1.ea4afa2a490dap+0, 0x1.ecf482d8e67f1p+0, 0x1.efa1bee615a27p+0, 0x1.f252b376bba97p+0,
    0x1.f50765b6e4540p+0, 0x1.f7bfdad9cbe14p+0, 0x1.fa7c1819e90d8p+0, 0x1.fd3c22b8f71f1p+0,
};
const double kExp2Tail[128] = {
    0x0.0p+0, 0x1.b3b4f1a88bf6ep-54, -0x1.160139cd8dc5dp-56, -0x1.05e7a108766d1p-54,
    0x1.cd2523567f613p-55, -0x1.bce8023f98efap-55, 0x1.0f74e61e6c861p-57, 0x1.0a3e45b33d399p-54,
    0x1.79aa65d837b6dp-54, 0x1.eb51a92fdeffcp-55, 0x1.ebe3d702f9cd1p-60, -0x1.a033489906e0bp-57,
    -0x1.556522a2fbd0ep-54, -0x1.080ef8c4eea55p-58, -0x1.1c923b9d5f416p-54, 0x1.0d3e3e95c55afp-55,
    -0x1.01b15eaa59348p-55, -0x1.f1ff055de323dp-55, 0x1.b898c3f1353bfp-55, -0x1.6d99c7611eb26p-54,
    0x1.aecf73e3a2f60p-54, -0x1.fe782cb86389dp-55, 0x1.a6f4144a6c38dp-55, 0x1.07a05b0e4047dp-55,
    0x1.68efde3a8a894p-54, 0x1.75e18f274487dp-55, 0x1.0472b981fe7f2p-55, -0x1.6b87b3f71085ep-54,
    0x1.2f7e16d09ab31p-55, -0x1.d219b1a6fbffap-60, 0x1.b3782720c0ab4p-55, 0x1.e149289cecb8fp-57,
    0x1.34d754db0abb6p-55, 0x1.64201e2ac744cp-55, 0x1.fdd395dd3f84ap-55, -0x1.6a3803b8e5b04p-55,
    -0x1.24aedcc4b5068p-54, -0x1.907f81b512d8ep-54, -0x1.1d1e83e9436d2p-56, -0x1.91919b3ce1b15p-54,
    0x1.59f48a72a4c6dp-55, -0x1.312607a28698ap-54, -0x1.8a78f4817895bp-58, -0x1.c2c9b67499a1bp-56,
    0x1.363ed60c2ac11p-59, 0x1.666093b0664efp-54, 0x1.ecce1daa10379p-57, 0x1.3ff8e3f0f1230p-54,
    0x1.690cebb7aafb0p-56, 0x1.31dbdeb54e077p-54, -0x1.f94340071a38ep-55, -0x1.7deccdc93a349p-55,
    -0x1.8dec6bd0f385fp-56, -0x1.61246ec7b5cf6p-55, 0x1.3350518fdd78ep-54, 0x1.b98b72f8a9b05p-56,
    0x1.063e1e21c5409p-54, 0x1.4c7855019c6eap-60, 0x1.432e62b64c035p-54, -0x1.ce44a6199769fp-55,
    -0x1.c33c53bef4da8p-55, -0x1.45378892be9aep-55, -0x1.3cedd78565858p-54, 0x1.710aa807e1964p-58,
    -0x1.3b3efbf5e2228p-54, -0x1.a12ad8734b982p-57, -0x1.367efb86da9eep-57, -0x1.0dc3d54e08851p-55,
    -0x1.81f647e5a3ecfp-56, -0x1.6ee4ac08b7db0p-55, -0x1.619321e55e68ap-55, 0x1.09ccb5e09d4d3p-54,
    -0x1.b32dcb94da51dp-56, 0x1.4ecfd5467c06bp-54, 0x1.5ebe1abd66c55p-57, -0x1.8a1c52fb3cf42p-55,
    -0x1.369b6f13b3734p-54, -0x1.05e843a19ff1ep-55, -0x1.4d450d872576ep-54, 0x1.0ad675b0e8a00p-54,
    0x1.db72fc1f0eab4p-55, -0x1.5b6609cc5e7ffp-57, 0x1.bf68359f35f44p-56, -0x1.3091fa71e3d83p-54,
    -0x1.da9b88b6c1e29p-58, -0x1.c23f97c90b959p-57, -0x1.2434322f4f9aap-54, -0x1.5ca6cd7668e4bp-55,
    0x1.1affc2b91ce27p-56, 0x1.dd235e10a73bbp-57, -0x1.7c50422622263p-55, 0x1.b1c86e3e231d5p-55,
    -0x1.1bbd1d3bcbb15p-54, 0x1.0cc319cee31d2p-54, 0x1.469846e735ab3p-55, -0x1.2dfcd978e9db4p-55,
    0x1.c1a7792cb3387p-55, -0x1.07b8f4ad1d9fap-54, -0x1.5c3d956dcaebap-58, -0x1.0a40e3da6f640p-54,
    -0x1.8d6f438ad9334p-57, -0x1.1eee26b588a35p-54, 0x1.4ffd70a5fddcdp-56, -0x1.1bdfbfa9298acp-54,
    0x1.36eae30af0cb3p-56, 0x1.ee3325c9ffd94p-55, 0x1.4e08fd10959acp-55, 0x1.3cdaf384e1a67p-57,
    0x1.76b2c6c921968p-57, -0x1.08a1883ccb5d2p-55, -0x1.fad5d3ffffa6fp-55, -0x1.00dae3875a949p-54,
    0x1.4a385a63d07a7p-56, -0x1.2919e2040220fp-55, 0x1.e5a50d5c192acp-55, 0x1.43a59ac016b4bp-55,
    -0x1.2d52107b43e1fp-55, -0x1.92ab93b470dc9p-55, 0x1.4b604603a88d3p-56, 0x1.3c5ec519d7271p-55,
    -0x1.ff7128fd391f0p-55, -0x1.dae98e223747dp-55, 0x1.ec3bc41aa2008p-55, 0x1.42b94c3a9eb32p-55,
    0x1.a64a931d185eep-55, -0x1.e37bae43be3edp-55, 0x1.7893b4d91cd9dp-56, 0x1.305c14160cc89p-58,
};

}  // namespace explog_detail

double exp(double x) noexcept { return exp_kernel(x); }
double log(double x) noexcept { return log_kernel(x); }
double log1p(double x) noexcept { return log1p_kernel(x); }

bool isa_available(Isa isa) noexcept {
  if (isa == Isa::Baseline) return true;
#if PTHERM_HAVE_AVX2_CLONE
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

Isa dispatched_isa() noexcept {
#ifdef PTHERM_FORCE_BASELINE_ISA
  return Isa::Baseline;
#else
  static const Isa isa = isa_available(Isa::Avx2) ? Isa::Avx2 : Isa::Baseline;
  return isa;
#endif
}

namespace {

enum class Fn { Exp, Log, Log1p };

template <Fn F, class T>
PTHERM_LANES_INLINE T apply(const T& x) {
  if constexpr (F == Fn::Exp) {
    return exp_kernel(x);
  } else if constexpr (F == Fn::Log) {
    return log_kernel(x);
  } else {
    return log1p_kernel(x);
  }
}

/// y[i] = F(x[i]) through the kernel's double instantiation: the baseline
/// build, where a 32-byte vector would spill through memory.
template <Fn F>
void map_baseline(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = apply<F>(x[i]);
}

#if PTHERM_HAVE_AVX2_CLONE
/// y[i] = F(x[i]) four lanes at a time; a short tail repeats its last input
/// in the unused lanes.
template <Fn F>
PTHERM_TARGET_AVX2 void map_avx2(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 4) {
    std::size_t at[4];
    for (std::size_t k = 0; k < 4; ++k) at[k] = std::min(i + k, n - 1);
    const F64x4 r = apply<F>(F64x4::of(x[at[0]], x[at[1]], x[at[2]], x[at[3]]));
    for (std::size_t k = 0; k < 4 && i + k < n; ++k) y[i + k] = r[static_cast<int>(k)];
  }
}
#endif

template <Fn F>
void map(Isa isa, std::span<const double> x, std::span<double> y) {
  PTHERM_REQUIRE(x.size() == y.size(), "explog lanes: need one output per input");
  PTHERM_REQUIRE(isa_available(isa), "explog lanes: ISA not available on this CPU/build");
  if (x.empty()) return;
#if PTHERM_HAVE_AVX2_CLONE
  if (isa == Isa::Avx2) {
    map_avx2<F>(x.data(), y.data(), x.size());
    return;
  }
#endif
  map_baseline<F>(x.data(), y.data(), x.size());
}

}  // namespace

void exp_lanes(Isa isa, std::span<const double> x, std::span<double> y) {
  map<Fn::Exp>(isa, x, y);
}
void log_lanes(Isa isa, std::span<const double> x, std::span<double> y) {
  map<Fn::Log>(isa, x, y);
}
void log1p_lanes(Isa isa, std::span<const double> x, std::span<double> y) {
  map<Fn::Log1p>(isa, x, y);
}

}  // namespace ptherm::numerics
