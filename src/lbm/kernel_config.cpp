#include "lbm/kernel_config.hpp"

namespace hemo::lbm {

std::string to_string(Layout l) {
  return l == Layout::kAoS ? "AoS" : "SoA";
}

std::string to_string(Propagation p) {
  return p == Propagation::kAB ? "AB" : "AA";
}

std::string to_string(Unroll u) {
  return u == Unroll::kYes ? "unrolled" : "looped";
}

std::string to_string(Precision p) {
  return p == Precision::kSingle ? "single" : "double";
}

std::string to_string(KernelPath p) {
  return p == KernelPath::kReference ? "reference" : "segmented";
}

std::string to_string(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kScalar: return "scalar";
    case Backend::kAVX2: return "avx2";
    case Backend::kAVX512: return "avx512";
  }
  return "scalar";
}

std::string kernel_name(const KernelConfig& config) {
  std::string name = to_string(config.propagation) + "-" +
                     to_string(config.layout) + "-" +
                     to_string(config.unroll);
  if (config.path == KernelPath::kReference) name += "-ref";
  return name;
}

}  // namespace hemo::lbm
