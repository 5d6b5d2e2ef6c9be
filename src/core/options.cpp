#include "core/options.h"

namespace spmv {

const char* to_string(KernelFlavor flavor) {
  switch (flavor) {
    case KernelFlavor::kNaive: return "naive";
    case KernelFlavor::kSingleIndex: return "single-index";
    case KernelFlavor::kBranchless: return "branchless";
    case KernelFlavor::kPipelined: return "pipelined";
    case KernelFlavor::kSimd: return "simd";
  }
  return "?";
}

const char* to_string(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto: return "auto";
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace spmv
