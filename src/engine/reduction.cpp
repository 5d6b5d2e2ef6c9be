#include "engine/reduction.h"

#include "engine/execution_context.h"

namespace spmv::engine {

void reduce_private_y(ExecutionContext& ctx, unsigned threads,
                      std::uint32_t rows, const PrivateYScratch& s,
                      double* y) {
  ctx.parallel_for(threads, [&](unsigned t) {
    const std::uint64_t r0 = static_cast<std::uint64_t>(rows) * t / threads;
    const std::uint64_t r1 =
        static_cast<std::uint64_t>(rows) * (t + 1) / threads;
    for (unsigned src = 0; src < threads; ++src) {
      const double* py = s.private_y[src].data();
      for (std::uint64_t r = r0; r < r1; ++r) y[r] += py[r];
    }
  });
}

}  // namespace spmv::engine
