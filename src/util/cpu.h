// Host CPU probing and thread-affinity control.
//
// The paper pins threads to cores ("process affinity", Table 2) with
// numactl / Linux scheduling; we expose the same capability through
// pthread_setaffinity_np.  Everything degrades gracefully on hosts where
// affinity syscalls are unavailable.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace spmv {

/// What the host machine looks like, as far as SpMV tuning cares.  A
/// SIMD flag is set only when the CPU has the instructions AND the OS
/// saves the registers they use (see decode_simd_features).
struct HostInfo {
  unsigned logical_cpus = 1;   ///< std::thread::hardware_concurrency
  bool has_avx2 = false;
  bool has_fma = false;        ///< FMA3 (every AVX2 part ships it in practice)
  bool has_avx512f = false;
  bool has_pclmul = false;     ///< carry-less multiply (util/crc32's fold)
  std::size_t cache_line_bytes = 64;
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  std::size_t page_bytes = 4096;
  std::string vendor;          ///< best-effort CPU brand string
};

/// Probe the host once; cached after the first call.
const HostInfo& host_info();

/// The SIMD flags of HostInfo, decoded from CPUID.1:ECX, CPUID.(7,0):EBX
/// and XCR0 (0 when CPUID.1:ECX.OSXSAVE is clear, since XGETBV then
/// faults).  AVX2 and FMA need the OS to save XMM and YMM state
/// (XCR0 & 0x6); AVX-512F also needs opmask and ZMM state (XCR0 & 0xE6).
/// Without that, the instructions raise #UD however CPUID reads.
/// PCLMULQDQ works on XMM registers, which every x86-64 OS saves, so it
/// needs the CPUID bit alone.  Only the four SIMD fields of the result
/// are set.
[[nodiscard]] HostInfo decode_simd_features(std::uint32_t leaf1_ecx,
                                            std::uint32_t leaf7_ebx,
                                            std::uint64_t xcr0);

/// The logical CPUs the calling thread may run on (its affinity mask, as
/// `taskset` or a container's cpuset narrows it), ascending.  Empty where
/// the platform cannot tell.
std::vector<unsigned> allowed_cpus();

/// Pin the calling thread to a single logical CPU.  Returns false if the
/// platform refuses (non-fatal: the pool keeps running unpinned).
bool pin_current_thread(unsigned logical_cpu);

/// Pin an arbitrary std::thread.  Returns false on failure.
bool pin_thread(std::thread& t, unsigned logical_cpu);

}  // namespace spmv
