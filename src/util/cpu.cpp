#include "util/cpu.h"

#include <fstream>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace spmv {

namespace {

// CPUID.1:ECX bits.
constexpr std::uint32_t kPclmul = 1u << 1;
constexpr std::uint32_t kFma = 1u << 12;
constexpr std::uint32_t kOsxsave = 1u << 27;
// CPUID.(7,0):EBX bits.
constexpr std::uint32_t kAvx2 = 1u << 5;
constexpr std::uint32_t kAvx512f = 1u << 16;
// XCR0 state components: SSE | AVX, and those plus opmask | ZMM_Hi256 |
// Hi16_ZMM.
constexpr std::uint64_t kYmmState = 0x6;
constexpr std::uint64_t kZmmState = 0xE6;

std::size_t read_size_file(const char* path, std::size_t fallback) {
  std::ifstream in(path);
  if (!in) return fallback;
  std::string token;
  in >> token;
  if (token.empty()) return fallback;
  std::size_t mult = 1;
  if (token.back() == 'K') {
    mult = 1024;
    token.pop_back();
  } else if (token.back() == 'M') {
    mult = 1024 * 1024;
    token.pop_back();
  }
  try {
    return static_cast<std::size_t>(std::stoull(token)) * mult;
  } catch (...) {
    return fallback;
  }
}

HostInfo probe() {
  HostInfo info;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  std::uint32_t leaf1_ecx = 0;
  std::uint32_t leaf7_ebx = 0;
  std::uint64_t xcr0 = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) leaf1_ecx = ecx;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) leaf7_ebx = ebx;
  if ((leaf1_ecx & kOsxsave) != 0) {
    // XGETBV(0) reads XCR0; it is legal only once OSXSAVE is set.
    std::uint32_t lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    xcr0 = (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  info = decode_simd_features(leaf1_ecx, leaf7_ebx, xcr0);
  char brand[49] = {};
  unsigned* words = reinterpret_cast<unsigned*>(brand);
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &eax, &ebx, &ecx, &edx)) {
      words[leaf * 4 + 0] = eax;
      words[leaf * 4 + 1] = ebx;
      words[leaf * 4 + 2] = ecx;
      words[leaf * 4 + 3] = edx;
    }
  }
  info.vendor = brand;
#endif
  info.logical_cpus = std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  info.cache_line_bytes = read_size_file(
      "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size", 64);
  info.l1d_bytes = read_size_file(
      "/sys/devices/system/cpu/cpu0/cache/index0/size", 32 * 1024);
  info.l2_bytes = read_size_file(
      "/sys/devices/system/cpu/cpu0/cache/index2/size", 1024 * 1024);
  const long page = sysconf(_SC_PAGESIZE);
  if (page > 0) info.page_bytes = static_cast<std::size_t>(page);
#endif
  return info;
}

#if defined(__linux__)
bool pin_native(pthread_t handle, unsigned logical_cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(logical_cpu % CPU_SETSIZE, &set);
  return pthread_setaffinity_np(handle, sizeof(set), &set) == 0;
}
#endif

}  // namespace

HostInfo decode_simd_features(std::uint32_t leaf1_ecx,
                              std::uint32_t leaf7_ebx, std::uint64_t xcr0) {
  const bool osxsave = (leaf1_ecx & kOsxsave) != 0;
  const bool ymm = osxsave && (xcr0 & kYmmState) == kYmmState;
  const bool zmm = osxsave && (xcr0 & kZmmState) == kZmmState;
  HostInfo info;
  info.has_avx2 = ymm && (leaf7_ebx & kAvx2) != 0;
  info.has_fma = ymm && (leaf1_ecx & kFma) != 0;
  info.has_avx512f = zmm && (leaf7_ebx & kAvx512f) != 0;
  info.has_pclmul = (leaf1_ecx & kPclmul) != 0;
  return info;
}

const HostInfo& host_info() {
  static const HostInfo info = probe();
  return info;
}

std::vector<unsigned> allowed_cpus() {
  std::vector<unsigned> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

bool pin_current_thread(unsigned logical_cpu) {
#if defined(__linux__)
  return pin_native(pthread_self(), logical_cpu);
#else
  (void)logical_cpu;
  return false;
#endif
}

bool pin_thread(std::thread& t, unsigned logical_cpu) {
#if defined(__linux__)
  return pin_native(t.native_handle(), logical_cpu);
#else
  (void)t;
  (void)logical_cpu;
  return false;
#endif
}

}  // namespace spmv
