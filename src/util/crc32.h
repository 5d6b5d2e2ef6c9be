// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for wire-protocol
// frame integrity.
//
// The network front-end checks every frame header (and payload) before
// trusting any length or count it carries, so a corrupted or adversarial
// byte stream is rejected before it can drive an allocation or an
// out-of-bounds index.
//
// Two implementations compute the same value.  crc32() picks one at run
// time, the way the AVX2 kernels are picked: on hosts with PCLMULQDQ
// (HostInfo::has_pclmul) an input of 64 bytes or more is folded 64 bytes
// per step with carry-less multiplies (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009).  Shorter inputs, a fold's last < 16 bytes and hosts
// without the instruction take crc32_portable(), a slicing-by-8 table
// lookup.  Slicing-by-8 runs at about 1 byte per cycle, which is not
// cheap next to the copies it guards: on an 18.8 KB reply it measured
// 6.2 µs, 35-45x a memcpy of the same bytes, against 1.1-1.3 µs for the
// fold (4-vCPU KVM AMD EPYC).  The tables are built once on first use
// (magic static), so there is no global initialization order to reason
// about.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spmv {

/// CRC32 of `n` bytes at `data`.  `seed` chains incremental computation:
/// crc32(ab) == crc32(b, crc32(a)).  Empty input with seed 0 returns 0.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

/// The slicing-by-8 implementation alone: same contract and value as
/// crc32() on every host.  It is crc32()'s fallback and the reference the
/// tests compare the folding path against.
[[nodiscard]] std::uint32_t crc32_portable(const void* data, std::size_t n,
                                           std::uint32_t seed = 0);

}  // namespace spmv
