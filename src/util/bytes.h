// Bounds-checked little-endian byte serialization for the wire protocol.
//
// ByteWriter appends into a growable buffer; ByteReader consumes a fixed
// span and *never* reads past it — every get_* reports failure instead of
// touching out-of-range memory, so frame decoders can be fed arbitrary
// (fuzzed, truncated, adversarial) bytes and fail closed.  All integers
// travel little-endian regardless of host order; doubles travel as the
// little-endian bytes of their IEEE-754 bit pattern, so a value
// round-trips bit-identically (NaN payloads and -0.0 included).
//
// Arrays of f64, u32 and u64 (put_array / get_array) travel as their
// elements back to back in the same little-endian form, with no count or
// padding of their own.  On a little-endian host those bytes are the
// array's memory image, so each side is one memcpy; other hosts convert
// element by element.  On an 18.8 KB array of doubles the per-element
// loops took 6-10 µs per side and the memcpy path 0.2-0.4 µs (4-vCPU KVM
// AMD EPYC).
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace spmv {

/// Element types put_array / get_array carry.
template <typename T>
concept WireArrayElement = std::same_as<T, double> ||
                           std::same_as<T, std::uint32_t> ||
                           std::same_as<T, std::uint64_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  void put_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed (u16) string; truncates past 64 KiB by contract —
  /// callers validate names long before this.
  void put_string(const std::string& s) {
    const std::uint16_t n = string_length(s);
    put_u16(n);
    put_bytes(s.data(), n);
  }

  /// Bytes put_string writes for `s`, for sizing a writer up front.
  [[nodiscard]] static std::size_t string_size(const std::string& s) {
    return sizeof(std::uint16_t) + string_length(s);
  }

  /// The elements of `v`, each as put_f64 / put_u32 / put_u64 writes it.
  template <WireArrayElement T>
  void put_array(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      put_bytes(v.data(), v.size_bytes());
    } else {
      for (const T x : v) {
        if constexpr (std::same_as<T, double>) {
          put_f64(x);
        } else {
          put_le(x);
        }
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Mutable access for post-hoc header patching (CRC slots).
  std::uint8_t* data() { return buf_.data(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  static std::uint16_t string_length(const std::string& s) {
    return static_cast<std::uint16_t>(s.size() > 0xFFFF ? 0xFFFF : s.size());
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  [[nodiscard]] bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  [[nodiscard]] bool get_u16(std::uint16_t& v) { return get_le(v); }
  [[nodiscard]] bool get_u32(std::uint32_t& v) { return get_le(v); }
  [[nodiscard]] bool get_u64(std::uint64_t& v) { return get_le(v); }
  [[nodiscard]] bool get_i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!get_le(u)) return false;
    v = static_cast<std::int32_t>(u);
    return true;
  }
  [[nodiscard]] bool get_f64(double& v) {
    std::uint64_t u = 0;
    if (!get_le(u)) return false;
    v = std::bit_cast<double>(u);
    return true;
  }

  [[nodiscard]] bool get_string(std::string& s) {
    std::uint16_t n = 0;
    if (!get_u16(n) || remaining() < n) return false;
    s.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  /// Replace `out` with the next `count` elements (put_array's bytes).
  /// The remaining-bytes check happens BEFORE `out` is resized, so a
  /// forged count cannot drive an unbounded allocation; on failure `out`
  /// and the position are untouched.
  template <WireArrayElement T>
  [[nodiscard]] bool get_array(std::uint64_t count, std::vector<T>& out) {
    if (remaining() / sizeof(T) < count) return false;
    out.resize(static_cast<std::size_t>(count));
    if constexpr (std::endian::native == std::endian::little) {
      // count == 0 may leave out.data() null, which memcpy must not see.
      if (count != 0) {
        std::memcpy(out.data(), data_.data() + pos_, out.size() * sizeof(T));
        pos_ += out.size() * sizeof(T);
      }
    } else {
      for (T& v : out) {
        if constexpr (std::same_as<T, double>) {
          (void)get_f64(v);  // bounds pre-checked above
        } else {
          (void)get_le(v);
        }
      }
    }
    return true;
  }

 private:
  template <typename T>
  [[nodiscard]] bool get_le(T& v) {
    if (remaining() < sizeof(T)) return false;
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    v = out;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace spmv
