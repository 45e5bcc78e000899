// Byte-level serialization shared by key-state migration and the net
// layer's wire formats. The in-process engine could move KeyState
// pointers directly, but a distributed deployment ships bytes;
// round-tripping through this codec keeps the migration path honest
// (costs real bytes, loses nothing) and is what the migration-fidelity
// tests exercise.
//
// Format: little-endian, length-prefixed primitives. Versioning lives one
// layer up: every socket frame starts with a magic + version header
// (net/frame.h) that rejects mismatched peers before any payload field is
// decoded, so the payload encodings here stay version-free.
//
// Two trust levels:
//  * ABORTING (default) — an overrun is a caller bug (in-process
//    migration payloads are produced by our own serializers), so
//    SKW_EXPECTS fires.
//  * CHECKED (ByteReader::Untrusted tag) — input arrived over a socket
//    and may be truncated or corrupt. Failed reads return zero values,
//    set a sticky error flag (ok() == false), and never abort: the
//    connection owner rejects the frame and drops the peer instead of
//    taking the whole controller down.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.h"

namespace skewless {

/// Append-only byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u32(std::uint32_t v) { append_raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append_raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { append_raw(&v, sizeof(v)); }
  void f64(double v) { append_raw(&v, sizeof(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append_raw(s.data(), s.size());
  }

  /// Bulk append of `n` raw bytes — the fast path for arrays of
  /// trivially-copyable wire structs (tuple batches, fused sketch cells).
  void append(const void* data, std::size_t n) { append_raw(data, n); }

  /// Drops the contents but keeps the buffer capacity, so a reused
  /// per-frame writer allocates nothing in steady state.
  void clear() { bytes_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  void append_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential byte source. Default (trusted) mode aborts on overrun;
/// constructed with the Untrusted tag it switches to the checked mode
/// documented in the header comment.
class ByteReader {
 public:
  /// Tag selecting the checked (non-aborting) mode for socket input.
  struct Untrusted {};

  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  ByteReader(const std::vector<std::uint8_t>& bytes, Untrusted)
      : data_(bytes.data()), size_(bytes.size()), checked_(true) {}
  ByteReader(const std::uint8_t* data, std::size_t size, Untrusted)
      : data_(data), size_(size), checked_(true) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t u32() { return read_raw<std::uint32_t>(); }
  std::uint64_t u64() { return read_raw<std::uint64_t>(); }
  std::int64_t i64() { return read_raw<std::int64_t>(); }
  double f64() { return read_raw<double>(); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!require(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Bulk read of `n` raw bytes into `dst`. Returns whether the bytes
  /// were available (always true in aborting mode — it aborts instead).
  bool read_into(void* dst, std::size_t n) {
    if (!require(n)) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Advances past `n` bytes without copying them, checked exactly like
  /// read_into — how a validator walks opaque blobs it does not keep.
  bool skip(std::size_t n) {
    if (!require(n)) return false;
    pos_ += n;
    return true;
  }

  /// skip() that also points `at` to the skipped bytes: a zero-copy view
  /// of a length-prefixed blob, valid while the input is.
  bool view(std::size_t n, const std::uint8_t*& at) {
    if (!require(n)) return false;
    at = data_ + pos_;
    pos_ += n;
    return true;
  }

  /// Checked-mode guard for length-prefixed containers: true when
  /// `count` elements of at least `min_elem_bytes` serialized bytes each
  /// could possibly fit in the remaining input. Rejecting an impossible
  /// count here stops a corrupt length prefix from driving a giant
  /// allocation before the per-element reads would catch it.
  bool fits(std::uint64_t count, std::size_t min_elem_bytes) {
    SKW_ASSERT(min_elem_bytes > 0);
    if (failed_) return false;
    if (count <= remaining() / min_elem_bytes) return true;
    if (!checked_) SKW_EXPECTS(count <= remaining() / min_elem_bytes);
    failed_ = true;
    return false;
  }

  /// Marks the input rejected for a decoder-level (semantic) reason —
  /// e.g. a geometry mismatch — through the same sticky flag an overrun
  /// sets, so callers have one error channel per payload.
  void fail() {
    if (!checked_) SKW_EXPECTS(checked_);
    failed_ = true;
  }

  /// Checked mode: true until any read overran or fail() was called.
  /// Always true in aborting mode (failures abort instead).
  [[nodiscard]] bool ok() const { return !failed_; }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  /// One bounds check for every read: aborting mode keeps the historic
  /// SKW_EXPECTS; checked mode trips the sticky flag (all later reads
  /// return zero values without touching memory).
  bool require(std::size_t n) {
    if (failed_) return false;
    if (n <= size_ - pos_) return true;
    if (!checked_) SKW_EXPECTS(pos_ + n <= size_);
    failed_ = true;
    return false;
  }

  template <typename T>
  T read_raw() {
    if (!require(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool checked_ = false;
  bool failed_ = false;
};

}  // namespace skewless
