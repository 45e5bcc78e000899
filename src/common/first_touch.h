// FirstTouchArray — a fixed-size zero-initialized array whose backing
// pages are NOT committed at construction. On Linux, anonymous private
// mmap hands out lazily-zeroed pages: physical frames are allocated on
// first WRITE, on the NUMA node of the writing thread (first-touch
// policy). A std::vector would defeat that — its constructor zero-fills
// on the constructing thread, committing every page on the driver's
// node before the worker ever runs.
//
// Contract: the constructor maps but never touches; the first write
// (zero() included) should come from the thread that owns the memory.
// Values read before any write are zero, exactly like the vector it
// replaces.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#define SKEWLESS_FIRST_TOUCH_MMAP 1
#else
#include <cstdlib>
#define SKEWLESS_FIRST_TOUCH_MMAP 0
#endif

namespace skewless {

template <typename T>
class FirstTouchArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "FirstTouchArray elements are materialized as zero bytes");

 public:
  FirstTouchArray() = default;

  explicit FirstTouchArray(std::size_t n) { reset(n); }

  FirstTouchArray(FirstTouchArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        bytes_(std::exchange(other.bytes_, 0)) {}

  FirstTouchArray& operator=(FirstTouchArray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }

  FirstTouchArray(const FirstTouchArray&) = delete;
  FirstTouchArray& operator=(const FirstTouchArray&) = delete;

  ~FirstTouchArray() { release(); }

  /// Drop the old mapping and create a fresh untouched one of `n`
  /// elements. The new pages are zero on first read and placed by first
  /// write — do not touch them here.
  void reset(std::size_t n) {
    release();
    if (n == 0) return;
    bytes_ = n * sizeof(T);
#if SKEWLESS_FIRST_TOUCH_MMAP
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      data_ = nullptr;
      bytes_ = 0;
      size_ = 0;
      return;
    }
    data_ = static_cast<T*>(p);
#else
    // Portability fallback: calloc is typically lazy-zero too, but we
    // make no placement promise off-Linux.
    data_ = static_cast<T*>(std::calloc(n, sizeof(T)));
    if (data_ == nullptr) {
      bytes_ = 0;
      size_ = 0;
      return;
    }
#endif
    size_ = n;
  }

  /// Zero the contents in place (the clear() path — pages stay where
  /// first touch put them; memset does not migrate committed frames).
  void zero() {
    // void* cast: T may carry zero-valued NSDMIs (trivially copyable but
    // not trivially default constructible); all-zero bytes are its value
    // representation here by contract.
    if (data_ != nullptr) std::memset(static_cast<void*>(data_), 0, bytes_);
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t memory_bytes() const { return bytes_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void release() {
    if (data_ != nullptr) {
#if SKEWLESS_FIRST_TOUCH_MMAP
      ::munmap(data_, bytes_);
#else
      std::free(data_);
#endif
    }
    data_ = nullptr;
    size_ = 0;
    bytes_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace skewless
