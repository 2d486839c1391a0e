// Internal helper: per-worker scratch storage for the parallel DP kernels.
// Not part of the public API.
//
// Each worker slot of a ParallelFor owns one KernelArena. Kernels acquire
// named buffers once per chunk and reuse them across every tuple in the
// chunk, so the per-tuple inner loops perform no heap allocation — the
// buffers grow monotonically to the high-water mark and stay there for the
// lifetime of the kernel call. bytes() reports that high-water footprint
// for QueryStats.
//
// Buffers are AlignedBuf, not std::vector: every block is 64-byte aligned
// (one cache line, the widest vector register) so the SIMD kernels in
// vector_kernels.h run on aligned, structure-of-arrays scratch. AlignedBuf
// deliberately leaves grown elements uninitialized — every kernel writes a
// buffer before reading it, and the DP sweeps resize in the hot loop.
//
// The AlignedBuf object itself is cache-line aligned too: the DP loops
// write its size on every trial, and per-worker buffers kept side by side
// (a vector of one buffer per slot) would otherwise share a line and
// serialize the workers on it — measured on the attribute-level quantile
// prune at N = 1000 as no speed-up at 2 threads (docs/PERFORMANCE.md).

#ifndef URANK_CORE_INTERNAL_KERNEL_ARENA_H_
#define URANK_CORE_INTERNAL_KERNEL_ARENA_H_

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "util/check.h"

namespace urank {
namespace internal {

// A growable array of doubles whose storage is 64-byte aligned. The subset
// of the std::vector interface the kernels use, with one semantic change:
// resize() never initializes grown elements. Contents survive resize up to
// min(old size, new size), like std::vector.
class alignas(64) AlignedBuf {
 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuf() = default;
  AlignedBuf(AlignedBuf&& other) noexcept { swap(other); }
  AlignedBuf& operator=(AlignedBuf&& other) noexcept {
    swap(other);
    return *this;
  }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  ~AlignedBuf() { Free(); }

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  double& operator[](std::size_t i) { return data_[i]; }
  const double& operator[](std::size_t i) const { return data_[i]; }

  double* begin() { return data_; }
  double* end() { return data_ + size_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    Grow(n, /*preserve=*/size_);
  }

  // Grown elements are uninitialized (kernels write before reading).
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void assign(std::size_t n, double value) {
    if (n > cap_) Grow(n, /*preserve=*/0);
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) data_[i] = value;
  }

  void assign(const double* src, std::size_t n) {
    if (n > cap_) Grow(n, /*preserve=*/0);
    size_ = n;
    if (n > 0) std::memcpy(data_, src, n * sizeof(double));
  }

  void push_back(double value) {
    if (size_ == cap_) Grow(size_ + 1, /*preserve=*/size_);
    data_[size_++] = value;
  }

  void swap(AlignedBuf& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(cap_, other.cap_);
  }

 private:
  void Grow(std::size_t n, std::size_t preserve) {
    std::size_t cap = cap_ == 0 ? 64 : cap_;
    while (cap < n) cap *= 2;
    double* fresh = static_cast<double*>(::operator new[](
        cap * sizeof(double), std::align_val_t(kAlignment)));
    if (preserve > 0) std::memcpy(fresh, data_, preserve * sizeof(double));
    Free();
    data_ = fresh;
    cap_ = cap;
  }

  void Free() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t(kAlignment));
      data_ = nullptr;
    }
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

static_assert(alignof(AlignedBuf) == AlignedBuf::kAlignment,
              "per-worker AlignedBufs must not share a cache line");

class KernelArena {
 public:
  // The double buffer for slot `which` (a small dense index the kernel
  // assigns meaning to: DP row A, DP row B, prefix masses, ...). The
  // buffer keeps whatever size/contents the previous use left; callers
  // resize or assign as needed. The reference stays valid until the next
  // Doubles call with a larger `which`.
  AlignedBuf& Doubles(int which) {
    if (static_cast<size_t>(which) >= doubles_.size()) {
      doubles_.resize(static_cast<size_t>(which) + 1);
    }
    AlignedBuf& buf = doubles_[static_cast<size_t>(which)];
    URANK_DCHECK_MSG(
        buf.data() == nullptr ||
            reinterpret_cast<std::uintptr_t>(buf.data()) %
                    AlignedBuf::kAlignment ==
                0,
        "KernelArena buffer is not 64-byte aligned");
    return buf;
  }

  // Heap bytes currently reserved across all buffers.
  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const auto& buf : doubles_) {
      total += static_cast<std::uint64_t>(buf.capacity()) * sizeof(double);
    }
    return total;
  }

 private:
  std::vector<AlignedBuf> doubles_;
};

}  // namespace internal
}  // namespace urank

#endif  // URANK_CORE_INTERNAL_KERNEL_ARENA_H_
