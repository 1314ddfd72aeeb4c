//===- support/AlignedBuffer.h - Cacheline-aligned byte buffers -*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal over-aligning allocator and the ArenaBuffer alias built on
/// it. CacheArena storage starts on a cacheline: an unaligned base skews
/// timings from run to run (the same stride straddles one more line on
/// some runs than others).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_ALIGNEDBUFFER_H
#define DATASPEC_SUPPORT_ALIGNEDBUFFER_H

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace dspec {

/// std::allocator drop-in that over-aligns every allocation to
/// \p Alignment bytes (a power of two, at least alignof(T)).
template <typename T, size_t Alignment> struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  T *allocate(size_t N) {
    if (N == 0)
      return nullptr;
    // Over-aligned operator new is C++17; size must be a multiple of the
    // alignment for some implementations of aligned allocation, so round.
    size_t Bytes = (N * sizeof(T) + Alignment - 1) / Alignment * Alignment;
    return static_cast<T *>(
        ::operator new(Bytes, std::align_val_t(Alignment)));
  }

  void deallocate(T *P, size_t) {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }
};

/// Cacheline width every arena allocation is aligned to.
constexpr size_t kArenaAlignBytes = 64;

/// Byte buffer whose data() is 64-byte aligned. The type CacheArena
/// stores and snapshots move in and out of (so a restored arena image
/// is adopted without a copy).
using ArenaBuffer =
    std::vector<unsigned char, AlignedAllocator<unsigned char, kArenaAlignBytes>>;

} // namespace dspec

#endif // DATASPEC_SUPPORT_ALIGNEDBUFFER_H
