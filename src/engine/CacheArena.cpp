//===- engine/CacheArena.cpp - Packed per-pixel cache storage --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/CacheArena.h"

using namespace dspec;

void CacheArena::reset(unsigned PixelCount, const CacheLayout &CacheShape) {
  Shape = CacheShape;
  Pixels = PixelCount;
  Stride = CacheShape.totalBytes();
  Storage.assign(totalBytes(), 0);
}

bool CacheArena::restore(unsigned PixelCount, const CacheLayout &CacheShape,
                         ArenaBuffer &&Bytes) {
  if (Bytes.size() !=
      static_cast<size_t>(PixelCount) * CacheShape.totalBytes()) {
    reset(0, CacheLayout());
    return false;
  }
  // ArenaBuffer keeps the adopted bytes aligned.
  Shape = CacheShape;
  Pixels = PixelCount;
  Stride = CacheShape.totalBytes();
  Storage = std::move(Bytes);
  return true;
}
