//===- engine/CacheArena.cpp - Packed per-pixel cache storage --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/CacheArena.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>

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

namespace {

/// Reads one small sysfs file into \p Out. Returns false when absent.
bool readSysfsLine(const std::string &Path, char *Out, size_t OutSize) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  bool Ok = std::fgets(Out, static_cast<int>(OutSize), F) != nullptr;
  std::fclose(F);
  return Ok;
}

/// Parses "32768K" / "12M" / plain bytes from a sysfs size file.
uint64_t parseCacheSize(const char *Text) {
  char *End = nullptr;
  uint64_t V = std::strtoull(Text, &End, 10);
  if (End == Text)
    return 0;
  if (*End == 'K' || *End == 'k')
    V <<= 10;
  else if (*End == 'M' || *End == 'm')
    V <<= 20;
  else if (*End == 'G' || *End == 'g')
    V <<= 30;
  return V;
}

} // namespace

uint64_t dspec::detectLlcBytes(uint64_t Fallback) {
  const char *Root = "/sys/devices/system/cpu/cpu0/cache";
  uint64_t Best = 0;
  if (DIR *D = opendir(Root)) {
    while (dirent *E = readdir(D)) {
      if (std::strncmp(E->d_name, "index", 5) != 0)
        continue;
      std::string Dir = std::string(Root) + "/" + E->d_name;
      char Line[64];
      // Only data or unified caches count toward the working-set bound.
      if (readSysfsLine(Dir + "/type", Line, sizeof(Line)) &&
          std::strncmp(Line, "Instruction", 11) == 0)
        continue;
      if (!readSysfsLine(Dir + "/size", Line, sizeof(Line)))
        continue;
      uint64_t Bytes = parseCacheSize(Line);
      if (Bytes > Best)
        Best = Bytes;
    }
    closedir(D);
  }
  return Best ? Best : (Fallback ? Fallback : 32ull << 20);
}
