//===- engine/ArenaLayout.cpp - Arena storage layout policy ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/ArenaLayout.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>

using namespace dspec;

const char *dspec::arenaLayoutName(ArenaLayout Layout) {
  switch (Layout) {
  case ArenaLayout::PixelMajor:
    return "pixel-major";
  case ArenaLayout::SlotMajor:
    return "slot-major";
  case ArenaLayout::TileBlocked:
    return "tile-blocked";
  }
  return "pixel-major";
}

std::optional<ArenaLayout> dspec::parseArenaLayout(const std::string &Name) {
  if (Name == "pixel-major")
    return ArenaLayout::PixelMajor;
  if (Name == "slot-major")
    return ArenaLayout::SlotMajor;
  if (Name == "tile-blocked")
    return ArenaLayout::TileBlocked;
  return std::nullopt;
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

std::vector<ArenaLayoutConfig>
dspec::arenaLayoutCandidates(ExecTier, unsigned EngineTilePixels) {
  unsigned Tile = EngineTilePixels ? EngineTilePixels : 128;
  return {
      ArenaLayoutConfig{}, // identity first: wins all ties
      ArenaLayoutConfig{ArenaLayout::SlotMajor, 0, true},
      ArenaLayoutConfig{ArenaLayout::TileBlocked, Tile * 8, true},
      ArenaLayoutConfig{ArenaLayout::TileBlocked, Tile * 32, true},
  };
}

ArenaLayoutConfig dspec::pickArenaLayout(
    const std::vector<ArenaLayoutConfig> &Candidates,
    const std::function<double(const ArenaLayoutConfig &)> &Measure) {
  if (Candidates.empty())
    return ArenaLayoutConfig{};
  size_t Best = 0;
  double BestSeconds = Measure(Candidates[0]);
  for (size_t I = 1; I < Candidates.size(); ++I) {
    double Seconds = Measure(Candidates[I]);
    // A later candidate must beat the incumbent by more than timer
    // noise (2%) to displace it — earlier entries are simpler layouts.
    if (Seconds < BestSeconds * 0.98) {
      Best = I;
      BestSeconds = Seconds;
    }
  }
  return Candidates[Best];
}

ArenaLayoutConfig dspec::chooseArenaLayout(ExecTier Tier,
                                           unsigned EngineTilePixels) {
  ArenaLayoutConfig Cfg;
  switch (Tier) {
  case ExecTier::Batched: {
    Cfg.Layout = ArenaLayout::TileBlocked;
    // Block = a few engine tiles: big enough that per-column streaming
    // amortizes, small enough that one block's stride x pixels stays in
    // L2. Must stay a multiple of the engine tile so a work tile never
    // straddles a block (CacheArena::batchCompatible).
    unsigned Tile = EngineTilePixels ? EngineTilePixels : 128;
    Cfg.TilePixels = Tile * 8;
    Cfg.PackCold = true;
    break;
  }
  case ExecTier::Switch:
  case ExecTier::Threaded:
    // Per-pixel tiers walk one stride at a time.
    Cfg.Layout = ArenaLayout::PixelMajor;
    break;
  }
  return Cfg;
}
