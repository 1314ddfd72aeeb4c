//===- service/SpillStore.cpp - On-disk spill of evicted units --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SpillStore.h"

#include "engine/RenderEngine.h"
#include "shading/ShaderGallery.h"
#include "snapshot/Snapshot.h"
#include "support/StringUtil.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace dspec;

namespace {

constexpr const char *kSpillSuffix = ".dsnp";

int64_t nowSeconds() {
  return static_cast<int64_t>(::time(nullptr));
}

bool endsWith(const std::string &Name, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Name.size() >= N &&
         Name.compare(Name.size() - N, N, Suffix) == 0;
}

} // namespace

uint64_t SpillStore::keyHash(const UnitKey &Key) const {
  // Hash the full key — shader, invariant partition, options. Stable
  // across processes (that is the whole point: restarts must find these
  // files).
  uint64_t H = fnv1a64(Key.Shader.data(), Key.Shader.size());
  H = fnv1a64(&Key.InvariantHash, sizeof(Key.InvariantHash), H);
  H = fnv1a64(&Key.OptionsFingerprint, sizeof(Key.OptionsFingerprint), H);
  return H;
}

std::string SpillStore::pathFor(const UnitKey &Key) const {
  return Root + "/" +
         formatString("%016llx",
                      static_cast<unsigned long long>(keyHash(Key))) +
         kSpillSuffix;
}

bool SpillStore::open(const std::string &Dir, uint64_t InMaxBytes,
                      std::string *Error) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (Error)
      *Error = "cannot create spill directory '" + Dir +
               "': " + std::strerror(errno);
    return false;
  }
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    if (Error)
      *Error = "cannot open spill directory '" + Dir +
               "': " + std::strerror(errno);
    return false;
  }
  std::lock_guard<std::mutex> Lock(M);
  Root = Dir;
  MaxBytes = InMaxBytes;
  Index.clear();
  TotalBytes = 0;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (!endsWith(Name, kSpillSuffix))
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) != 0 ||
        !S_ISREG(St.st_mode))
      continue;
    Index[Name] = {static_cast<uint64_t>(St.st_size),
                   static_cast<int64_t>(St.st_mtime)};
    TotalBytes += static_cast<uint64_t>(St.st_size);
  }
  ::closedir(D);
  enforceCapLocked();
  return true;
}

void SpillStore::enforceCapLocked(const std::string *ExcludeName) {
  while (MaxBytes > 0 && TotalBytes > MaxBytes && Index.size() > 1) {
    // Evict the least recently used file (never the only one — a single
    // over-cap unit is more useful on disk than an empty directory).
    // mtime ticks in whole seconds, so a burst of spills ties on LastUse;
    // the tie breaks by file name — the hex key hash — so every process
    // evicts the same file and restart inventories stay reproducible.
    // The just-stored file is exempt outright: a store must never evict
    // its own unit, however its hash happens to sort.
    auto Victim = Index.end();
    for (auto It = Index.begin(); It != Index.end(); ++It) {
      if (ExcludeName && It->first == *ExcludeName)
        continue;
      if (Victim == Index.end() ||
          It->second.LastUse < Victim->second.LastUse ||
          (It->second.LastUse == Victim->second.LastUse &&
           It->first < Victim->first))
        Victim = It;
    }
    if (Victim == Index.end())
      return; // only the excluded file remains over-cap
    ::unlink((Root + "/" + Victim->first).c_str());
    TotalBytes -= Victim->second.Bytes;
    Index.erase(Victim);
    ++Counters.EvictedFiles;
  }
}

void SpillStore::store(const UnitKey &Key, const UnitPtr &Unit) {
  if (!enabled() || !Unit)
    return;

  SnapshotMeta Meta = SnapshotMeta::fromOptions(Unit->Options);
  Meta.FragmentName = Unit->Shader;
  Meta.VaryingParams = Unit->Varying;
  Meta.GridWidth = Unit->Grid.width();
  Meta.GridHeight = Unit->Grid.height();
  Meta.Controls = Unit->LoadControls;

  std::string Path = pathFor(Key);
  std::string TmpPath =
      Path + formatString(".tmp.%ld", static_cast<long>(::getpid()));
  std::string WriteError;
  if (!RenderEngine::saveSnapshot(TmpPath, Meta, Unit->Loader, Unit->Reader,
                                  Unit->Layout, Unit->Arena, &WriteError)) {
    ::unlink(TmpPath.c_str());
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Errors;
    return;
  }
  struct stat St;
  uint64_t Bytes =
      ::stat(TmpPath.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Errors;
    return;
  }

  std::lock_guard<std::mutex> Lock(M);
  std::string Name = Path.substr(Root.size() + 1);
  auto It = Index.find(Name);
  if (It != Index.end())
    TotalBytes -= It->second.Bytes;
  Index[Name] = {Bytes, nowSeconds()};
  TotalBytes += Bytes;
  ++Counters.Writes;
  enforceCapLocked(&Name);
}

std::shared_ptr<SpecializationUnit> SpillStore::load(const UnitKey &Key,
                                                     std::string *Error) {
  if (!enabled())
    return nullptr;
  std::string Path = pathFor(Key);
  std::string Name = Path.substr(Root.size() + 1);
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Index.find(Name) == Index.end()) {
      ++Counters.DiskMisses;
      return nullptr;
    }
  }

  // A file that fails a check below is counted as an error and a disk
  // miss; the caller then builds the unit.
  auto Reject = [&](std::string Why) -> std::shared_ptr<SpecializationUnit> {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Errors;
    ++Counters.DiskMisses;
    if (Error)
      *Error = std::move(Why);
    return nullptr;
  };

  SpecializationSnapshot Snap;
  std::string ReadError;
  if (!readSnapshotFile(Path, Snap, &ReadError))
    return Reject("spilled unit unreadable: " + ReadError);
  // The file name is a hash; verify the contents actually describe this
  // key's unit before serving it. The META must reproduce the key's
  // invariant hash, grid size included: a unit of another size would
  // render past the end of the request's framebuffer.
  if (Snap.Meta.FragmentName != Key.Shader)
    return Reject("spilled unit names shader '" + Snap.Meta.FragmentName +
                  "', expected '" + Key.Shader + "'");
  const ShaderInfo *Info = findShader(Key.Shader);
  if (!Info || Snap.Meta.Controls.size() != Info->Controls.size() ||
      invariantHash(*Info, Snap.Meta.GridWidth, Snap.Meta.GridHeight,
                    Snap.Meta.VaryingParams,
                    Snap.Meta.Controls) != Key.InvariantHash)
    return Reject("spilled " + std::to_string(Snap.Meta.GridWidth) + "x" +
                  std::to_string(Snap.Meta.GridHeight) + " '" + Key.Shader +
                  "' unit does not match its key's invariant inputs");

  auto Unit = std::make_shared<SpecializationUnit>(Snap.Meta.GridWidth,
                                                   Snap.Meta.GridHeight);
  Unit->Shader = Snap.Meta.FragmentName;
  Unit->Varying = Snap.Meta.VaryingParams;
  Unit->LoadControls = Snap.Meta.Controls;
  Unit->Layout = Snap.Layout;
  Unit->Loader = std::move(Snap.Loader);
  Unit->Reader = std::move(Snap.Reader);
  if (!Unit->Arena.restore(Snap.ArenaPixels, Snap.Layout,
                           std::move(Snap.ArenaBytes)))
    return Reject("spilled arena shape does not match its layout");
  Unit->Options.EnableJoinNormalize = Snap.Meta.JoinNormalize;
  Unit->Options.EnableReassociate = Snap.Meta.Reassociate;
  Unit->Options.AllowSpeculation = Snap.Meta.Speculation;
  Unit->Options.WeightVictimBySize = Snap.Meta.WeightVictimBySize;
  if (Snap.Meta.CacheByteLimit)
    Unit->Options.CacheByteLimit = *Snap.Meta.CacheByteLimit;

  // Bump the LRU clock so the cap evicts genuinely cold files first.
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Name);
  if (It != Index.end())
    It->second.LastUse = nowSeconds();
  ++Counters.DiskHits;
  return Unit;
}

SpillStore::Stats SpillStore::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  Stats Out = Counters;
  Out.Files = Index.size();
  Out.Bytes = TotalBytes;
  return Out;
}
