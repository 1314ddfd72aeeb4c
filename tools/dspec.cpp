//===- tools/dspec.cpp - Command-line data specializer -----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `dspec` command-line tool: reads a dsc source file, specializes one
/// of its functions on a user-supplied input partition, and prints the
/// cache loader and cache reader (Figure 2 style) plus the cache layout.
///
///   dspec FILE --fragment NAME --vary a,b[,c...]
///         [--limit BYTES] [--reassoc] [--no-phi] [--speculate]
///         [--show-normalized] [--stats]
///
/// Snapshot subcommands persist a specialization (and its loader-filled
/// cache arena) across processes:
///
///   dspec snapshot save (--gallery SHADER | FILE --fragment NAME)
///         --out SNAP [--vary P1[,P2...]] [--width W] [--height H]
///         [--controls v1,v2,...] [--limit BYTES] [--reassoc] [--no-phi]
///         [--speculate]
///   dspec snapshot info SNAP
///   dspec snapshot verify SNAP
///
/// Service subcommands run the long-lived specialization service and talk
/// to it over a unix-domain socket or TCP (see docs/SERVICE.md):
///
///   dspec serve (--socket PATH | --listen HOST:PORT) [--io-threads N]
///         [--threads N] [--tile PIXELS] [--cache-units N] [--queue N]
///         [--dispatchers N] [--exec-tier switch|batched]
///         [--quota-rps R] [--quota-burst B] [--client-queue N]
///         [--read-deadline MS] [--spill-dir PATH] [--spill-cap-mb N]
///   dspec request (--socket PATH | --tcp HOST:PORT) --gallery SHADER
///         [--width W] [--height H] [--vary P1[,P2...]] [--controls v1,...]
///         [--deadline MS] [--repeat N] [--check-plain] [--ppm PATH]
///   dspec request (--socket PATH | --tcp HOST:PORT) --statsz
///
/// Exit codes (uniform across every subcommand):
///   0  success
///   1  usage error (bad flags or arguments)
///   2  runtime failure (I/O, parse/specialize error, trap, failed verify)
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "lang/ASTPrinter.h"
#include "net/Acceptor.h"
#include "net/NetServer.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "snapshot/Snapshot.h"
#include "support/Crc32.h"
#include "support/StringUtil.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

using namespace dspec;

namespace {

// Uniform exit codes, printed by --help and used by every subcommand.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitFailure = 2;

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s FILE --fragment NAME --vary P1[,P2...]\n"
      "            [--limit BYTES] [--reassoc] [--no-phi] [--speculate]\n"
      "            [--explain] [--show-normalized] [--stats]\n"
      "       %s snapshot save (--gallery SHADER | FILE --fragment NAME)\n"
      "            --out SNAP [--vary P1[,P2...]] [--width W] [--height H]\n"
      "            [--controls v1,v2,...] [--limit BYTES] [--reassoc]\n"
      "            [--no-phi] [--speculate]\n"
      "       %s snapshot info SNAP\n"
      "       %s snapshot verify SNAP\n"
      "       %s serve (--socket PATH | --listen HOST:PORT) [--io-threads N]\n"
      "            [--threads N] [--tile PIXELS] [--cache-units N]\n"
      "            [--cache-shards N] [--queue N] [--dispatchers N]\n"
      "            [--exec-tier switch|batched] [--quota-rps R]\n"
      "            [--quota-burst B] [--client-queue N] [--read-deadline MS]\n"
      "            [--spill-dir PATH] [--spill-cap-mb N]\n"
      "       %s request (--socket PATH | --tcp HOST:PORT) --gallery SHADER\n"
      "            [--width W] [--height H] [--vary P1[,P2...]]\n"
      "            [--controls v1,...] [--deadline MS] [--repeat N]\n"
      "            [--check-plain] [--ppm PATH]\n"
      "       %s request (--socket PATH | --tcp HOST:PORT) --statsz\n"
      "\n"
      "Splits the named dsc function into a cache loader and cache reader\n"
      "for the input partition where P1, P2, ... vary and every other\n"
      "parameter is fixed (Knoblock & Ruf, PLDI 1996). The snapshot\n"
      "subcommands persist the split programs plus a loader-filled cache\n"
      "arena so fresh processes warm-start straight into reader frames.\n"
      "The serve/request subcommands run the specialization service: a\n"
      "long-lived daemon with a keyed cache of specialization units.\n"
      "\n"
      "exit codes: 0 success, 1 usage error, 2 runtime/verify failure\n",
      Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0);
}

bool readFileToString(const char *Path, std::string &Out) {
  std::ifstream File(Path);
  if (!File)
    return false;
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  Out = Buffer.str();
  return true;
}

int snapshotSave(int Argc, char **Argv) {
  const char *FilePath = nullptr;
  const char *GalleryName = nullptr;
  const char *FragmentName = nullptr;
  const char *OutPath = nullptr;
  std::vector<std::string> Varying;
  std::vector<float> UserControls;
  bool HaveUserControls = false;
  unsigned Width = 48, Height = 32;
  SpecializerOptions Options;

  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg);
        std::exit(kExitUsage);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--gallery") == 0) {
      GalleryName = NextValue();
    } else if (std::strcmp(Arg, "--fragment") == 0) {
      FragmentName = NextValue();
    } else if (std::strcmp(Arg, "--out") == 0 || std::strcmp(Arg, "-o") == 0) {
      OutPath = NextValue();
    } else if (std::strcmp(Arg, "--vary") == 0) {
      for (const std::string &Name : splitString(NextValue(), ','))
        if (!Name.empty())
          Varying.push_back(Name);
    } else if (std::strcmp(Arg, "--width") == 0) {
      Width = static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    } else if (std::strcmp(Arg, "--height") == 0) {
      Height = static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    } else if (std::strcmp(Arg, "--controls") == 0) {
      HaveUserControls = true;
      for (const std::string &Text : splitString(NextValue(), ','))
        if (!Text.empty())
          UserControls.push_back(std::strtof(Text.c_str(), nullptr));
    } else if (std::strcmp(Arg, "--limit") == 0) {
      Options.CacheByteLimit = std::strtoul(NextValue(), nullptr, 10);
    } else if (std::strcmp(Arg, "--reassoc") == 0) {
      Options.EnableReassociate = true;
    } else if (std::strcmp(Arg, "--no-phi") == 0) {
      Options.EnableJoinNormalize = false;
    } else if (std::strcmp(Arg, "--speculate") == 0) {
      Options.AllowSpeculation = true;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      return kExitUsage;
    } else if (!FilePath) {
      FilePath = Arg;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return kExitUsage;
    }
  }

  if (!OutPath || (!GalleryName && (!FilePath || !FragmentName)) ||
      (GalleryName && FilePath)) {
    std::fprintf(stderr,
                 "error: snapshot save needs --out and either --gallery "
                 "SHADER or FILE --fragment NAME\n");
    return kExitUsage;
  }
  if (Width == 0 || Height == 0) {
    std::fprintf(stderr, "error: --width/--height must be positive\n");
    return kExitUsage;
  }

  std::string Source;
  std::string Fragment;
  std::vector<float> DefaultControls;
  if (GalleryName) {
    const ShaderInfo *Info = findShader(GalleryName);
    if (!Info) {
      std::fprintf(stderr, "error: no gallery shader named '%s'\n",
                   GalleryName);
      return kExitFailure;
    }
    Source = Info->Source;
    Fragment = Info->Name;
    for (const ControlParam &Control : Info->Controls)
      DefaultControls.push_back(Control.Default);
    if (Varying.empty())
      Varying.push_back(Info->Controls.front().Name);
  } else {
    if (!readFileToString(FilePath, Source)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", FilePath);
      return kExitFailure;
    }
    Fragment = FragmentName;
    if (Varying.empty()) {
      std::fprintf(stderr, "error: --vary is required with a FILE input\n");
      return kExitUsage;
    }
  }

  auto Unit = parseUnit(Source);
  if (!Unit->ok()) {
    std::fprintf(stderr, "%s", Unit->Diags.str().c_str());
    return kExitFailure;
  }
  auto Spec = specializeAndCompile(*Unit, Fragment, Varying, Options);
  if (!Spec) {
    std::fprintf(stderr, "%s", Unit->Diags.str().c_str());
    return kExitFailure;
  }

  if (Spec->LoaderChunk.NumParams < RenderEngine::NumPixelParams) {
    std::fprintf(stderr,
                 "error: '%s' takes %u parameters; a renderable fragment "
                 "needs the %u per-pixel inputs (uv, P, N, I) first\n",
                 Fragment.c_str(), Spec->LoaderChunk.NumParams,
                 RenderEngine::NumPixelParams);
    return kExitFailure;
  }
  unsigned NumControls =
      Spec->LoaderChunk.NumParams - RenderEngine::NumPixelParams;
  std::vector<float> Controls(NumControls, 1.0f);
  if (!DefaultControls.empty() && DefaultControls.size() == NumControls)
    Controls = DefaultControls;
  if (HaveUserControls) {
    if (UserControls.size() != NumControls) {
      std::fprintf(stderr,
                   "error: --controls has %zu value(s); '%s' takes %u\n",
                   UserControls.size(), Fragment.c_str(), NumControls);
      return kExitUsage;
    }
    Controls = UserControls;
  }

  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  CacheArena Arena;
  if (!Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid, Controls,
                         Arena)) {
    std::fprintf(stderr, "error: loader pass trapped: %s\n",
                 Engine.lastTrap().c_str());
    return kExitFailure;
  }

  SnapshotMeta Meta = SnapshotMeta::fromOptions(Options);
  Meta.FragmentName = Fragment;
  Meta.VaryingParams = Varying;
  Meta.GridWidth = Width;
  Meta.GridHeight = Height;
  Meta.Controls = Controls;

  std::string Error;
  if (!RenderEngine::saveSnapshot(OutPath, Meta, Spec->LoaderChunk,
                                  Spec->ReaderChunk, Spec->Spec.Layout, Arena,
                                  &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return kExitFailure;
  }

  std::printf("wrote %s: '%s' vary ", OutPath, Fragment.c_str());
  for (size_t I = 0; I < Varying.size(); ++I)
    std::printf("%s%s", I ? "," : "", Varying[I].c_str());
  std::printf("; %ux%u pixels x %uB cache = %zu arena bytes (%s)\n", Width,
              Height, Spec->Spec.Layout.totalBytes(), Arena.totalBytes(),
              Meta.optionsSummary().c_str());
  return kExitOk;
}

int snapshotInfo(const char *Path) {
  SnapshotFileInfo Info;
  std::string Error;
  if (!inspectSnapshotFile(Path, Info, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return kExitFailure;
  }
  std::printf("%s: snapshot format v%u, %llu bytes, %zu sections\n", Path,
              Info.FormatVersion,
              static_cast<unsigned long long>(Info.FileBytes),
              Info.Sections.size());
  std::printf("  %-8s %10s %12s %12s %s\n", "section", "offset", "bytes",
              "crc32", "check");
  for (const SnapshotSectionInfo &Section : Info.Sections)
    std::printf("  %-8s %10llu %12llu     %08x %s\n",
                snapshotSectionName(Section.Id),
                static_cast<unsigned long long>(Section.Offset),
                static_cast<unsigned long long>(Section.Bytes),
                Section.StoredCrc, Section.CrcOk ? "ok" : "FAIL");

  // Decode the payloads too when they are intact; info stays useful on a
  // partially corrupt file by degrading to the table above.
  SpecializationSnapshot Snap;
  if (!readSnapshotFile(Path, Snap, &Error)) {
    std::printf("  (payloads not decoded: %s)\n", Error.c_str());
    return kExitOk;
  }
  std::printf("  fragment '%s', vary ", Snap.Meta.FragmentName.c_str());
  for (size_t I = 0; I < Snap.Meta.VaryingParams.size(); ++I)
    std::printf("%s%s", I ? "," : "", Snap.Meta.VaryingParams[I].c_str());
  std::printf("; options: %s\n", Snap.Meta.optionsSummary().c_str());
  std::printf("  grid %ux%u, %u controls; loader %zu instrs, reader %zu "
              "instrs\n",
              Snap.Meta.GridWidth, Snap.Meta.GridHeight,
              static_cast<unsigned>(Snap.Meta.Controls.size()),
              Snap.Loader.Code.size(), Snap.Reader.Code.size());
  std::printf("  cache layout: %u slot(s), %u byte(s)/pixel\n",
              Snap.Layout.slotCount(), Snap.Layout.totalBytes());
  for (const CacheSlot &Slot : Snap.Layout.slots())
    std::printf("    slot%-3u %-6s offset %u\n", Slot.Index,
                Slot.SlotType.name(), Slot.Offset);
  return kExitOk;
}

int snapshotVerify(const char *Path) {
  SpecializationSnapshot Snap;
  std::string Error;
  if (!readSnapshotFile(Path, Snap, &Error)) {
    std::fprintf(stderr, "%s: FAILED\n  %s\n", Path, Error.c_str());
    return kExitFailure;
  }
  std::printf("%s: OK ('%s', %u pixels x %uB cache, all CRCs and chunk "
              "verification passed)\n",
              Path, Snap.Meta.FragmentName.c_str(), Snap.ArenaPixels,
              Snap.ArenaStride);
  return kExitOk;
}

int snapshotMain(int Argc, char **Argv) {
  if (Argc < 1) {
    std::fprintf(stderr,
                 "error: snapshot needs a subcommand (save|info|verify)\n");
    return kExitUsage;
  }
  const char *Sub = Argv[0];
  if (std::strcmp(Sub, "save") == 0)
    return snapshotSave(Argc - 1, Argv + 1);
  if (std::strcmp(Sub, "info") == 0 || std::strcmp(Sub, "verify") == 0) {
    if (Argc != 2) {
      std::fprintf(stderr, "error: snapshot %s takes exactly one file\n",
                   Sub);
      return kExitUsage;
    }
    return std::strcmp(Sub, "info") == 0 ? snapshotInfo(Argv[1])
                                         : snapshotVerify(Argv[1]);
  }
  std::fprintf(stderr, "error: unknown snapshot subcommand '%s'\n", Sub);
  return kExitUsage;
}

//===----------------------------------------------------------------------===//
// dspec serve
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t GStopRequested = 0;
/// eventfd the signal handler writes so the parked main thread wakes
/// immediately (write(2) is async-signal-safe; no polling interval).
int GStopEventFd = -1;

void handleStopSignal(int) {
  GStopRequested = 1;
  if (GStopEventFd >= 0) {
    uint64_t One = 1;
    [[maybe_unused]] ssize_t N = ::write(GStopEventFd, &One, sizeof(One));
  }
}

int serveMain(int Argc, char **Argv) {
  const char *SocketPath = nullptr;
  const char *ListenHostPort = nullptr;
  ServiceConfig Config;
  NetServerConfig Net;

  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg);
        std::exit(kExitUsage);
      }
      return Argv[++I];
    };
    auto NextUnsigned = [&]() -> unsigned {
      return static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    };
    if (std::strcmp(Arg, "--socket") == 0)
      SocketPath = NextValue();
    else if (std::strcmp(Arg, "--listen") == 0)
      ListenHostPort = NextValue();
    else if (std::strcmp(Arg, "--io-threads") == 0)
      Net.IoThreads = NextUnsigned();
    else if (std::strcmp(Arg, "--quota-rps") == 0)
      Net.QuotaRps = std::strtod(NextValue(), nullptr);
    else if (std::strcmp(Arg, "--quota-burst") == 0)
      Net.QuotaBurst = std::strtod(NextValue(), nullptr);
    else if (std::strcmp(Arg, "--client-queue") == 0)
      Net.MaxClientQueue = NextUnsigned();
    else if (std::strcmp(Arg, "--read-deadline") == 0)
      Net.ReadDeadlineMillis = NextUnsigned();
    else if (std::strcmp(Arg, "--spill-dir") == 0)
      Config.SpillDir = NextValue();
    else if (std::strcmp(Arg, "--spill-cap-mb") == 0)
      Config.SpillMaxBytes = static_cast<uint64_t>(NextUnsigned()) << 20;
    else if (std::strcmp(Arg, "--threads") == 0)
      Config.RenderThreads = NextUnsigned();
    else if (std::strcmp(Arg, "--tile") == 0)
      Config.TilePixels = NextUnsigned();
    else if (std::strcmp(Arg, "--cache-units") == 0)
      Config.CacheUnits = NextUnsigned();
    else if (std::strcmp(Arg, "--cache-shards") == 0)
      Config.CacheShards = NextUnsigned();
    else if (std::strcmp(Arg, "--queue") == 0)
      Config.QueueCapacity = NextUnsigned();
    else if (std::strcmp(Arg, "--dispatchers") == 0)
      Config.Dispatchers = NextUnsigned();
    else if (std::strcmp(Arg, "--exec-tier") == 0) {
      const char *Name = NextValue();
      if (!parseExecTier(Name, Config.Tier)) {
        std::fprintf(stderr,
                     "error: --exec-tier expects switch or batched "
                     "(got '%s')\n",
                     Name);
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "error: unknown serve option '%s'\n", Arg);
      return kExitUsage;
    }
  }
  if (!SocketPath && !ListenHostPort) {
    std::fprintf(stderr,
                 "error: serve requires --socket PATH and/or --listen "
                 "HOST:PORT\n");
    return kExitUsage;
  }
  if (SocketPath)
    Net.UnixPath = SocketPath;
  if (ListenHostPort)
    Net.TcpHostPort = ListenHostPort;

  SpecializationService Service(Config);
  NetServer Server(Service, Net);
  Service.setNetStatsProvider([&Server] { return Server.statsJson(); });

  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return kExitFailure;
  }

  GStopEventFd = ::eventfd(0, EFD_CLOEXEC);
  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);

  std::string Where;
  if (SocketPath)
    Where = SocketPath;
  if (Server.boundTcpPort() != 0) {
    if (!Where.empty())
      Where += " and ";
    Where += "tcp " + std::string(ListenHostPort);
    Where += formatString(" (port %u)", Server.boundTcpPort());
  }
  std::printf("dspec serve: listening on %s (%u io thread(s), %u "
              "dispatcher(s) × %u render thread(s), cache %u units, "
              "queue %u, %s tier%s)\n",
              Where.c_str(), Server.config().IoThreads,
              Service.config().Dispatchers, Service.config().RenderThreads,
              Service.config().CacheUnits,
              Service.config().QueueCapacity,
              execTierName(Service.config().Tier),
              Config.SpillDir.empty() ? "" : ", spill on");
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM; the handler's eventfd write ends the
  // indefinite poll immediately.
  while (!GStopRequested) {
    pollfd P = {GStopEventFd, POLLIN, 0};
    int Ready = ::poll(&P, 1, -1);
    if (Ready > 0)
      break;
  }

  // Graceful drain: stop accepting, answer everything already queued,
  // flush every reply to the kernel, then tear the loops down.
  std::printf("dspec serve: SIGINT/SIGTERM received, draining\n");
  Server.beginDrain();
  Service.drain();
  Server.quiesce(/*TimeoutSeconds=*/5.0);

  std::printf("dspec serve: final statsz\n%s\n",
              Service.statsz().toJson().c_str());

  Server.shutdownServer();
  ::close(GStopEventFd);
  GStopEventFd = -1;
  return kExitOk;
}

//===----------------------------------------------------------------------===//
// dspec request
//===----------------------------------------------------------------------===//

/// Renders the same frame locally with the *unspecialized* shader — the
/// plain-pass ground truth a service reply must match bit-for-bit.
bool renderPlainReference(const ShaderInfo &Info, unsigned Width,
                          unsigned Height, const std::vector<float> &Controls,
                          Framebuffer &Out, std::string &Error) {
  auto Unit = parseUnit(Info.Source);
  if (!Unit->ok()) {
    Error = Unit->Diags.str();
    return false;
  }
  auto Plain = compileFunction(*Unit, Info.Name);
  if (!Plain) {
    Error = Unit->Diags.str();
    return false;
  }
  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  if (!Engine.plainPass(*Plain, Grid, Controls, &Out)) {
    Error = "plain pass trapped: " + Engine.lastTrap();
    return false;
  }
  return true;
}

bool framebuffersBitIdentical(const Framebuffer &A, const Framebuffer &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return false;
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X) {
      const Value &Va = A.at(X, Y), &Vb = B.at(X, Y);
      if (std::memcmp(Va.F, Vb.F, sizeof(Va.F)) != 0)
        return false;
    }
  return true;
}

int requestMain(int Argc, char **Argv) {
  const char *SocketPath = nullptr;
  const char *TcpHostPort = nullptr;
  const char *GalleryName = nullptr;
  const char *PpmPath = nullptr;
  bool WantStats = false;
  bool CheckPlain = false;
  unsigned Repeat = 1;
  RenderRequest Request;

  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg);
        std::exit(kExitUsage);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--socket") == 0)
      SocketPath = NextValue();
    else if (std::strcmp(Arg, "--tcp") == 0)
      TcpHostPort = NextValue();
    else if (std::strcmp(Arg, "--gallery") == 0)
      GalleryName = NextValue();
    else if (std::strcmp(Arg, "--statsz") == 0)
      WantStats = true;
    else if (std::strcmp(Arg, "--width") == 0)
      Request.Width =
          static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    else if (std::strcmp(Arg, "--height") == 0)
      Request.Height =
          static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    else if (std::strcmp(Arg, "--vary") == 0) {
      for (const std::string &Name : splitString(NextValue(), ','))
        if (!Name.empty())
          Request.Varying.push_back(Name);
    } else if (std::strcmp(Arg, "--controls") == 0) {
      for (const std::string &Text : splitString(NextValue(), ','))
        if (!Text.empty())
          Request.Controls.push_back(std::strtof(Text.c_str(), nullptr));
    } else if (std::strcmp(Arg, "--deadline") == 0)
      Request.DeadlineMillis =
          static_cast<uint32_t>(std::strtoul(NextValue(), nullptr, 10));
    else if (std::strcmp(Arg, "--repeat") == 0)
      Repeat = static_cast<unsigned>(std::strtoul(NextValue(), nullptr, 10));
    else if (std::strcmp(Arg, "--check-plain") == 0)
      CheckPlain = true;
    else if (std::strcmp(Arg, "--ppm") == 0)
      PpmPath = NextValue();
    else {
      std::fprintf(stderr, "error: unknown request option '%s'\n", Arg);
      return kExitUsage;
    }
  }

  if ((!SocketPath && !TcpHostPort) || (SocketPath && TcpHostPort) ||
      (!GalleryName && !WantStats) || (GalleryName && WantStats) ||
      Repeat == 0) {
    std::fprintf(stderr,
                 "error: request needs --socket PATH or --tcp HOST:PORT "
                 "(not both) and either --gallery SHADER or --statsz\n");
    return kExitUsage;
  }

  std::string Error;
  std::unique_ptr<Transport> Conn;
  if (TcpHostPort) {
    std::string Host;
    uint16_t Port = 0;
    if (!splitHostPort(TcpHostPort, Host, Port)) {
      std::fprintf(stderr,
                   "error: malformed --tcp address '%s' (expected "
                   "host:port)\n",
                   TcpHostPort);
      return kExitUsage;
    }
    Conn = connectTcp(Host, Port, &Error);
  } else {
    Conn = connectUnixSocket(SocketPath, &Error);
  }
  if (!Conn) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return kExitFailure;
  }

  if (WantStats) {
    auto Json = requestStats(*Conn, &Error);
    if (!Json) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return kExitFailure;
    }
    std::printf("%s\n", Json->c_str());
    return kExitOk;
  }

  const ShaderInfo *Info = findShader(GalleryName);
  if (!Info) {
    std::fprintf(stderr, "error: no gallery shader named '%s'\n",
                 GalleryName);
    return kExitFailure;
  }
  Request.Shader = Info->Name;
  // Resolve defaults client-side so --check-plain knows the exact control
  // vector the service renders with.
  if (Request.Controls.empty())
    Request.Controls = ShaderLab::defaultControls(*Info);
  if (Request.Varying.empty())
    Request.Varying.push_back(Info->Controls.front().Name);
  const ControlParam *Sweep = nullptr;
  size_t SweepIndex = 0;
  for (size_t C = 0; C < Info->Controls.size(); ++C)
    if (Info->Controls[C].Name == Request.Varying.front()) {
      Sweep = &Info->Controls[C];
      SweepIndex = C;
    }

  for (unsigned Frame = 0; Frame < Repeat; ++Frame) {
    // Drag the first varying control across its sweep range, one value
    // per repeat — the service should hit its unit cache after frame 0.
    if (Sweep && Repeat > 1 && SweepIndex < Request.Controls.size())
      Request.Controls[SweepIndex] =
          Sweep->SweepMin + (Sweep->SweepMax - Sweep->SweepMin) *
                                static_cast<float>(Frame) /
                                static_cast<float>(Repeat - 1);

    auto Start = std::chrono::steady_clock::now();
    auto Reply = requestRender(*Conn, Request, &Error);
    double ClientMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - Start)
            .count();
    if (!Reply) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return kExitFailure;
    }
    if (!Reply->ok()) {
      std::fprintf(stderr, "%s: %s (%s)\n", Info->Name.c_str(),
                   renderStatusName(Reply->Status), Reply->Error.c_str());
      return kExitFailure;
    }

    uint32_t PixelCrc =
        crc32(Reply->Pixels.data(), Reply->Pixels.size() * sizeof(float));
    // Two latencies per frame: what the service measured and what this
    // client saw wall-to-wall (framing and transport included).
    std::printf("%s frame %u: %ux%u, %s, service %.3f ms, client %.3f ms, "
                "pixels crc32 %08x\n",
                Info->Name.c_str(), Frame, Reply->Width, Reply->Height,
                Reply->CacheHit ? "cache hit" : "cache miss",
                static_cast<double>(Reply->ServiceMicros) / 1000.0,
                ClientMillis, PixelCrc);

    if (CheckPlain) {
      Framebuffer Reference(Request.Width, Request.Height);
      if (!renderPlainReference(*Info, Request.Width, Request.Height,
                                Request.Controls, Reference, Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return kExitFailure;
      }
      if (!framebuffersBitIdentical(Reply->toFramebuffer(), Reference)) {
        std::fprintf(stderr,
                     "error: %s frame %u differs from the local plain-pass "
                     "render\n",
                     Info->Name.c_str(), Frame);
        return kExitFailure;
      }
      std::printf("%s frame %u: bit-identical to the local plain pass\n",
                  Info->Name.c_str(), Frame);
    }
    if (PpmPath && Frame == Repeat - 1 &&
        !Reply->toFramebuffer().writePPM(PpmPath)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", PpmPath);
      return kExitFailure;
    }
  }
  return kExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "snapshot") == 0)
    return snapshotMain(Argc - 2, Argv + 2);
  if (Argc >= 2 && std::strcmp(Argv[1], "serve") == 0)
    return serveMain(Argc - 2, Argv + 2);
  if (Argc >= 2 && std::strcmp(Argv[1], "request") == 0)
    return requestMain(Argc - 2, Argv + 2);

  const char *FilePath = nullptr;
  const char *FragmentName = nullptr;
  std::vector<std::string> Varying;
  SpecializerOptions Options;
  bool ShowNormalized = false;
  bool ShowStats = false;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg);
        std::exit(kExitUsage);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--fragment") == 0) {
      FragmentName = NextValue();
    } else if (std::strcmp(Arg, "--vary") == 0) {
      for (const std::string &Name : splitString(NextValue(), ','))
        if (!Name.empty())
          Varying.push_back(Name);
    } else if (std::strcmp(Arg, "--limit") == 0) {
      Options.CacheByteLimit = std::strtoul(NextValue(), nullptr, 10);
    } else if (std::strcmp(Arg, "--reassoc") == 0) {
      Options.EnableReassociate = true;
    } else if (std::strcmp(Arg, "--no-phi") == 0) {
      Options.EnableJoinNormalize = false;
    } else if (std::strcmp(Arg, "--speculate") == 0) {
      Options.AllowSpeculation = true;
    } else if (std::strcmp(Arg, "--show-normalized") == 0) {
      ShowNormalized = true;
    } else if (std::strcmp(Arg, "--explain") == 0) {
      Options.CollectExplanation = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      ShowStats = true;
    } else if (std::strcmp(Arg, "--help") == 0) {
      usage(Argv[0]);
      return kExitOk;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return kExitUsage;
    } else if (!FilePath) {
      FilePath = Arg;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return kExitUsage;
    }
  }

  if (!FilePath || !FragmentName || Varying.empty()) {
    usage(Argv[0]);
    return kExitUsage;
  }

  std::string Source;
  if (!readFileToString(FilePath, Source)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", FilePath);
    return kExitFailure;
  }

  auto Unit = parseUnit(Source);
  if (!Unit->ok()) {
    std::fprintf(stderr, "%s", Unit->Diags.str().c_str());
    return kExitFailure;
  }

  auto Spec = specializeAndCompile(*Unit, FragmentName, Varying, Options);
  if (!Spec) {
    std::fprintf(stderr, "%s", Unit->Diags.str().c_str());
    return kExitFailure;
  }

  if (ShowNormalized)
    std::printf("// normalized fragment (after Section 4.1/4.2 "
                "preprocessing)\n%s\n",
                Spec->normalizedSource().c_str());
  std::printf("// cache loader\n%s\n", Spec->loaderSource().c_str());
  std::printf("// cache reader\n%s\n", Spec->readerSource().c_str());

  std::printf("// cache layout: %u slot(s), %u byte(s)\n",
              Spec->Spec.Layout.slotCount(), Spec->Spec.Layout.totalBytes());
  for (const CacheSlot &Slot : Spec->Spec.Layout.slots())
    std::printf("//   slot%-3u %-6s offset %u%s\n", Slot.Index,
                Slot.SlotType.name(), Slot.Offset,
                Slot.isCold() ? "  (cold)" : "");

  if (Options.CollectExplanation) {
    std::printf("\n%s", Spec->Spec.Explanation.c_str());

    // The execution view: what the fast interpreter's fusion pass made of
    // the reader bytecode (see docs/ENGINE.md, "Execution tiers"). A
    // batch-safe (effect-free) reader starts on the batched tier, and a
    // tile whose lanes disagree at a branch re-runs per pixel.
    ExecChunk Exec = buildExecChunk(Spec->ReaderChunk);
    if (Exec.Valid) {
      const unsigned Branches = conditionalBranchCount(Exec);
      if (!Exec.BatchSafe)
        std::printf("\nreader control flow: %u conditional branch(es) — "
                    "effectful, per-pixel tier\n",
                    Branches);
      else if (Branches == 0)
        std::printf("\nreader control flow: no conditional branches — "
                    "batched tier runs every tile in lockstep\n");
      else
        std::printf("\nreader control flow: %u conditional branch(es) — "
                    "batched tier; a tile whose lanes disagree at one "
                    "re-runs per pixel\n",
                    Branches);
      std::printf("reader superinstructions (%zu decoded op(s)):\n",
                  Exec.Code.size());
      auto Fused = fusedHistogram(Exec);
      if (Fused.empty())
        std::printf("  (no fusible pairs)\n");
      for (const auto &Row : Fused)
        std::printf("  %-12s x%u\n", Row.first, Row.second);
    }
  }

  if (ShowStats) {
    const SpecializationStats &S = Spec->Spec.Stats;
    std::printf("// stats: fragment %u terms (normalized %u), loader %u, "
                "reader %u\n"
                "//        exprs: %u static / %u cached / %u dynamic; "
                "%u dependent terms\n"
                "//        phi copies %u, chains reassociated %u, limiter "
                "victims %u\n",
                S.FragmentTerms, S.NormalizedTerms, S.LoaderTerms,
                S.ReaderTerms, S.StaticExprs, S.CachedExprs, S.DynamicExprs,
                S.DependentTerms, S.PhiCopiesInserted, S.ChainsReassociated,
                S.LimiterVictims);
  }
  return kExitOk;
}
