//===- perfbench/Replay.cpp - Traced in-process replay --------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "Stats.h"

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Service.h"
#include "service/SpillStore.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>

using namespace dspec;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double micros(Clock::duration D) {
  return std::chrono::duration<double, std::micro>(D).count();
}

/// In-memory span recorder.
class Tracer {
public:
  /// Opens a span; \p Parent is another span's id or -1 for a root.
  int begin(const char *Name, uint64_t Request, int Parent = -1) {
    Spans.push_back({Name, Request, Parent, Clock::now(), {}});
    return static_cast<int>(Spans.size() - 1);
  }
  void end(int Span) { Spans[static_cast<size_t>(Span)].End = Clock::now(); }

  /// Per span name, every span's self time in microseconds: its duration
  /// minus the part of it that its child spans cover.
  std::map<std::string, std::vector<double>> selfMicros() const {
    std::vector<double> ChildMicros(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMicros[static_cast<size_t>(S.Parent)] += micros(S.End - S.Start);
    std::map<std::string, std::vector<double>> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name].push_back(micros(Spans[I].End - Spans[I].Start) -
                                   ChildMicros[I]);
    return Out;
  }

  /// Per request id, the summed durations of spans named \p Name.
  std::map<uint64_t, double> microsByRequest(const char *Name) const {
    std::map<uint64_t, double> Out;
    for (const Span &S : Spans)
      if (std::strcmp(S.Name, Name) == 0)
        Out[S.Request] += micros(S.End - S.Start);
    return Out;
  }

private:
  struct Span {
    const char *Name;
    uint64_t Request;
    int Parent;
    Clock::time_point Start;
    Clock::time_point End;
  };
  std::vector<Span> Spans;
};

/// Reads one encoded frame back, as the client's readFrame would.
class BufferTransport : public Transport {
public:
  explicit BufferTransport(const std::vector<unsigned char> &Bytes)
      : Bytes(Bytes) {}
  bool writeAll(const void *, size_t) override { return false; }
  bool readAll(void *Data, size_t Size) override {
    if (Size > Bytes.size() - At)
      return false;
    std::memcpy(Data, Bytes.data() + At, Size);
    At += Size;
    return true;
  }
  void shutdown() override {}

private:
  const std::vector<unsigned char> &Bytes;
  size_t At = 0;
};

/// The spans each replayed request may open, in request order.
constexpr const char *kParse = "lang.parse_sema";
constexpr const char *kCompile = "specialize.compile";
constexpr const char *kLoader = "engine.loader_pass";
constexpr const char *kSpillLoad = "spill.load";
constexpr const char *kSpillStore = "spill.store";
constexpr const char *kReader = "engine.reader_pass";
constexpr const char *kEncode = "protocol.reply_encode";
constexpr const char *kDecode = "protocol.reply_decode";
constexpr const char *kVerify = "loadgen.verify";
constexpr const char *kRequest = "request";
constexpr const char *kRender = "service.render";
constexpr const char *kPlain = "engine.plain_pass";

class Replayer {
public:
  Replayer(const WorkloadDef &W, const Traffic &T) : W(W), T(T) {
    Engine.setExecTier(Config.Tier);
    Engine.setArenaLayout(Config.ArenaLayout);
  }

  bool run(const std::string &WorkDir, double BudgetSeconds,
           std::map<std::string, double> &Out,
           std::map<uint64_t, double> &Attributed, std::string &Error);

private:
  /// SpecializationService::buildUnit through its public calls, each
  /// call in a span under \p Parent when \p Tr is set.
  UnitPtr build(const RenderRequest &R, Tracer *Tr, uint64_t Id, int Parent,
                std::string &Error);
  /// One request: unit resolution, reader pass, reply encode, client
  /// decode and verification, each in a span under a "request" root.
  bool replayOne(const Item &It, uint64_t Id, std::string &Error);

  const WorkloadDef &W;
  const Traffic &T;
  ServiceConfig Config;
  RenderEngine Engine{Config.RenderThreads, Config.TilePixels};
  RenderGrid Grid{kWidth, kHeight};
  Tracer Tr;
  /// Slider: the warm units. Spill: every unit, the eviction victims.
  std::vector<UnitPtr> Units;
  std::optional<SpillStore> Spill;
  size_t Replayed = 0;
  double ActiveFractionSum = 0.0;
  uint64_t BatchTiles = 0, BailedTiles = 0;
  double CacheBytes = 0.0, ReaderInstrs = 0.0;
};

UnitPtr Replayer::build(const RenderRequest &R, Tracer *Tr, uint64_t Id,
                        int Parent, std::string &Error) {
  auto Span = [&](const char *Name) {
    return Tr ? Tr->begin(Name, Id, Parent) : -1;
  };
  auto End = [&](int S) {
    if (Tr)
      Tr->end(S);
  };
  const ShaderInfo *Info = findShader(R.Shader);
  int S = Span(kParse);
  auto Parsed = parseUnit(Info->Source);
  End(S);
  if (!Parsed->ok()) {
    Error = Parsed->Diags.str();
    return nullptr;
  }
  VariantSetOptions VOptions;
  VOptions.MaxVariants = 1;
  S = Span(kCompile);
  auto Set = specializeAndCompileVariants(*Parsed, R.Shader, R.Varying,
                                          R.toOptions(), VOptions);
  End(S);
  if (!Set || Set->Variants.empty()) {
    Error = Parsed->Diags.str();
    return nullptr;
  }
  CompiledVariant &V = Set->Variants.front();
  auto Built = std::make_shared<SpecializationUnit>(R.Width, R.Height);
  Built->Shader = R.Shader;
  Built->Options = R.toOptions();
  Built->Varying = R.Varying;
  Built->LoadControls = R.Controls;
  Built->Variant = V.Key;
  Built->VariantLabel = V.Label;
  Built->Layout = V.Compiled.Spec.Layout;
  Built->Loader = std::move(V.Compiled.LoaderChunk);
  Built->Reader = std::move(V.Compiled.ReaderChunk);
  S = Span(kLoader);
  bool Loaded = Engine.loaderPass(Built->Loader, Built->Layout, Built->Grid,
                                  Built->LoadControls, Built->Arena);
  End(S);
  if (!Loaded) {
    Error = "loader pass trapped: " + Engine.lastTrap();
    return nullptr;
  }
  return Built;
}

bool Replayer::replayOne(const Item &It, uint64_t Id, std::string &Error) {
  RenderRequest R = makeRequest(W, T, It);
  int Root = Tr.begin(kRequest, Id);
  UnitPtr Unit;
  switch (W.Kind) {
  case Mix::Slider:
    Unit = Units[It.Unit];
    break;
  case Mix::Churn:
    Unit = build(R, &Tr, Id, Root, Error);
    break;
  case Mix::Spill: {
    int S = Tr.begin(kSpillLoad, Id, Root);
    Unit = Spill->load(unitKeyOf(R), &Error);
    Tr.end(S);
    // The LRU victim a restore pushes out is rewritten in full; any
    // other unit of the cycle costs the same.
    uint32_t Victim =
        static_cast<uint32_t>((It.Unit + Units.size() / 2) % Units.size());
    UnitKey VictimKey = unitKeyOf(unitRequest(W, T, Victim));
    S = Tr.begin(kSpillStore, Id, Root);
    Spill->store(VictimKey, Units[Victim]);
    Tr.end(S);
    break;
  }
  }
  if (!Unit) {
    Error = "unit resolution failed: " + Error;
    return false;
  }

  Framebuffer Fb(kWidth, kHeight);
  int S = Tr.begin(kReader, Id, Root);
  bool Read = Engine.readerPass(Unit->Reader, Unit->Grid, R.Controls,
                                Unit->Arena, &Fb);
  Tr.end(S);
  if (!Read) {
    Error = "reader pass trapped: " + Engine.lastTrap();
    return false;
  }
  const RenderEngine::PassExecStats &Pass = Engine.lastPassStats();
  ActiveFractionSum += Pass.activeFraction();
  BatchTiles += Pass.BatchTiles;
  BailedTiles += Pass.BailedTiles;
  CacheBytes += Unit->Layout.totalBytes();
  ReaderInstrs += static_cast<double>(Unit->Reader.Code.size());

  S = Tr.begin(kEncode, Id, Root);
  RenderReply Reply = RenderReply::fromFramebuffer(Fb);
  ByteWriter Payload;
  encodeRenderReply(Payload, Reply);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderReply, Payload.bytes());
  Tr.end(S);

  S = Tr.begin(kDecode, Id, Root);
  BufferTransport Wire(Frame);
  FrameType Type;
  std::vector<unsigned char> Bytes;
  RenderReply Decoded;
  bool DecodedOk = readFrame(Wire, Type, Bytes, &Error);
  if (DecodedOk) {
    ByteReader Reader(Bytes);
    DecodedOk = decodeRenderReply(Reader, Decoded, &Error);
  }
  Tr.end(S);

  S = Tr.begin(kVerify, Id, Root);
  bool Match = DecodedOk && pixelCrc(Decoded.Pixels) == T.Pool[It.Entry].RefCrc;
  Tr.end(S);
  Tr.end(Root);
  if (!Match) {
    Error = DecodedOk ? "replayed reply differs from the plain-pass reference"
                      : "replayed reply does not decode: " + Error;
    return false;
  }
  return true;
}

bool Replayer::run(const std::string &WorkDir, double BudgetSeconds,
                   std::map<std::string, double> &Out,
                   std::map<uint64_t, double> &Attributed,
                   std::string &Error) {
  namespace fs = std::filesystem;
  // Untimed set-up: the warm state the workload's server had.
  ServiceConfig SvcConfig = Config;
  if (W.Kind == Mix::Spill) {
    fs::remove_all(WorkDir + "/replay-service-spill");
    SvcConfig.SpillDir = WorkDir + "/replay-service-spill";
    fs::remove_all(WorkDir + "/replay-spill");
    Spill.emplace();
    if (!Spill->open(WorkDir + "/replay-spill", Config.SpillMaxBytes, &Error))
      return false;
  }
  if (W.Kind != Mix::Churn)
    for (uint32_t U = 0; U < T.Units.size(); ++U) {
      RenderRequest R = unitRequest(W, T, U);
      UnitPtr Built = build(R, nullptr, 0, -1, Error);
      if (!Built)
        return false;
      if (Spill)
        Spill->store(unitKeyOf(R), Built);
      Units.push_back(std::move(Built));
    }
  SpecializationService Service(SvcConfig);
  for (const Item &It : T.Warmup)
    if (!Service.render(makeRequest(W, T, It)).ok()) {
      Error = "in-process service warm-up failed";
      return false;
    }
  std::vector<std::optional<Chunk>> Originals(shaderGallery().size());

  const std::vector<Item> &Seq = T.PerConn.front();
  auto Start = Clock::now();
  auto Budget = std::chrono::duration<double>(BudgetSeconds);
  for (uint64_t Id = 0; Id < Seq.size() && Id < 400 &&
                        Clock::now() - Start < Budget;
       ++Id) {
    const Item &It = Seq[Id];
    RenderRequest R = makeRequest(W, T, It);
    // The service composing the same calls, as one span.
    int S = Tr.begin(kRender, Id);
    RenderReply Served = Service.render(R);
    Tr.end(S);
    if (!Served.ok() || pixelCrc(Served.Pixels) != T.Pool[It.Entry].RefCrc) {
      Error = "in-process service reply differs from the reference";
      return false;
    }
    if (!replayOne(It, Id, Error))
      return false;
    // Figure 7 at the service grid, off the request path: the original
    // fragment on the same engine and tier as the reader.
    const ShaderInfo &Info = shaderGallery()[T.Units[It.Unit].Shader];
    std::optional<Chunk> &Original = Originals[T.Units[It.Unit].Shader];
    if (!Original) {
      auto Parsed = parseUnit(Info.Source);
      if (Parsed->ok())
        Original = compileFunction(*Parsed, Info.Name);
      if (!Original) {
        Error = "cannot compile " + Info.Name;
        return false;
      }
    }
    Framebuffer Fb(kWidth, kHeight);
    S = Tr.begin(kPlain, Id);
    bool Plain = Engine.plainPass(*Original, Grid, R.Controls, &Fb);
    Tr.end(S);
    if (!Plain) {
      Error = "plain pass trapped: " + Engine.lastTrap();
      return false;
    }
    ++Replayed;
  }
  if (Replayed == 0) {
    Error = "nothing replayed";
    return false;
  }

  auto Self = Tr.selfMicros();
  auto P50 = [&](const char *Name) { return percentile(Self[Name], 50.0); };
  Out["lang.parse_sema_us"] = P50(kParse);
  Out["specialize.compile_us"] = P50(kCompile);
  Out["engine.loader_pass_us"] = P50(kLoader);
  Out["spill.load_us"] = P50(kSpillLoad);
  Out["spill.store_us"] = P50(kSpillStore);
  Out["engine.reader_pass_us"] = P50(kReader);
  Out["protocol.reply_encode_us"] = P50(kEncode);
  Out["protocol.reply_decode_us"] = P50(kDecode);
  Out["loadgen.verify_us"] = P50(kVerify);
  Out["service.render_us"] = P50(kRender);
  Out["engine.plain_pass_us"] = P50(kPlain);
  Out["engine.reader_speedup"] =
      Out["engine.reader_pass_us"] > 0
          ? Out["engine.plain_pass_us"] / Out["engine.reader_pass_us"]
          : 0.0;
  double N = static_cast<double>(Replayed);
  Out["engine.batch_active_fraction"] = ActiveFractionSum / N;
  Out["engine.bailed_tile_ratio"] =
      BatchTiles + BailedTiles
          ? static_cast<double>(BailedTiles) /
                static_cast<double>(BatchTiles + BailedTiles)
          : 0.0;
  Out["specialize.cache_bytes_per_pixel"] = CacheBytes / N;
  Out["specialize.reader_instrs"] = ReaderInstrs / N;

  // SpecializationService::render's self time: what it took beyond the
  // calls it composes (unit resolution and the reader pass), i.e. queue
  // wait and the hand-off between threads. A request's attributed time
  // is its replayed calls plus that self time.
  std::vector<std::map<uint64_t, double>> Composed;
  for (const char *Name :
       {kParse, kCompile, kLoader, kSpillLoad, kSpillStore, kReader})
    Composed.push_back(Tr.microsByRequest(Name));
  std::map<uint64_t, double> Calls = Tr.microsByRequest(kRequest);
  std::vector<double> RenderSelf;
  for (auto [Id, Micros] : Tr.microsByRequest(kRender)) {
    for (const auto &Part : Composed)
      if (auto F = Part.find(Id); F != Part.end())
        Micros -= F->second;
    RenderSelf.push_back(Micros);
    Attributed[Id] = Calls[Id] + Micros;
  }
  Out["service.render_self_us"] = percentile(RenderSelf, 50.0);
  Out["trace.replayed_requests"] = N;
  return true;
}

} // namespace

bool perfbench::replayTraced(const WorkloadDef &W, const Traffic &T,
                             const std::string &WorkDir, double BudgetSeconds,
                             std::map<std::string, double> &Out,
                             std::map<uint64_t, double> &Attributed,
                             std::string &Error) {
  Replayer R(W, T);
  return R.run(WorkDir, BudgetSeconds, Out, Attributed, Error);
}
