//===- service/Service.cpp - The specialization render service --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "driver/Pipeline.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"

#include <algorithm>

using namespace dspec;

SpecializationService::SpecializationService(const ServiceConfig &InConfig)
    : Config(InConfig),
      Cache(Config.CacheUnits, Config.CacheShards == 0 ? 1 : Config.CacheShards) {
  if (Config.Dispatchers == 0)
    Config.Dispatchers = 1;
  if (Config.MaxBatch == 0)
    Config.MaxBatch = 1;
  if (Config.QueueCapacity == 0)
    Config.QueueCapacity = 1;
  if (!Config.SpillDir.empty()) {
    auto Store = std::make_unique<SpillStore>();
    std::string SpillError;
    if (Store->open(Config.SpillDir, Config.SpillMaxBytes, &SpillError)) {
      Spill = std::move(Store);
      // Evicted-but-warm units go to disk instead of being forgotten;
      // the sink runs outside the cache's shard lock.
      Cache.setEvictionSink([this](const UnitKey &Key, const UnitPtr &Unit) {
        Spill->store(Key, Unit);
      });
    }
    // An unopenable spill dir degrades to no spilling, not to a dead
    // service — same posture as any other best-effort cache tier.
  }
  Dispatchers.reserve(Config.Dispatchers);
  for (unsigned I = 0; I < Config.Dispatchers; ++I) {
    Dispatchers.push_back(std::make_unique<Dispatcher>(Config));
    Dispatchers.back()->Engine.setExecTier(Config.Tier);
  }
  for (std::unique_ptr<Dispatcher> &D : Dispatchers)
    D->Thread = std::thread([this, &Self = *D] { dispatcherLoop(Self); });
}

SpecializationService::~SpecializationService() { drain(); }

void SpecializationService::drain() {
  std::lock_guard<std::mutex> DrainLock(DrainMutex);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Draining = true;
    for (std::unique_ptr<Dispatcher> &D : Dispatchers)
      D->Signalled = true;
  }
  for (std::unique_ptr<Dispatcher> &D : Dispatchers)
    D->Wake.notify_one();
  for (std::unique_ptr<Dispatcher> &D : Dispatchers)
    if (D->Thread.joinable())
      D->Thread.join();
}

bool SpecializationService::canonicalize(RenderRequest &Request, UnitKey &Key,
                                         std::string &Error) const {
  const ShaderInfo *Info = findShader(Request.Shader);
  if (!Info) {
    Error = "no gallery shader named '" + Request.Shader + "'";
    return false;
  }
  if (Request.Width == 0 || Request.Height == 0) {
    Error = "image dimensions must be positive";
    return false;
  }
  if (static_cast<uint64_t>(Request.Width) * Request.Height >
      Config.MaxPixels) {
    Error = "image of " + std::to_string(Request.Width) + "x" +
            std::to_string(Request.Height) + " exceeds the " +
            std::to_string(Config.MaxPixels) + "-pixel limit";
    return false;
  }

  if (Request.Controls.empty())
    Request.Controls = ShaderLab::defaultControls(*Info);
  if (Request.Controls.size() != Info->Controls.size()) {
    Error = "'" + Request.Shader + "' takes " +
            std::to_string(Info->Controls.size()) + " control(s), got " +
            std::to_string(Request.Controls.size());
    return false;
  }

  if (Request.Varying.empty())
    Request.Varying.push_back(Info->Controls.front().Name);
  // Canonical order so {a,b} and {b,a} share one cache entry.
  std::sort(Request.Varying.begin(), Request.Varying.end());
  Request.Varying.erase(
      std::unique(Request.Varying.begin(), Request.Varying.end()),
      Request.Varying.end());
  for (const std::string &Name : Request.Varying)
    if (std::none_of(Info->Controls.begin(), Info->Controls.end(),
                     [&](const ControlParam &C) { return C.Name == Name; })) {
      Error = "'" + Request.Shader + "' has no control named '" + Name + "'";
      return false;
    }

  // The key covers everything invariant across a parameter drag: the
  // grid, the partition (which controls vary), and the *fixed* controls'
  // values. The varying controls' values are excluded on purpose — that
  // is the reuse the cache exists to capture.
  Key.Shader = Request.Shader;
  Key.InvariantHash = invariantHash(*Info, Request.Width, Request.Height,
                                    Request.Varying, Request.Controls);
  Key.OptionsFingerprint = optionsFingerprint(effectiveOptions(Request));
  return true;
}

void SpecializationService::submitAsync(RenderRequest Request,
                                        RenderCallback Done) {
  auto P = std::make_unique<Pending>();
  P->Enqueued = Clock::now();
  P->Request = std::move(Request);
  P->Done = std::move(Done);

  std::string Error;
  if (!canonicalize(P->Request, P->Key, Error)) {
    Metrics.recordBadRequest();
    reject(*P, RenderStatus::BadRequest, std::move(Error));
    return;
  }
  if (P->Request.DeadlineMillis > 0) {
    P->HasDeadline = true;
    P->Deadline =
        P->Enqueued + std::chrono::milliseconds(P->Request.DeadlineMillis);
  }

  Dispatcher *Woken = nullptr;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining) {
      Metrics.recordRejectedDraining();
      reject(*P, RenderStatus::Draining,
             "service is draining for shutdown");
      return;
    }
    if (Queue.size() >= Config.QueueCapacity) {
      // Load shedding: reject-with-reason instead of unbounded growth.
      Metrics.recordShedQueueFull();
      reject(*P, RenderStatus::ShedQueueFull,
             "queue full (" + std::to_string(Config.QueueCapacity) +
                 " requests)");
      return;
    }
    Queue.push_back(std::move(P));
    if (!Idle.empty()) {
      Woken = Idle.back();
      Idle.pop_back();
      Woken->Signalled = true;
    }
  }
  if (Woken)
    Woken->Wake.notify_one();
}

std::future<RenderReply> SpecializationService::submit(RenderRequest Request) {
  auto Promise = std::make_shared<std::promise<RenderReply>>();
  std::future<RenderReply> Result = Promise->get_future();
  submitAsync(std::move(Request), [Promise](RenderReply Reply) {
    Promise->set_value(std::move(Reply));
  });
  return Result;
}

RenderReply SpecializationService::render(RenderRequest Request) {
  return submit(std::move(Request)).get();
}

void SpecializationService::reject(Pending &P, RenderStatus Status,
                                   std::string Reason) {
  RenderReply Reply;
  Reply.Status = Status;
  Reply.Error = std::move(Reason);
  Reply.ServiceMicros =
      static_cast<uint64_t>(secondsSince(P.Enqueued) * 1e6);
  P.Done(std::move(Reply));
}

SpecializerOptions
SpecializationService::effectiveOptions(const RenderRequest &Request) const {
  SpecializerOptions Options = Request.toOptions();
  if (Config.LlcBytes != 0) {
    Options.LlcByteBound = Config.LlcBytes;
    Options.ArenaPixels = Request.Width * Request.Height;
  }
  return Options;
}

UnitPtr SpecializationService::buildUnit(const RenderRequest &Request,
                                         RenderEngine &Engine,
                                         Framebuffer &LoaderFrame,
                                         std::string &Error) const {
  Clock::time_point Start = Clock::now();
  const ShaderInfo *Info = findShader(Request.Shader);
  if (!Info) {
    Error = "shader vanished from the gallery";
    return nullptr;
  }
  auto Unit = parseUnit(Info->Source);
  if (!Unit->ok()) {
    Error = Unit->Diags.str();
    return nullptr;
  }
  auto Spec = specializeAndCompile(*Unit, Request.Shader, Request.Varying,
                                   effectiveOptions(Request));
  if (!Spec) {
    Error = Unit->Diags.str();
    return nullptr;
  }
  auto Built =
      std::make_shared<SpecializationUnit>(Request.Width, Request.Height);
  Built->Shader = Request.Shader;
  Built->Options = effectiveOptions(Request);
  Built->Varying = Request.Varying;
  Built->LoadControls = Request.Controls;
  Built->Layout = Spec->Spec.Layout;
  Built->Loader = std::move(Spec->LoaderChunk);
  Built->Reader = std::move(Spec->ReaderChunk);
  // The arena's cached slots hold invariant values only, so the varying
  // controls' build-time values are irrelevant to every later hit. The
  // loader is the original fragment plus cache stores, so the frame it
  // returns at the request's own controls is the request's answer.
  if (!Engine.loaderPass(Built->Loader, Built->Layout, Built->Grid,
                         Built->LoadControls, Built->Arena, &LoaderFrame)) {
    Error = "loader pass trapped: " + Engine.lastTrap();
    return nullptr;
  }
  Built->BuildSeconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  return Built;
}

UnitPtr SpecializationService::loadOrBuildUnit(
    const Pending &P, RenderEngine &Engine, bool &FromDisk,
    std::optional<Framebuffer> &LoaderFrame, std::string &Error) const {
  FromDisk = false;
  if (Spill) {
    if (auto Unit = Spill->load(P.Key, nullptr)) {
      FromDisk = true;
      return Unit;
    }
  }
  // Allocated only here, so hits and disk restores never pay for it.
  LoaderFrame.emplace(P.Request.Width, P.Request.Height);
  return buildUnit(P.Request, Engine, *LoaderFrame, Error);
}

void SpecializationService::finish(Pending &P, const UnitPtr &Unit,
                                   bool CacheHit, RenderEngine &Engine,
                                   const Framebuffer *LoaderFrame) {
  RenderReply Reply;
  if (LoaderFrame) {
    Reply = RenderReply::fromFramebuffer(*LoaderFrame);
    Metrics.recordLoaderFrameReply();
  } else {
    Framebuffer Fb(P.Request.Width, P.Request.Height);
    if (!Engine.readerPass(Unit->Reader, Unit->Grid, P.Request.Controls,
                           Unit->Arena, &Fb)) {
      Metrics.recordRenderTrap(secondsSince(P.Enqueued));
      reject(P, RenderStatus::RenderTrap,
             "reader pass trapped: " + Engine.lastTrap());
      return;
    }
    Reply = RenderReply::fromFramebuffer(Fb);
  }
  Reply.CacheHit = CacheHit;
  double Latency = secondsSince(P.Enqueued);
  Reply.ServiceMicros = static_cast<uint64_t>(Latency * 1e6);
  Metrics.recordOk(Latency, CacheHit);
  P.Done(std::move(Reply));
}

void SpecializationService::dispatcherLoop(Dispatcher &Self) {
  while (true) {
    std::vector<std::unique_ptr<Pending>> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      // Park only on an empty queue, so a dispatcher that just finished
      // a batch takes queued work without sleeping. A wake-up whose work
      // another dispatcher already took parks again.
      while (Queue.empty() && !Draining) {
        Idle.push_back(&Self);
        Self.Wake.wait(Lock, [&] { return Self.Signalled; });
        Self.Signalled = false;
      }
      if (Draining) // woken by drain, not popped by a submission
        Idle.erase(std::remove(Idle.begin(), Idle.end(), &Self), Idle.end());
      if (Queue.empty())
        return; // draining and nothing left
      Batch.push_back(std::move(Queue.front()));
      Queue.pop_front();
      // Batch queued same-key requests behind one unit resolution; they
      // will all be reader frames against the same arena.
      for (auto It = Queue.begin();
           It != Queue.end() && Batch.size() < Config.MaxBatch;) {
        if ((*It)->Key == Batch.front()->Key) {
          Batch.push_back(std::move(*It));
          It = Queue.erase(It);
        } else {
          ++It;
        }
      }
    }
    size_t Taken = Batch.size();
    serveBatch(std::move(Batch), Self.Engine);
    Self.Served += Taken;
  }
}

void SpecializationService::serveBatch(
    std::vector<std::unique_ptr<Pending>> Batch, RenderEngine &Engine) {
  // Shed batch members whose queue deadline already passed — spending
  // render time on an answer nobody is waiting for starves the rest of
  // the queue.
  Clock::time_point Now = Clock::now();
  std::vector<std::unique_ptr<Pending>> Live;
  for (std::unique_ptr<Pending> &P : Batch) {
    if (P->HasDeadline && Now > P->Deadline) {
      Metrics.recordShedDeadline();
      reject(*P, RenderStatus::ShedDeadline,
             "deadline of " + std::to_string(P->Request.DeadlineMillis) +
                 "ms exceeded while queued");
    } else {
      Live.push_back(std::move(P));
    }
  }
  if (Live.empty())
    return;

  bool WasHit = false;
  bool FromDisk = false;
  // Filled only when this dispatcher built the unit: the batch leader's
  // frame, rendered by the loader pass at the leader's controls.
  std::optional<Framebuffer> LoaderFrame;
  std::string Error;
  UnitPtr Unit = Cache.getOrBuild(
      Live.front()->Key,
      [&](std::string &BuildError) {
        // Disk first: a warm spilled unit is a restore, not a rebuild.
        return loadOrBuildUnit(*Live.front(), Engine, FromDisk, LoaderFrame,
                               BuildError);
      },
      &WasHit, &Error);
  if (!Unit) {
    for (std::unique_ptr<Pending> &P : Live) {
      Metrics.recordSpecializeError(secondsSince(P->Enqueued));
      reject(*P, RenderStatus::SpecializeError, Error);
    }
    return;
  }
  for (size_t I = 0; I < Live.size(); ++I)
    // Followers batched behind the leader never pay a build themselves;
    // a disk restore counts as a hit too — no specializer ran. Only
    // the leader's controls match the loader frame; followers, hits,
    // coalesced waits and restores run the reader.
    finish(*Live[I], Unit, WasHit || FromDisk || I > 0, Engine,
           I == 0 && LoaderFrame ? &*LoaderFrame : nullptr);
}

MetricsSnapshot SpecializationService::statsz() const {
  MetricsSnapshot Out = Metrics.snapshot();
  Out.Cache = Cache.stats();
  Out.CacheCapacity = Cache.capacity();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Out.QueueDepth = Queue.size();
    Out.IdleDispatchers = Idle.size();
  }
  for (const std::unique_ptr<Dispatcher> &D : Dispatchers)
    Out.DispatcherServed.push_back(D->Served);
  if (Spill) {
    SpillStore::Stats S = Spill->stats();
    Out.SpillEnabled = true;
    Out.SpillDiskHits = S.DiskHits;
    Out.SpillWrites = S.Writes;
    Out.SpillErrors = S.Errors;
    Out.SpillEvictedFiles = S.EvictedFiles;
    Out.SpillFiles = S.Files;
    Out.SpillBytes = S.Bytes;
  }
  Out.ExecTier = execTierName(Config.Tier);
  Out.ArenaLlcBytes = Config.LlcBytes;
  Cache.forEachUnit([&Out](const UnitPtr &Unit) {
    ++Out.ArenaUnits;
    // Pixel strides sit back to back, so a reader frame streams the
    // whole arena.
    uint64_t Bytes = Unit->Arena.totalBytes();
    Out.ArenaPhysicalBytes += Bytes;
    Out.ArenaHotFrameBytes += Bytes;
    if (Bytes > Out.ArenaMaxHotFrameBytes)
      Out.ArenaMaxHotFrameBytes = Bytes;
  });
  Out.ArenaFitsLlc =
      Config.LlcBytes == 0 || Out.ArenaMaxHotFrameBytes <= Config.LlcBytes;
  if (NetStatsProvider)
    Out.NetJson = NetStatsProvider();
  return Out;
}
