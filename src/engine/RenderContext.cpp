//===- engine/RenderContext.cpp - Per-pixel fixed inputs ------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/RenderContext.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

using namespace dspec;

namespace {

using PixelArray = std::vector<Value>;

PixelArray buildPixels(unsigned W, unsigned H) {
  PixelArray Inputs;
  Inputs.reserve(static_cast<size_t>(W) * H * RenderGrid::InputsPerPixel);
  const float EyeX = 0.0f, EyeY = 0.0f, EyeZ = 4.0f;
  for (unsigned PY = 0; PY < H; ++PY) {
    for (unsigned PX = 0; PX < W; ++PX) {
      float U = W > 1 ? static_cast<float>(PX) / (W - 1) : 0.0f;
      float V = H > 1 ? static_cast<float>(PY) / (H - 1) : 0.0f;
      float X = U * 2.0f - 1.0f;
      float Y = V * 2.0f - 1.0f;
      // Height field z = 0.25 sin(3x) cos(2y) with analytic gradient.
      float Z = 0.25f * std::sin(3.0f * X) * std::cos(2.0f * Y);
      float DZDX = 0.75f * std::cos(3.0f * X) * std::cos(2.0f * Y);
      float DZDY = -0.5f * std::sin(3.0f * X) * std::sin(2.0f * Y);

      float NX = -DZDX, NY = -DZDY, NZ = 1.0f;
      float NLen = std::sqrt(NX * NX + NY * NY + NZ * NZ);
      NX /= NLen;
      NY /= NLen;
      NZ /= NLen;

      float IX = EyeX - X, IY = EyeY - Y, IZ = EyeZ - Z;
      float ILen = std::sqrt(IX * IX + IY * IY + IZ * IZ);
      IX /= ILen;
      IY /= ILen;
      IZ /= ILen;

      Inputs.push_back(Value::makeVec2(U, V));
      Inputs.push_back(Value::makeVec3(X, Y, Z));
      Inputs.push_back(Value::makeVec3(NX, NY, NZ));
      Inputs.push_back(Value::makeVec3(IX, IY, IZ));
    }
  }
  return Inputs;
}

/// The live pixel arrays, one per size. Entries are weak, so an array
/// dies with the last grid that holds it and a client cycling through
/// sizes pins no memory beyond the grids it keeps.
std::shared_ptr<const PixelArray> sharedPixels(unsigned W, unsigned H) {
  struct Registry {
    std::mutex M;
    std::map<std::pair<unsigned, unsigned>, std::weak_ptr<const PixelArray>>
        Live;
  };
  // Never destroyed: a service draining during static destruction may
  // still make and drop grids.
  static Registry &R = *new Registry;
  std::lock_guard<std::mutex> Lock(R.M);
  std::weak_ptr<const PixelArray> &Slot = R.Live[{W, H}];
  if (std::shared_ptr<const PixelArray> Pixels = Slot.lock())
    return Pixels;
  // Built under the lock, so each size is computed once however many
  // threads ask for it together.
  auto Pixels = std::make_shared<const PixelArray>(buildPixels(W, H));
  Slot = Pixels;
  std::erase_if(R.Live,
                [](const auto &Entry) { return Entry.second.expired(); });
  return Pixels;
}

} // namespace

RenderGrid::RenderGrid(unsigned Width, unsigned Height)
    : W(Width), H(Height), Inputs(sharedPixels(Width, Height)) {}

std::string Framebuffer::asciiArt() const {
  static const char Ramp[] = " .:-=+*#%@";
  std::string Out;
  Out.reserve((W + 1) * H);
  for (unsigned Y = 0; Y < H; ++Y) {
    for (unsigned X = 0; X < W; ++X) {
      const Value &C = at(X, Y);
      float Lum = 0.299f * C.F[0] + 0.587f * C.F[1] + 0.114f * C.F[2];
      Lum = Lum < 0.0f ? 0.0f : (Lum > 1.0f ? 1.0f : Lum);
      Out += Ramp[static_cast<int>(Lum * 9.0f + 0.5f)];
    }
    Out += '\n';
  }
  return Out;
}

bool Framebuffer::writePPM(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  std::fprintf(File, "P6\n%u %u\n255\n", W, H);
  for (const Value &C : Pixels) {
    for (int Channel = 0; Channel < 3; ++Channel) {
      float Component = C.F[Channel];
      Component = Component < 0.0f ? 0.0f : (Component > 1.0f ? 1.0f : Component);
      unsigned char Byte = static_cast<unsigned char>(Component * 255.0f + 0.5f);
      std::fputc(Byte, File);
    }
  }
  std::fclose(File);
  return true;
}
