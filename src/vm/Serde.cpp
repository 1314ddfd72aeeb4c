//===- vm/Serde.cpp - Value and Chunk binary serde ---------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Serde.h"

#include "lang/Builtins.h"

#include <algorithm>
#include <vector>

using namespace dspec;

namespace {

bool validTypeKind(uint8_t Raw) {
  return Raw <= static_cast<uint8_t>(TypeKind::TK_Vec4);
}

bool validOpcode(uint8_t Raw) {
  return Raw <= static_cast<uint8_t>(OpCode::OC_ReturnVoid);
}

/// Guards a count field read from untrusted data: each element needs at
/// least \p MinElementBytes more input, so a count larger than that is a
/// lie about data we do not have — reject it before allocating or
/// looping on it.
bool plausibleCount(ByteReader &Reader, uint32_t Count,
                    size_t MinElementBytes, const char *What) {
  if (static_cast<uint64_t>(Count) * MinElementBytes > Reader.remaining()) {
    Reader.fail(std::string(What) + " count " + std::to_string(Count) +
                " exceeds the remaining data");
    return false;
  }
  return true;
}

} // namespace

void dspec::serializeValue(ByteWriter &Writer, const Value &V) {
  Writer.writeU8(static_cast<uint8_t>(V.Kind));
  for (float Component : V.F)
    Writer.writeF32(Component);
  Writer.writeI32(V.I);
}

Value dspec::deserializeValue(ByteReader &Reader) {
  Value Out;
  uint8_t RawKind = Reader.readU8();
  if (!validTypeKind(RawKind)) {
    Reader.fail("invalid value type tag " + std::to_string(RawKind));
    return Value::makeVoid();
  }
  Out.Kind = static_cast<TypeKind>(RawKind);
  for (float &Component : Out.F)
    Component = Reader.readF32();
  Out.I = Reader.readI32();
  return Reader.ok() ? Out : Value::makeVoid();
}

void dspec::serializeChunk(ByteWriter &Writer, const Chunk &C) {
  Writer.writeString(C.Name);
  Writer.writeU32(static_cast<uint32_t>(C.Code.size()));
  for (const Instr &In : C.Code) {
    Writer.writeU8(static_cast<uint8_t>(In.Op));
    Writer.writeI32(In.A);
    Writer.writeI32(In.B);
    Writer.writeI32(In.C);
  }
  Writer.writeU32(static_cast<uint32_t>(C.Constants.size()));
  for (const Value &V : C.Constants)
    serializeValue(Writer, V);
  Writer.writeU32(static_cast<uint32_t>(C.LocalTypes.size()));
  for (TypeKind Kind : C.LocalTypes)
    Writer.writeU8(static_cast<uint8_t>(Kind));
  Writer.writeU32(C.NumParams);
  Writer.writeU8(static_cast<uint8_t>(C.ReturnType.kind()));
  Writer.writeU32(C.CacheSlotCount);
  Writer.writeU32(C.CacheBytes);
}

bool dspec::deserializeChunk(ByteReader &Reader, Chunk &Out,
                             std::string &Error) {
  Out = Chunk();
  Out.Name = Reader.readString();

  uint32_t CodeCount = Reader.readU32();
  if (Reader.ok() && plausibleCount(Reader, CodeCount, 13, "instruction")) {
    Out.Code.reserve(CodeCount);
    for (uint32_t I = 0; I < CodeCount && Reader.ok(); ++I) {
      Instr In;
      uint8_t RawOp = Reader.readU8();
      if (!validOpcode(RawOp)) {
        Reader.fail("invalid opcode " + std::to_string(RawOp) +
                    " in instruction " + std::to_string(I));
        break;
      }
      In.Op = static_cast<OpCode>(RawOp);
      In.A = Reader.readI32();
      In.B = Reader.readI32();
      In.C = Reader.readI32();
      Out.Code.push_back(In);
    }
  }

  uint32_t ConstCount = Reader.readU32();
  if (Reader.ok() && plausibleCount(Reader, ConstCount, 21, "constant")) {
    Out.Constants.reserve(ConstCount);
    for (uint32_t I = 0; I < ConstCount && Reader.ok(); ++I)
      Out.Constants.push_back(deserializeValue(Reader));
  }

  uint32_t LocalCount = Reader.readU32();
  if (Reader.ok() && plausibleCount(Reader, LocalCount, 1, "local")) {
    Out.LocalTypes.reserve(LocalCount);
    for (uint32_t I = 0; I < LocalCount && Reader.ok(); ++I) {
      uint8_t RawKind = Reader.readU8();
      if (!validTypeKind(RawKind)) {
        Reader.fail("invalid local type tag " + std::to_string(RawKind));
        break;
      }
      Out.LocalTypes.push_back(static_cast<TypeKind>(RawKind));
    }
  }

  Out.NumParams = Reader.readU32();
  uint8_t RawReturn = Reader.readU8();
  if (Reader.ok() && !validTypeKind(RawReturn))
    Reader.fail("invalid return type tag " + std::to_string(RawReturn));
  else
    Out.ReturnType = Type(static_cast<TypeKind>(RawReturn));
  Out.CacheSlotCount = Reader.readU32();
  Out.CacheBytes = Reader.readU32();

  if (!Reader.ok()) {
    Error = "malformed chunk: " + Reader.error();
    return false;
  }
  return verifyChunk(Out, Error);
}

bool dspec::verifyChunk(const Chunk &C, std::string &Error,
                        unsigned *MaxStack) {
  const size_t N = C.Code.size();
  const size_t NumBuiltins = allBuiltins().size();

  auto Fail = [&](size_t IP, const std::string &Message) {
    Error = "chunk '" + C.Name + "' fails verification at instruction " +
            std::to_string(IP) + ": " + Message;
    return false;
  };

  if (C.NumParams > C.numLocals())
    return Fail(0, "parameter count exceeds the local count");

  // Abstract stack depth per instruction: -1 = not yet reached. Every
  // path reaching an instruction must agree on the depth, which our
  // compiler guarantees and which makes underflow statically decidable.
  std::vector<int> Depth(N, -1);
  std::vector<size_t> Worklist;
  if (N > 0) {
    Depth[0] = 0;
    Worklist.push_back(0);
  }
  int Peak = 0;

  auto Flow = [&](size_t Target, int D, size_t From) {
    if (Target > N)
      return Fail(From, "jump target " + std::to_string(Target) +
                            " is out of range");
    if (Target == N)
      return true; // falling off the end halts with a void result
    if (Depth[Target] == -1) {
      Depth[Target] = D;
      Worklist.push_back(Target);
    } else if (Depth[Target] != D) {
      return Fail(From, "inconsistent stack depth at join point " +
                            std::to_string(Target));
    }
    return true;
  };

  while (!Worklist.empty()) {
    size_t IP = Worklist.back();
    Worklist.pop_back();
    const Instr &In = C.Code[IP];
    int D = Depth[IP];
    int Pops = 0, Pushes = 0;
    bool Terminal = false;
    size_t JumpTarget = SIZE_MAX;

    switch (In.Op) {
    case OpCode::OC_Const:
      if (In.A < 0 || static_cast<size_t>(In.A) >= C.Constants.size())
        return Fail(IP, "constant index out of range");
      Pushes = 1;
      break;
    case OpCode::OC_LoadLocal:
      if (In.A < 0 || static_cast<unsigned>(In.A) >= C.numLocals())
        return Fail(IP, "local index out of range");
      Pushes = 1;
      break;
    case OpCode::OC_StoreLocal:
      if (In.A < 0 || static_cast<unsigned>(In.A) >= C.numLocals())
        return Fail(IP, "local index out of range");
      Pops = 1;
      break;
    case OpCode::OC_Convert:
      if (In.A < 0 || !validTypeKind(static_cast<uint8_t>(In.A)))
        return Fail(IP, "invalid conversion target type");
      Pops = 1;
      Pushes = 1;
      break;
    case OpCode::OC_Pop:
      Pops = 1;
      break;
    case OpCode::OC_Neg:
    case OpCode::OC_Not:
      Pops = 1;
      Pushes = 1;
      break;
    case OpCode::OC_Add:
    case OpCode::OC_Sub:
    case OpCode::OC_Mul:
    case OpCode::OC_Div:
    case OpCode::OC_Mod:
    case OpCode::OC_Lt:
    case OpCode::OC_Le:
    case OpCode::OC_Gt:
    case OpCode::OC_Ge:
    case OpCode::OC_Eq:
    case OpCode::OC_Ne:
    case OpCode::OC_And:
    case OpCode::OC_Or:
      Pops = 2;
      Pushes = 1;
      break;
    case OpCode::OC_Select:
      Pops = 3;
      Pushes = 1;
      break;
    case OpCode::OC_Jump:
      if (In.A < 0)
        return Fail(IP, "negative jump target");
      JumpTarget = static_cast<size_t>(In.A);
      Terminal = true; // no fall-through
      break;
    case OpCode::OC_JumpIfFalse:
      if (In.A < 0)
        return Fail(IP, "negative jump target");
      Pops = 1;
      JumpTarget = static_cast<size_t>(In.A);
      break;
    case OpCode::OC_CallBuiltin: {
      if (In.A < 0 || static_cast<size_t>(In.A) >= NumBuiltins)
        return Fail(IP, "unknown builtin id");
      const BuiltinInfo &Info =
          getBuiltinInfo(static_cast<BuiltinId>(In.A));
      if (In.B < 0 ||
          static_cast<size_t>(In.B) != Info.ParamTypes.size())
        return Fail(IP, std::string("builtin '") + Info.Name +
                            "' argument count mismatch");
      Pops = In.B;
      Pushes = 1;
      break;
    }
    case OpCode::OC_Member:
      if (In.A < 0 || In.A > 3)
        return Fail(IP, "vector component index out of range");
      Pops = 1;
      Pushes = 1;
      break;
    case OpCode::OC_CacheLoad:
    case OpCode::OC_CacheStore: {
      if (In.B < 0 || In.C < 0 || !validTypeKind(static_cast<uint8_t>(In.C)))
        return Fail(IP, "invalid cache slot type");
      Type SlotType(static_cast<TypeKind>(In.C));
      if (SlotType.isVoid())
        return Fail(IP, "void cache slot");
      if (static_cast<uint64_t>(In.B) + SlotType.sizeInBytes() >
          C.CacheBytes)
        return Fail(IP, "cache access past the chunk's declared layout");
      if (In.A < 0 || static_cast<unsigned>(In.A) >= C.CacheSlotCount)
        return Fail(IP, "cache slot index out of range");
      if (In.Op == OpCode::OC_CacheLoad) {
        Pushes = 1;
      } else {
        // The stored value stays on the stack: net zero, but the store
        // reads the top, so one element must exist.
        if (D < 1)
          return Fail(IP, "cache store on an empty stack");
      }
      break;
    }
    case OpCode::OC_Return:
      Pops = 1;
      Terminal = true;
      break;
    case OpCode::OC_ReturnVoid:
      Terminal = true;
      break;
    }

    if (D < Pops)
      return Fail(IP, "stack underflow (depth " + std::to_string(D) +
                          ", pops " + std::to_string(Pops) + ")");
    int After = D - Pops + Pushes;
    Peak = std::max({Peak, D + 1, After});

    if (JumpTarget != SIZE_MAX && !Flow(JumpTarget, After, IP))
      return false;
    if (!Terminal && !Flow(IP + 1, After, IP))
      return false;
  }

  if (MaxStack)
    *MaxStack = static_cast<unsigned>(Peak);
  return true;
}
