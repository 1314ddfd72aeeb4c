//===- vm/FastInterp.cpp - Pixel-batched interpreter ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fast execution tier over the decoded ExecChunk form:
//
//   runBatch     one instruction fetch drives a whole tile: every opcode
//                loops over the lanes against slot-major (SoA) stack and
//                locals rows and strided packed caches, so dispatch cost
//                is amortized 1/Lanes and the inner loops are plain
//                arrays the compiler can vectorize. Only for BatchSafe
//                (effect-free) chunks. A branch whose lanes all agree
//                jumps (or falls through) in lockstep; one whose lanes
//                disagree bails out of the tile (ExecResult::Diverged)
//                for a per-pixel re-run on the switch interpreter
//                (VM::run).
//
// It calls the shared semantics in vm/InterpOps.h — the same functions
// the classic switch interpreter uses — which is what makes framebuffers
// bit-identical across tiers. Trap messages replicate VM.cpp verbatim;
// keep them in sync.
//
//===----------------------------------------------------------------------===//

#include "vm/InterpOps.h"
#include "vm/VM.h"

#include <algorithm>
#include <cassert>

using namespace dspec;

//===----------------------------------------------------------------------===//
// Pixel-batched execution
//===----------------------------------------------------------------------===//

namespace {

inline bool isVecKind(TypeKind K) {
  return K == TypeKind::TK_Vec2 || K == TypeKind::TK_Vec3 ||
         K == TypeKind::TK_Vec4;
}

inline unsigned vecWidth(TypeKind K) {
  return K == TypeKind::TK_Vec2 ? 2 : K == TypeKind::TK_Vec3 ? 3 : 4;
}

#ifndef NDEBUG
/// The fast paths dispatch on lane 0's kinds once per instruction. That
/// is sound because dsc is statically typed: the kind at a given stack
/// depth at a given instruction is a function of the instruction index
/// alone (params are promoted to their declared types, constants and
/// cache slots are typed, and every operator's result kind depends only
/// on its operand kinds), so it cannot differ between lanes.
inline bool uniformKind(const Value *RowData, unsigned Lanes) {
  for (unsigned L = 1; L < Lanes; ++L)
    if (RowData[L].Kind != RowData[0].Kind)
      return false;
  return true;
}
#endif

/// Kind-specialized row-vs-row arithmetic: dispatches on the operand
/// kinds once, then runs a branch-free lane loop. In-place component
/// updates preserve the zeroed padding `interp::arith` produces (every
/// value reaching a row was built by a factory/arith/cache load, all of
/// which zero F[width..4) and I), so results stay bit-identical to the
/// switch interpreter. Returns false for kind mixes left to the generic loop
/// (ints, bools, voids).
template <typename FOp>
inline bool arithRows(Value *Lv, const Value *Rv, unsigned Lanes, FOp F) {
  assert(uniformKind(Lv, Lanes) && uniformKind(Rv, Lanes) &&
         "lane kinds diverged under a statically typed chunk");
  const TypeKind LK = Lv[0].Kind, RK = Rv[0].Kind;
  if (LK == TypeKind::TK_Float && RK == TypeKind::TK_Float) {
    for (unsigned L = 0; L < Lanes; ++L)
      Lv[L].F[0] = F(Lv[L].F[0], Rv[L].F[0]);
    return true;
  }
  if (LK == TypeKind::TK_Vec3 && RK == TypeKind::TK_Vec3) {
    for (unsigned L = 0; L < Lanes; ++L)
      for (unsigned K = 0; K < 3; ++K)
        Lv[L].F[K] = F(Lv[L].F[K], Rv[L].F[K]);
    return true;
  }
  if (LK == TypeKind::TK_Vec3 && RK == TypeKind::TK_Float) {
    for (unsigned L = 0; L < Lanes; ++L) {
      const float S = Rv[L].F[0];
      for (unsigned K = 0; K < 3; ++K)
        Lv[L].F[K] = F(Lv[L].F[K], S);
    }
    return true;
  }
  if (LK == TypeKind::TK_Float && RK == TypeKind::TK_Vec3) {
    for (unsigned L = 0; L < Lanes; ++L) {
      const float S = Lv[L].F[0];
      Lv[L].Kind = TypeKind::TK_Vec3;
      for (unsigned K = 0; K < 3; ++K)
        Lv[L].F[K] = F(S, Rv[L].F[K]);
    }
    return true;
  }
  // vec2/vec4 mixes: same shapes with a runtime width.
  if (isVecKind(LK) && RK == LK) {
    const unsigned W = vecWidth(LK);
    for (unsigned L = 0; L < Lanes; ++L)
      for (unsigned K = 0; K < W; ++K)
        Lv[L].F[K] = F(Lv[L].F[K], Rv[L].F[K]);
    return true;
  }
  if (isVecKind(LK) && RK == TypeKind::TK_Float) {
    const unsigned W = vecWidth(LK);
    for (unsigned L = 0; L < Lanes; ++L) {
      const float S = Rv[L].F[0];
      for (unsigned K = 0; K < W; ++K)
        Lv[L].F[K] = F(Lv[L].F[K], S);
    }
    return true;
  }
  if (LK == TypeKind::TK_Float && isVecKind(RK)) {
    const unsigned W = vecWidth(RK);
    for (unsigned L = 0; L < Lanes; ++L) {
      const float S = Lv[L].F[0];
      Lv[L].Kind = RK;
      for (unsigned K = 0; K < W; ++K)
        Lv[L].F[K] = F(S, Rv[L].F[K]);
    }
    return true;
  }
  return false;
}

/// arithRows against one broadcast constant (F_ConstAdd / F_ConstMul).
template <typename FOp>
inline bool arithRowConst(Value *Lv, const Value &K, unsigned Lanes, FOp F) {
  assert(uniformKind(Lv, Lanes) &&
         "lane kinds diverged under a statically typed chunk");
  const TypeKind LK = Lv[0].Kind;
  if (LK == TypeKind::TK_Float && K.Kind == TypeKind::TK_Float) {
    const float S = K.F[0];
    for (unsigned L = 0; L < Lanes; ++L)
      Lv[L].F[0] = F(Lv[L].F[0], S);
    return true;
  }
  if (isVecKind(LK) && K.Kind == TypeKind::TK_Float) {
    const unsigned W = vecWidth(LK);
    const float S = K.F[0];
    for (unsigned L = 0; L < Lanes; ++L)
      for (unsigned C = 0; C < W; ++C)
        Lv[L].F[C] = F(Lv[L].F[C], S);
    return true;
  }
  if (isVecKind(LK) && K.Kind == LK) {
    const unsigned W = vecWidth(LK);
    for (unsigned L = 0; L < Lanes; ++L)
      for (unsigned C = 0; C < W; ++C)
        Lv[L].F[C] = F(Lv[L].F[C], K.F[C]);
    return true;
  }
  if (LK == TypeKind::TK_Float && isVecKind(K.Kind)) {
    const unsigned W = vecWidth(K.Kind);
    for (unsigned L = 0; L < Lanes; ++L) {
      const float S = Lv[L].F[0];
      Lv[L].Kind = K.Kind;
      for (unsigned C = 0; C < W; ++C)
        Lv[L].F[C] = F(S, K.F[C]);
    }
    return true;
  }
  return false;
}

/// Strided cache-slot load into a row with the kind switch hoisted out
/// of the lane loop. Replicates CacheView::load exactly (fresh Value,
/// zeroed padding, memcpy of the slot width). \p Base is lane 0's slot
/// bytes; lane L's are \p Stride bytes further on per lane.
inline void cacheLoadRow(Value *Dest, const unsigned char *Base,
                         size_t Stride, TypeKind Kind, unsigned Lanes) {
  // A one-word stride (a cache of a single float or int slot): index the
  // source as a plain array so the compiler sees a dense load stream
  // instead of a runtime stride.
  if (Stride == sizeof(float) &&
      (Kind == TypeKind::TK_Float || Kind == TypeKind::TK_Int ||
       Kind == TypeKind::TK_Bool)) {
    const bool IsFloat = Kind == TypeKind::TK_Float;
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      if (IsFloat)
        std::memcpy(&V.F[0], Base + L * sizeof(float), sizeof(float));
      else
        std::memcpy(&V.I, Base + L * sizeof(int32_t), sizeof(int32_t));
      Dest[L] = V;
    }
    return;
  }
  switch (Kind) {
  case TypeKind::TK_Bool:
  case TypeKind::TK_Int:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      std::memcpy(&V.I, Base + L * Stride, sizeof(int32_t));
      Dest[L] = V;
    }
    break;
  case TypeKind::TK_Float:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      std::memcpy(&V.F[0], Base + L * Stride, sizeof(float));
      Dest[L] = V;
    }
    break;
  case TypeKind::TK_Vec2:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      std::memcpy(V.F, Base + L * Stride, 2 * sizeof(float));
      Dest[L] = V;
    }
    break;
  case TypeKind::TK_Vec3:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      std::memcpy(V.F, Base + L * Stride, 3 * sizeof(float));
      Dest[L] = V;
    }
    break;
  case TypeKind::TK_Vec4:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      std::memcpy(V.F, Base + L * Stride, 4 * sizeof(float));
      Dest[L] = V;
    }
    break;
  case TypeKind::TK_Void:
    for (unsigned L = 0; L < Lanes; ++L) {
      Value V;
      V.Kind = Kind;
      Dest[L] = V;
    }
    break;
  }
}

} // namespace

#define TRAP(MSG)                                                              \
  do {                                                                         \
    Result.Trapped = true;                                                     \
    Result.TrapMessage = (MSG);                                                \
    Result.InstructionsExecuted = Executed;                                    \
    return Result;                                                             \
  } while (0)

// A branch's lanes disagree: not an error — results are unwritten and the
// caller re-runs the tile per-pixel.
#define DIVERGE()                                                              \
  do {                                                                         \
    Result.Diverged = true;                                                    \
    Result.InstructionsExecuted = Executed;                                    \
    return Result;                                                             \
  } while (0)

ExecResult VM::runBatch(const ExecChunk &C, const BatchRequest &Req) {
  ExecResult Result;
  uint64_t Executed = 0;

  if (!C.Valid || !C.BatchSafe)
    TRAP("batch execution on an unsupported chunk '" + C.Name + "'");
  if (Req.Lanes == 0) {
    Result.Result = Value::makeVoid();
    return Result;
  }
  if (Req.NumArgs != C.NumParams || Req.NumSharedArgs > Req.NumArgs)
    TRAP("argument count mismatch calling '" + C.Name + "'");

  const unsigned Lanes = Req.Lanes;
  const bool UseCache = Req.CacheBase != nullptr;
  const size_t CacheStride = Req.CacheStride;
  // inBounds for a given (offset, kind) is uniform across lanes, so the
  // per-access bounds decision is made once per instruction below using
  // lane 0's view geometry.
  CacheView Bounds(Req.CacheBase, Req.CacheBytes);

  // Slot-major locals: slot s's values for all lanes are contiguous at
  // row s, so per-instruction lane loops walk plain arrays. Only the rows
  // some instruction loads are filled: any other row keeps what an
  // earlier tile left in it, and nothing reads it. Every argument is
  // kind-checked all the same, as the switch tier checks it.
  const unsigned NumLocals = C.numLocals();
  const unsigned NumLaneArgs = Req.NumArgs - Req.NumSharedArgs;
  BatchLocals.resize(static_cast<size_t>(NumLocals) * Lanes);
  for (unsigned S = 0; S < NumLocals; ++S) {
    const TypeKind Kind = C.LocalTypes[S];
    const bool Loaded = C.LoadedLocals[S];
    Value *Row = BatchLocals.data() + static_cast<size_t>(S) * Lanes;
    if (S >= C.NumParams) {
      if (Loaded)
        std::fill(Row, Row + Lanes, Value::zeroOf(Type(Kind)));
    } else if (S >= NumLaneArgs) {
      const Value &Arg = Req.SharedArgs[S - NumLaneArgs];
      if (!interp::argFits(Arg, Kind))
        TRAP("argument type mismatch calling '" + C.Name + "'");
      if (Loaded)
        std::fill(Row, Row + Lanes, interp::promoteArg(Arg, Kind));
    } else {
      const Value *Args = Req.LaneArgs + S;
      for (unsigned L = 0; L < Lanes; ++L)
        if (!interp::argFits(Args[static_cast<size_t>(L) * NumLaneArgs],
                             Kind))
          TRAP("argument type mismatch calling '" + C.Name + "'");
      if (Loaded)
        for (unsigned L = 0; L < Lanes; ++L)
          Row[L] = interp::promoteArg(
              Args[static_cast<size_t>(L) * NumLaneArgs], Kind);
    }
  }

  BatchStack.resize(static_cast<size_t>(C.MaxStack) * Lanes);
  unsigned SP = 0;
  auto Row = [&](unsigned Depth) {
    return BatchStack.data() + static_cast<size_t>(Depth) * Lanes;
  };
  auto LocalRow = [&](int32_t Slot) {
    return BatchLocals.data() + static_cast<size_t>(Slot) * Lanes;
  };
  // One builtin call per tile: pops Argc argument rows and pushes the
  // result row, written over the first argument's row.
  auto CallRows = [&](uint16_t Id, unsigned Argc) {
    assert(Argc <= 8 && "builtin arity exceeds the argument rows");
    SP -= Argc;
    const Value *ArgRows[8];
    for (unsigned A = 0; A < Argc; ++A)
      ArgRows[A] = Row(SP + A);
    callBuiltinLanes(Id, ArgRows, Row(SP), Lanes, *this);
    ++SP;
  };

  const ExecInstr *Code = C.Code.data();
  const size_t CodeLen = C.Code.size();
  size_t IpIdx = 0;
  while (IpIdx < CodeLen) {
    const ExecInstr &In = Code[IpIdx];
    // Every lane runs every dispatched instruction, so a tile is billed
    // what Lanes per-pixel runs would have been.
    Executed += Lanes;
    if (Executed > InstructionBudget)
      TRAP("instruction budget exceeded in '" + C.Name + "'");
    switch (In.Op) {
    case FusedOp::F_Const: {
      const Value K = *In.K;
      Value *S = Row(SP++);
      for (unsigned L = 0; L < Lanes; ++L)
        S[L] = K;
      break;
    }
    case FusedOp::F_LoadLocal: {
      const Value *Src = LocalRow(In.A);
      std::copy(Src, Src + Lanes, Row(SP++));
      break;
    }
    case FusedOp::F_StoreLocal: {
      const Value *S = Row(--SP);
      std::copy(S, S + Lanes, LocalRow(In.A));
      break;
    }
    case FusedOp::F_Convert: {
      const Type To(static_cast<TypeKind>(In.A));
      Value *S = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        S[L] = S[L].convertTo(To);
      break;
    }
    case FusedOp::F_Pop:
      --SP;
      break;
    case FusedOp::F_Neg: {
      Value *S = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        S[L] = interp::opNeg(S[L]);
      break;
    }
    case FusedOp::F_Not: {
      Value *S = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        S[L] = Value::makeBool(!S[L].asBool());
      break;
    }
    case FusedOp::F_Add: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      if (!arithRows(Lv, Rv, Lanes, [](float A, float B) { return A + B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opAdd(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Sub: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      if (!arithRows(Lv, Rv, Lanes, [](float A, float B) { return A - B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opSub(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Mul: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      if (!arithRows(Lv, Rv, Lanes, [](float A, float B) { return A * B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opMul(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Div: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      // The fast paths cover float/vector operands only, where division
      // by zero is well-defined IEEE behavior; the int-zero trap lives
      // in the generic fallback with the other int mixes.
      if (!arithRows(Lv, Rv, Lanes, [](float A, float B) { return A / B; }))
        for (unsigned L = 0; L < Lanes; ++L) {
          if (Lv[L].isInt() && Rv[L].isInt() && Rv[L].I == 0)
            TRAP("integer division by zero in '" + C.Name + "'" +
                 interp::srcLocSuffix(In.A, In.B));
          Lv[L] = interp::opDiv(Lv[L], Rv[L]);
        }
      break;
    }
    case FusedOp::F_Mod: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L) {
        if (Rv[L].I == 0)
          TRAP("integer modulo by zero in '" + C.Name + "'" +
               interp::srcLocSuffix(In.A, In.B));
        Lv[L] = Value::makeInt(Lv[L].I % Rv[L].I);
      }
      break;
    }
    case FusedOp::F_Lt: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opLt(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Le: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opLe(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Gt: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opGt(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Ge: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opGe(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Eq: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opEq(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_Ne: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = interp::opNe(Lv[L], Rv[L]);
      break;
    }
    case FusedOp::F_And: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = Value::makeBool(Lv[L].asBool() && Rv[L].asBool());
      break;
    }
    case FusedOp::F_Or: {
      const Value *Rv = Row(--SP);
      Value *Lv = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Lv[L] = Value::makeBool(Lv[L].asBool() || Rv[L].asBool());
      break;
    }
    case FusedOp::F_Select: {
      SP -= 2;
      Value *Cond = Row(SP - 1);
      const Value *T = Row(SP);
      const Value *F = Row(SP + 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Cond[L] = Cond[L].asBool() ? T[L] : F[L];
      break;
    }
    case FusedOp::F_CallBuiltin: {
      CallRows(static_cast<uint16_t>(In.A), static_cast<unsigned>(In.B));
      break;
    }
    case FusedOp::F_Member: {
      Value *S = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        S[L] = Value::makeFloat(S[L].F[In.A]);
      break;
    }
    case FusedOp::F_CacheLoad: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      cacheLoadRow(Row(SP++), Req.CacheBase + Offset, CacheStride, Kind,
                   Lanes);
      break;
    }
    case FusedOp::F_CacheStore: {
      // The stored value stays on the stack.
      if (!UseCache)
        TRAP("cache write without cache storage in '" + C.Name + "'");
      if (!Req.CacheStoreBase)
        TRAP("cache store to a read-only cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache store past the layout in '" + C.Name + "'");
      const Value *S = Row(SP - 1);
      unsigned char *Dst = Req.CacheStoreBase + Offset;
      for (unsigned L = 0; L < Lanes; ++L) {
        if (S[L].Kind != Kind)
          TRAP("cache store type mismatch in '" + C.Name + "': slot is " +
               Type(Kind).name() + ", value is " + Type(S[L].Kind).name());
        CacheView::storeRaw(Dst + L * CacheStride, S[L]);
      }
      break;
    }
    case FusedOp::F_Return: {
      const Value *S = Row(SP - 1);
      for (unsigned L = 0; L < Lanes; ++L)
        Req.Results[L] = S[L];
      Result.InstructionsExecuted = Executed;
      return Result;
    }
    case FusedOp::F_ReturnVoid: {
      for (unsigned L = 0; L < Lanes; ++L)
        Req.Results[L] = Value::makeVoid();
      Result.InstructionsExecuted = Executed;
      return Result;
    }
    case FusedOp::F_ConstAdd: {
      const Value K = *In.K;
      Value *Lv = Row(SP - 1);
      if (!arithRowConst(Lv, K, Lanes, [](float A, float B) { return A + B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opAdd(Lv[L], K);
      break;
    }
    case FusedOp::F_ConstMul: {
      const Value K = *In.K;
      Value *Lv = Row(SP - 1);
      if (!arithRowConst(Lv, K, Lanes, [](float A, float B) { return A * B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opMul(Lv[L], K);
      break;
    }
    case FusedOp::F_LoadLoad: {
      const Value *A = LocalRow(In.A);
      const Value *B = LocalRow(In.A2);
      std::copy(A, A + Lanes, Row(SP));
      std::copy(B, B + Lanes, Row(SP + 1));
      SP += 2;
      break;
    }
    case FusedOp::F_StoreLoad: {
      // Store first, then load — row-wise order preserves the sequential
      // semantics even when both name the same local.
      Value *S = Row(SP - 1);
      std::copy(S, S + Lanes, LocalRow(In.A));
      const Value *Src = LocalRow(In.A2);
      std::copy(Src, Src + Lanes, S);
      break;
    }
    case FusedOp::F_LoadCall: {
      const Value *Loaded = LocalRow(In.A);
      std::copy(Loaded, Loaded + Lanes, Row(SP));
      ++SP;
      CallRows(static_cast<uint16_t>(In.A2), static_cast<unsigned>(In.B2));
      break;
    }
    case FusedOp::F_CacheLoadAdd: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      // MaxStack covers the unfused pair's transient push, so Row(SP) is
      // valid scratch for the gathered slot row.
      Value *Scratch = Row(SP);
      cacheLoadRow(Scratch, Req.CacheBase + Offset, CacheStride, Kind, Lanes);
      Value *Lv = Row(SP - 1);
      if (!arithRows(Lv, Scratch, Lanes,
                     [](float A, float B) { return A + B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opAdd(Lv[L], Scratch[L]);
      break;
    }
    case FusedOp::F_CacheLoadMul: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      Value *Scratch = Row(SP);
      cacheLoadRow(Scratch, Req.CacheBase + Offset, CacheStride, Kind, Lanes);
      Value *Lv = Row(SP - 1);
      if (!arithRows(Lv, Scratch, Lanes,
                     [](float A, float B) { return A * B; }))
        for (unsigned L = 0; L < Lanes; ++L)
          Lv[L] = interp::opMul(Lv[L], Scratch[L]);
      break;
    }
    case FusedOp::F_CacheLoadStore: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      cacheLoadRow(LocalRow(In.A2), Req.CacheBase + Offset, CacheStride, Kind,
                   Lanes);
      break;
    }
    case FusedOp::F_CacheLoadRet: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      cacheLoadRow(Req.Results, Req.CacheBase + Offset, CacheStride, Kind,
                   Lanes);
      Result.InstructionsExecuted = Executed;
      return Result;
    }
    case FusedOp::F_Jump:
      IpIdx = static_cast<size_t>(In.A);
      continue;
    case FusedOp::F_JumpIfFalse:
    case FusedOp::F_LtJf:
    case FusedOp::F_LeJf:
    case FusedOp::F_GtJf:
    case FusedOp::F_GeJf: {
      // All lanes agree: take the jump (or fall through) in lockstep.
      // Otherwise the tile bails for a per-pixel re-run.
      size_t Target;
      unsigned TrueCount = 0;
      if (In.Op == FusedOp::F_JumpIfFalse) {
        Target = static_cast<size_t>(In.A);
        const Value *S = Row(--SP);
        for (unsigned L = 0; L < Lanes; ++L)
          TrueCount += S[L].asBool();
      } else {
        Target = static_cast<size_t>(In.A2);
        const Value *Rv = Row(--SP);
        const Value *Lv = Row(--SP);
        bool (*Cmp)(const Value &, const Value &) =
            In.Op == FusedOp::F_LtJf   ? interp::cmpLt
            : In.Op == FusedOp::F_LeJf ? interp::cmpLe
            : In.Op == FusedOp::F_GtJf ? interp::cmpGt
                                       : interp::cmpGe;
        for (unsigned L = 0; L < Lanes; ++L)
          TrueCount += Cmp(Lv[L], Rv[L]);
      }
      if (TrueCount == Lanes) { // uniformly true: fall through
        ++IpIdx;
        continue;
      }
      if (TrueCount == 0) { // uniformly false: jump
        IpIdx = Target;
        continue;
      }
      DIVERGE();
    }
    case FusedOp::F_OpCount:
      TRAP("corrupt opcode in decoded chunk '" + C.Name + "'");
    }
    ++IpIdx;
  }

  // Fell off the end: every lane halts with a void result, matching the
  // switch interpreter.
  for (unsigned L = 0; L < Lanes; ++L)
    Req.Results[L] = Value::makeVoid();
  Result.InstructionsExecuted = Executed;
  return Result;
}

#undef DIVERGE
#undef TRAP
