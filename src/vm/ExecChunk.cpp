//===- vm/ExecChunk.cpp - Decoded, fused execution form ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/ExecChunk.h"

#include "lang/Builtins.h"
#include "vm/Serde.h"

#include <algorithm>
#include <cassert>

using namespace dspec;

const char *dspec::fusedOpName(FusedOp Op) {
  if (!isSuperinstruction(Op))
    return opcodeName(static_cast<OpCode>(Op));
  switch (Op) {
  case FusedOp::F_ConstAdd:
    return "const+add";
  case FusedOp::F_ConstMul:
    return "const+mul";
  case FusedOp::F_LoadLoad:
    return "load+load";
  case FusedOp::F_StoreLoad:
    return "store+load";
  case FusedOp::F_LoadCall:
    return "load+call";
  case FusedOp::F_CacheLoadAdd:
    return "cload+add";
  case FusedOp::F_CacheLoadMul:
    return "cload+mul";
  case FusedOp::F_CacheLoadStore:
    return "cload+store";
  case FusedOp::F_CacheLoadRet:
    return "cload+ret";
  case FusedOp::F_LtJf:
    return "lt+jfalse";
  case FusedOp::F_LeJf:
    return "le+jfalse";
  case FusedOp::F_GtJf:
    return "gt+jfalse";
  case FusedOp::F_GeJf:
    return "ge+jfalse";
  default:
    return "?";
  }
}

namespace {

/// Maximum abstract stack depth over every reachable path. The chunk has
/// already passed verifyChunk, which guarantees consistent depths at join
/// points and no underflow, so this pass cannot fail.
unsigned computeMaxStack(const Chunk &C) {
  const size_t N = C.Code.size();
  std::vector<int> Depth(N, -1);
  std::vector<size_t> Worklist;
  if (N > 0) {
    Depth[0] = 0;
    Worklist.push_back(0);
  }
  int Max = 0;

  auto Flow = [&](size_t Target, int D) {
    if (Target >= N)
      return;
    if (Depth[Target] == -1) {
      Depth[Target] = D;
      Worklist.push_back(Target);
    }
  };

  while (!Worklist.empty()) {
    size_t IP = Worklist.back();
    Worklist.pop_back();
    const Instr &In = C.Code[IP];
    int D = Depth[IP];
    int After = D;
    bool Terminal = false;
    size_t JumpTarget = SIZE_MAX;

    switch (In.Op) {
    case OpCode::OC_Const:
    case OpCode::OC_LoadLocal:
    case OpCode::OC_CacheLoad:
      After = D + 1;
      break;
    case OpCode::OC_StoreLocal:
    case OpCode::OC_Pop:
      After = D - 1;
      break;
    case OpCode::OC_Convert:
    case OpCode::OC_Neg:
    case OpCode::OC_Not:
    case OpCode::OC_Member:
    case OpCode::OC_CacheStore:
      break; // net zero
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
      After = D - 1;
      break;
    case OpCode::OC_Select:
      After = D - 2;
      break;
    case OpCode::OC_Jump:
      JumpTarget = static_cast<size_t>(In.A);
      Terminal = true;
      break;
    case OpCode::OC_JumpIfFalse:
      After = D - 1;
      JumpTarget = static_cast<size_t>(In.A);
      break;
    case OpCode::OC_CallBuiltin:
      After = D - In.B + 1;
      break;
    case OpCode::OC_Return:
    case OpCode::OC_ReturnVoid:
      Terminal = true;
      break;
    }

    Max = std::max(Max, D + 1); // peak while executing this instruction
    Max = std::max(Max, After);
    if (JumpTarget != SIZE_MAX)
      Flow(JumpTarget, After);
    if (!Terminal)
      Flow(IP + 1, After);
  }
  return static_cast<unsigned>(Max);
}

/// Tries to combine the pair (\p First, \p Second) into one
/// superinstruction; returns true and fills \p Out on a match.
bool fusePair(const Instr &First, const Instr &Second, ExecInstr &Out) {
  auto Second2 = [&]() {
    Out.A2 = Second.A;
    Out.B2 = Second.B;
    Out.C2 = Second.C;
  };
  switch (First.Op) {
  case OpCode::OC_Const:
    if (Second.Op == OpCode::OC_Add)
      Out.Op = FusedOp::F_ConstAdd;
    else if (Second.Op == OpCode::OC_Mul)
      Out.Op = FusedOp::F_ConstMul;
    else
      return false;
    return true;
  case OpCode::OC_LoadLocal:
    if (Second.Op == OpCode::OC_LoadLocal) {
      Out.Op = FusedOp::F_LoadLoad;
      Second2();
      return true;
    }
    if (Second.Op == OpCode::OC_CallBuiltin) {
      Out.Op = FusedOp::F_LoadCall;
      Second2();
      return true;
    }
    return false;
  case OpCode::OC_StoreLocal:
    if (Second.Op != OpCode::OC_LoadLocal)
      return false;
    Out.Op = FusedOp::F_StoreLoad;
    Second2();
    return true;
  case OpCode::OC_CacheLoad:
    switch (Second.Op) {
    case OpCode::OC_Add:
      Out.Op = FusedOp::F_CacheLoadAdd;
      return true;
    case OpCode::OC_Mul:
      Out.Op = FusedOp::F_CacheLoadMul;
      return true;
    case OpCode::OC_StoreLocal:
      Out.Op = FusedOp::F_CacheLoadStore;
      Second2();
      return true;
    case OpCode::OC_Return:
      Out.Op = FusedOp::F_CacheLoadRet;
      return true;
    default:
      return false;
    }
  case OpCode::OC_Lt:
  case OpCode::OC_Le:
  case OpCode::OC_Gt:
  case OpCode::OC_Ge:
    if (Second.Op != OpCode::OC_JumpIfFalse)
      return false;
    switch (First.Op) {
    case OpCode::OC_Lt:
      Out.Op = FusedOp::F_LtJf;
      break;
    case OpCode::OC_Le:
      Out.Op = FusedOp::F_LeJf;
      break;
    case OpCode::OC_Gt:
      Out.Op = FusedOp::F_GtJf;
      break;
    default:
      Out.Op = FusedOp::F_GeJf;
      break;
    }
    Second2(); // A2 = jump target (old index; remapped by the caller)
    return true;
  default:
    return false;
  }
}

/// True if the decoded instruction carries a jump target that needs
/// remapping, returning a pointer to the operand holding it.
int32_t *jumpOperand(ExecInstr &In) {
  switch (In.Op) {
  case FusedOp::F_Jump:
  case FusedOp::F_JumpIfFalse:
    return &In.A;
  case FusedOp::F_LtJf:
  case FusedOp::F_LeJf:
  case FusedOp::F_GtJf:
  case FusedOp::F_GeJf:
    return &In.A2;
  default:
    return nullptr;
  }
}

} // namespace

ExecChunk dspec::buildExecChunk(const Chunk &C) {
  ExecChunk Out;
  std::string Error;
  if (!verifyChunk(C, Error))
    return Out; // Valid stays false; the caller falls back to VM::run.

  Out.Name = C.Name;
  Out.Constants = C.Constants;
  Out.LocalTypes = C.LocalTypes;
  Out.NumParams = C.NumParams;
  Out.CacheSlotCount = C.CacheSlotCount;
  Out.CacheBytes = C.CacheBytes;
  Out.MaxStack = computeMaxStack(C);

  const size_t N = C.Code.size();

  // Jump-target set and the static safety flags.
  std::vector<bool> IsTarget(N + 1, false);
  for (const Instr &In : C.Code) {
    if (In.Op == OpCode::OC_Jump || In.Op == OpCode::OC_JumpIfFalse)
      IsTarget[static_cast<size_t>(In.A)] = true;
    if (In.Op == OpCode::OC_CallBuiltin &&
        getBuiltinInfo(static_cast<BuiltinId>(In.A)).HasGlobalEffect)
      Out.HasEffects = true;
  }
  // Effect order is the only thing the batched tier cannot reproduce;
  // every other chunk at least *attempts* batching and bails per-tile
  // where a branch's lanes disagree.
  Out.BatchSafe = !Out.HasEffects;

  // Decode with fusion. A pair is only fused when its second instruction
  // is not a jump target (jumping to the first of a fused pair is fine:
  // fall-through would execute both anyway).
  std::vector<int32_t> OldToNew(N + 1, -1);
  Out.Code.reserve(N);
  size_t I = 0;
  while (I < N) {
    const Instr &In = C.Code[I];
    ExecInstr E;
    E.A = In.A;
    E.B = In.B;
    E.C = In.C;
    OldToNew[I] = static_cast<int32_t>(Out.Code.size());
    if (I + 1 < N && !IsTarget[I + 1] &&
        fusePair(In, C.Code[I + 1], E)) {
      I += 2;
    } else {
      E.Op = static_cast<FusedOp>(In.Op);
      I += 1;
    }
    if (E.Op == FusedOp::F_Const || E.Op == FusedOp::F_ConstAdd ||
        E.Op == FusedOp::F_ConstMul)
      E.K = &Out.Constants[E.A];
    Out.Code.push_back(E);
  }
  OldToNew[N] = static_cast<int32_t>(Out.Code.size());

  // Remap jump operands from source indices to decoded indices. Every
  // target maps: verifyChunk bounds it, and fusion skipped pairs whose
  // second half is targeted.
  for (ExecInstr &E : Out.Code)
    if (int32_t *Target = jumpOperand(E)) {
      assert(*Target >= 0 && static_cast<size_t>(*Target) <= N &&
             OldToNew[*Target] >= 0 && "jump into the middle of a fused pair");
      *Target = OldToNew[*Target];
    }

  // The read set. verifyChunk bounds every slot operand.
  Out.LoadedLocals.assign(Out.numLocals(), false);
  for (const ExecInstr &E : Out.Code)
    switch (E.Op) {
    case FusedOp::F_LoadLocal:
    case FusedOp::F_LoadCall:
      Out.LoadedLocals[E.A] = true;
      break;
    case FusedOp::F_LoadLoad:
      Out.LoadedLocals[E.A] = true;
      Out.LoadedLocals[E.A2] = true;
      break;
    case FusedOp::F_StoreLoad:
      Out.LoadedLocals[E.A2] = true;
      break;
    default:
      break;
    }

  Out.Valid = true;
  return Out;
}

std::vector<unsigned> dspec::opcodeHistogram(const ExecChunk &C) {
  std::vector<unsigned> Counts(kNumFusedOps, 0);
  for (const ExecInstr &In : C.Code)
    ++Counts[static_cast<unsigned>(In.Op)];
  return Counts;
}

unsigned dspec::conditionalBranchCount(const ExecChunk &C) {
  const std::vector<unsigned> Counts = opcodeHistogram(C);
  unsigned Branches = 0;
  for (FusedOp Op : {FusedOp::F_JumpIfFalse, FusedOp::F_LtJf, FusedOp::F_LeJf,
                     FusedOp::F_GtJf, FusedOp::F_GeJf})
    Branches += Counts[static_cast<unsigned>(Op)];
  return Branches;
}

std::vector<std::pair<const char *, unsigned>>
dspec::fusedHistogram(const ExecChunk &C) {
  std::vector<unsigned> Counts = opcodeHistogram(C);
  std::vector<std::pair<const char *, unsigned>> Rows;
  for (unsigned Op = kNumBaseOps; Op < kNumFusedOps; ++Op)
    if (Counts[Op] > 0)
      Rows.emplace_back(fusedOpName(static_cast<FusedOp>(Op)), Counts[Op]);
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const auto &L, const auto &R) {
                     return L.second > R.second;
                   });
  return Rows;
}
