//===- vm/ExecChunk.h - Decoded, fused execution form -----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched tier's execution form of a Chunk: a decoded, flattened
/// instruction stream with pre-resolved constant-pool pointers,
/// pre-remapped jump targets, a precomputed maximum stack depth, and
/// superinstructions fused over the dominant reader idioms. An ExecChunk
/// is a derived, in-memory-only artifact — snapshots keep serializing the
/// plain Chunk (serde format v1 unchanged) and the engine re-decodes and
/// re-fuses after every load, so files written before this tier existed
/// keep working.
///
/// The FusedOp numbering mirrors OpCode one-to-one for the first
/// kNumBaseOps values, so decoding an unfused instruction is a plain
/// widening cast. Fused opcodes append after the mirror range;
/// buildExecChunk chooses them with a peephole pass that never fuses
/// across a jump target (entering the middle of a pair must stay
/// addressable) and remaps every jump operand from old to new indices
/// afterward.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_EXECCHUNK_H
#define DATASPEC_VM_EXECCHUNK_H

#include "vm/Bytecode.h"

#include <utility>
#include <vector>

namespace dspec {

/// Decoded operation codes: the OpCode mirror range first (identical
/// numeric values), then the superinstructions.
enum class FusedOp : uint8_t {
  // Mirror range — keep in exact OpCode order.
  F_Const,
  F_LoadLocal,
  F_StoreLocal,
  F_Convert,
  F_Pop,
  F_Neg,
  F_Not,
  F_Add,
  F_Sub,
  F_Mul,
  F_Div,
  F_Mod,
  F_Lt,
  F_Le,
  F_Gt,
  F_Ge,
  F_Eq,
  F_Ne,
  F_And,
  F_Or,
  F_Select,
  F_Jump,
  F_JumpIfFalse,
  F_CallBuiltin,
  F_Member,
  F_CacheLoad,
  F_CacheStore,
  F_Return,
  F_ReturnVoid,
  // Superinstructions (chosen from the static pair-frequency count over
  // the gallery readers; see docs/ENGINE.md for the measured table).
  F_ConstAdd,       ///< push K; add
  F_ConstMul,       ///< push K; mul
  F_LoadLoad,       ///< push Locals[A]; push Locals[A2]
  F_StoreLoad,      ///< Locals[A] = pop; push Locals[A2]
  F_LoadCall,       ///< push Locals[A]; call builtin A2 with B2 args
  F_CacheLoadAdd,   ///< push cache slot (B, C); add
  F_CacheLoadMul,   ///< push cache slot (B, C); mul
  F_CacheLoadStore, ///< Locals[A2] = cache slot (B, C)
  F_CacheLoadRet,   ///< return cache slot (B, C)
  F_LtJf,           ///< pop R, L; if !(L < R) ip = A2
  F_LeJf,           ///< pop R, L; if !(L <= R) ip = A2
  F_GtJf,           ///< pop R, L; if !(L > R) ip = A2
  F_GeJf,           ///< pop R, L; if !(L >= R) ip = A2
  F_OpCount
};

/// Number of mirror (non-fused) operations == number of OpCodes.
constexpr unsigned kNumBaseOps =
    static_cast<unsigned>(OpCode::OC_ReturnVoid) + 1;
constexpr unsigned kNumFusedOps = static_cast<unsigned>(FusedOp::F_OpCount);

inline bool isSuperinstruction(FusedOp Op) {
  return static_cast<unsigned>(Op) >= kNumBaseOps;
}

/// Mnemonic for disassembly and the explain histogram (e.g. "cload+mul").
const char *fusedOpName(FusedOp Op);

/// One decoded instruction. A/B/C carry the first source instruction's
/// operands, A2/B2/C2 the second's (superinstructions only). K is the
/// pre-resolved constant-pool pointer for F_Const / F_ConstAdd /
/// F_ConstMul, pointing into the owning ExecChunk's Constants vector.
struct ExecInstr {
  FusedOp Op = FusedOp::F_ReturnVoid;
  int32_t A = 0;
  int32_t B = 0;
  int32_t C = 0;
  int32_t A2 = 0;
  int32_t B2 = 0;
  int32_t C2 = 0;
  const Value *K = nullptr;
};

/// A Chunk decoded for the batched execution tier. Self-contained (owns
/// copies of the constant pool and frame description) so the source
/// Chunk may be freed or mutated; non-copyable because ExecInstr::K
/// points into Constants (moving is fine — the vector's heap buffer
/// survives a move).
struct ExecChunk {
  std::string Name;
  std::vector<ExecInstr> Code;
  std::vector<Value> Constants;
  std::vector<TypeKind> LocalTypes;
  unsigned NumParams = 0;
  unsigned CacheSlotCount = 0;
  unsigned CacheBytes = 0;

  /// Maximum operand-stack depth over every execution path, as
  /// verifyChunk reports it from the walk that checks the source chunk.
  /// The batched tier pre-sizes its stack rows to this and never
  /// bounds-checks pushes.
  unsigned MaxStack = 0;

  /// One flag per local slot: some decoded instruction loads it (a plain
  /// load, either half of load+load, the load half of store+load, or the
  /// load of load+call). The batched tier fills a tile's row only for a
  /// loaded slot; no instruction can observe any other row.
  std::vector<bool> LoadedLocals;

  /// False if the source chunk failed verification or decoding; callers
  /// must fall back to the classic switch interpreter (which performs
  /// its own dynamic checks) instead of executing Code.
  bool Valid = false;
  /// Calls at least one builtin with a global effect (dsc_trace /
  /// dsc_clock), whose call order is observable.
  bool HasEffects = false;
  /// Valid and effect-free: eligible for pixel-batched execution.
  /// Branchy chunks qualify too: runBatch takes a branch whose lanes all
  /// agree in lockstep, and *bails out* of the tile (ExecResult::Diverged,
  /// not a trap) at one whose lanes disagree; the engine then re-runs the
  /// tile per-pixel. Only observable effect order forces per-pixel
  /// execution up front.
  bool BatchSafe = false;

  unsigned numLocals() const {
    return static_cast<unsigned>(LocalTypes.size());
  }

  ExecChunk() = default;
  ExecChunk(const ExecChunk &) = delete;
  ExecChunk &operator=(const ExecChunk &) = delete;
  ExecChunk(ExecChunk &&) = default;
  ExecChunk &operator=(ExecChunk &&) = default;
};

/// Decodes and superinstruction-fuses \p C. On any verification failure
/// the result has Valid == false and empty Code. Fusion never changes
/// observable behavior: a fused pair performs exactly the two source
/// operations in order, and pairs whose second instruction is a jump
/// target are left unfused.
ExecChunk buildExecChunk(const Chunk &C);

/// Occurrence count per opcode in \p C's decoded stream, superinstruction
/// entries included, in FusedOp order (dense, size kNumFusedOps).
std::vector<unsigned> opcodeHistogram(const ExecChunk &C);

/// Conditional branches in \p C's decoded stream (JumpIfFalse and the
/// fused compare+jfalse pairs): the points where a batched tile whose
/// lanes disagree bails to per-pixel execution.
unsigned conditionalBranchCount(const ExecChunk &C);

/// The superinstruction entries of opcodeHistogram with non-zero counts,
/// as (mnemonic, count) rows for the explain output, highest count first.
std::vector<std::pair<const char *, unsigned>>
fusedHistogram(const ExecChunk &C);

} // namespace dspec

#endif // DATASPEC_VM_EXECCHUNK_H
