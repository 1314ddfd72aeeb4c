//===- vm/Bytecode.h - Bytecode representation ------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack-machine bytecode that original fragments, cache loaders, and
/// cache readers all compile to. The VM substitutes for the paper's native
/// compiler/CPU: execution time is proportional to the operations
/// performed, so the relative speedups the paper measures keep their
/// shape.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_BYTECODE_H
#define DATASPEC_VM_BYTECODE_H

#include "vm/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dspec {

/// VM operation codes.
enum class OpCode : uint8_t {
  OC_Const,       ///< push Constants[A]
  OC_LoadLocal,   ///< push Locals[A]
  OC_StoreLocal,  ///< Locals[A] = pop
  OC_Convert,     ///< convert top of stack to TypeKind(A)
  OC_Pop,         ///< drop top of stack
  OC_Neg,         ///< arithmetic negation
  OC_Not,         ///< boolean negation
  OC_Add,
  OC_Sub,
  OC_Mul,
  OC_Div,
  OC_Mod,
  OC_Lt,
  OC_Le,
  OC_Gt,
  OC_Ge,
  OC_Eq,
  OC_Ne,
  OC_And,
  OC_Or,
  OC_Select,      ///< pop F, T, C (bool); push C ? T : F
  OC_Jump,        ///< ip = A
  OC_JumpIfFalse, ///< pop bool; if false ip = A
  OC_CallBuiltin, ///< pop B args; push result of builtin A
  OC_Member,      ///< pop vector; push component A
  OC_CacheLoad,   ///< push cache slot A (packed: TypeKind(C) at byte B)
  OC_CacheStore,  ///< cache slot A = top of stack, which stays on the
                  ///< stack (packed: TypeKind(C) at byte offset B)
  OC_Return,      ///< pop result and halt
  OC_ReturnVoid,  ///< halt with void result
};

/// Mnemonic for disassembly.
const char *opcodeName(OpCode Op);

/// One fixed-width instruction. Cache instructions carry the full slot
/// description: A = slot index (boxed compatibility path), B = byte
/// offset in the packed cache buffer, C = the slot's TypeKind — both
/// assigned from the specialization's CacheLayout.
struct Instr {
  OpCode Op;
  int32_t A = 0;
  int32_t B = 0;
  int32_t C = 0;
};

/// A compiled function.
struct Chunk {
  std::string Name;
  std::vector<Instr> Code;
  std::vector<Value> Constants;
  /// Declared type of every local slot (parameters first); used to
  /// zero-initialize frames.
  std::vector<TypeKind> LocalTypes;
  unsigned NumParams = 0;
  Type ReturnType;
  /// Cache requirements of this chunk, derived from the CacheLayout the
  /// cache instructions were compiled against. Zero for plain fragments.
  /// The VM pre-sizes boxed caches to CacheSlotCount and traps on any
  /// access past it; packed CacheViews must span CacheBytes.
  unsigned CacheSlotCount = 0;
  unsigned CacheBytes = 0;

  unsigned numLocals() const {
    return static_cast<unsigned>(LocalTypes.size());
  }

  /// Human-readable disassembly (for tests and debugging).
  std::string disassemble() const;
};

} // namespace dspec

#endif // DATASPEC_VM_BYTECODE_H
