//===- vm/Serde.h - Value and Chunk binary serde ----------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary serialization for runtime Values and compiled Chunks,
/// used by the snapshot subsystem to persist specialized programs across
/// processes. Deserialization treats its input as untrusted: every enum
/// is range-checked, every count is sanity-capped, and a successfully
/// decoded chunk is additionally run through verifyChunk — an abstract
/// stack-depth/operand verifier that guarantees the VM cannot underflow
/// its stack or index out of bounds executing it. A chunk that decodes
/// and verifies is safe to run; anything else produces a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_SERDE_H
#define DATASPEC_VM_SERDE_H

#include "support/ByteStream.h"
#include "vm/Bytecode.h"

#include <string>

namespace dspec {

/// Bump when the encoded shape of Value or Chunk changes. Snapshots
/// record the version they were written with; readers reject mismatches.
constexpr uint32_t kChunkSerdeVersion = 1;

/// Appends \p V to \p Writer (tag + full payload; bit-exact floats).
void serializeValue(ByteWriter &Writer, const Value &V);

/// Decodes one Value. On malformed input the reader's error latches and
/// the returned value is void.
Value deserializeValue(ByteReader &Reader);

/// Appends \p C to \p Writer.
void serializeChunk(ByteWriter &Writer, const Chunk &C);

/// Decodes one Chunk and verifies it (see verifyChunk). Returns false
/// with \p Error set on malformed, truncated, or unverifiable input;
/// \p Out is unspecified in that case.
bool deserializeChunk(ByteReader &Reader, Chunk &Out, std::string &Error);

/// Structural verification of a chunk: opcodes and TypeKinds in range,
/// constant/local/jump/member/builtin operands valid, cache offsets
/// consistent with the chunk's declared CacheBytes, and a consistent
/// abstract stack depth at every instruction (so Pop never underflows).
/// Freshly compiled chunks always pass; this exists so chunks decoded
/// from untrusted bytes are safe to execute. On success, \p MaxStack
/// (when non-null) receives the peak operand-stack depth over every
/// reachable instruction: the larger of its depth + 1 and its depth
/// after it, so one transient push past a binary operation's operands
/// (the fused cload+add and cload+mul) always fits.
bool verifyChunk(const Chunk &C, std::string &Error,
                 unsigned *MaxStack = nullptr);

} // namespace dspec

#endif // DATASPEC_VM_SERDE_H
