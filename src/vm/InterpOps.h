//===- vm/InterpOps.h - Shared interpreter operation semantics --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-level semantics of the arithmetic and comparison opcodes,
/// shared by both execution tiers (the classic switch interpreter in
/// VM.cpp and the batched tier in FastInterp.cpp). The
/// bit-identical-framebuffer guarantee across tiers rests on both
/// calling exactly these functions in exactly the same operand order, so
/// do not duplicate or "optimize" these per tier.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_INTERPOPS_H
#define DATASPEC_VM_INTERPOPS_H

#include "vm/Value.h"

#include <string>

namespace dspec {
namespace interp {

/// Renders the " at line:col" suffix for the divide-by-zero diagnostics.
/// The compiler stamps the offending operand's SourceLoc into the unused
/// A/B operands of OC_Div / OC_Mod; chunks compiled before that carry
/// zeros and get the bare message.
inline std::string srcLocSuffix(int32_t Line, int32_t Col) {
  if (Line <= 0)
    return std::string();
  return " at " + std::to_string(Line) + ":" + std::to_string(Col);
}

/// The argument rule of a call: a parameter takes a value of its own
/// kind, or an int where it declares a float. Anything else traps with
/// "argument type mismatch".
inline bool argFits(const Value &Arg, TypeKind Param) {
  return Arg.Kind == Param || (Arg.isInt() && Param == TypeKind::TK_Float);
}

/// \p Arg as the parameter receives it: an int promoted to a float
/// parameter. \p Arg must fit (argFits).
inline Value promoteArg(const Value &Arg, TypeKind Param) {
  return Arg.Kind == Param ? Arg : Value::makeFloat(static_cast<float>(Arg.I));
}

/// Componentwise binary arithmetic with scalar broadcasting. Sema
/// guarantees the combinations are sensible.
template <typename FloatOp, typename IntOp>
inline Value arith(const Value &L, const Value &R, FloatOp FOp, IntOp IOp) {
  if (L.isInt() && R.isInt())
    return Value::makeInt(IOp(L.I, R.I));
  if (!L.isVector() && !R.isVector())
    return Value::makeFloat(FOp(L.asFloat(), R.asFloat()));

  Value Out;
  if (L.isVector() && R.isVector()) {
    Out.Kind = L.Kind;
    for (unsigned I = 0; I < L.width(); ++I)
      Out.F[I] = FOp(L.F[I], R.F[I]);
    return Out;
  }
  if (L.isVector()) {
    float S = R.asFloat();
    Out.Kind = L.Kind;
    for (unsigned I = 0; I < L.width(); ++I)
      Out.F[I] = FOp(L.F[I], S);
    return Out;
  }
  float S = L.asFloat();
  Out.Kind = R.Kind;
  for (unsigned I = 0; I < R.width(); ++I)
    Out.F[I] = FOp(S, R.F[I]);
  return Out;
}

template <typename Cmp>
inline Value compare(const Value &L, const Value &R, Cmp Op) {
  if (L.isInt() && R.isInt())
    return Value::makeBool(Op(static_cast<float>(L.I),
                              static_cast<float>(R.I)));
  return Value::makeBool(Op(L.asFloat(), R.asFloat()));
}

inline Value opAdd(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A + B; },
      [](int32_t A, int32_t B) { return A + B; });
}

inline Value opSub(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A - B; },
      [](int32_t A, int32_t B) { return A - B; });
}

inline Value opMul(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A * B; },
      [](int32_t A, int32_t B) { return A * B; });
}

/// Caller must have rejected int/int division by zero.
inline Value opDiv(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A / B; },
      [](int32_t A, int32_t B) { return A / B; });
}

inline Value opNeg(const Value &V) {
  if (V.isInt())
    return Value::makeInt(-V.I);
  if (V.isVector()) {
    Value Out = V;
    for (unsigned I = 0; I < V.width(); ++I)
      Out.F[I] = -V.F[I];
    return Out;
  }
  return Value::makeFloat(-V.asFloat());
}

inline Value opLt(const Value &L, const Value &R) {
  return compare(L, R, [](float A, float B) { return A < B; });
}
inline Value opLe(const Value &L, const Value &R) {
  return compare(L, R, [](float A, float B) { return A <= B; });
}
inline Value opGt(const Value &L, const Value &R) {
  return compare(L, R, [](float A, float B) { return A > B; });
}
inline Value opGe(const Value &L, const Value &R) {
  return compare(L, R, [](float A, float B) { return A >= B; });
}

inline Value opEq(const Value &L, const Value &R) {
  if (L.isBool() && R.isBool())
    return Value::makeBool(L.I == R.I);
  return compare(L, R, [](float A, float B) { return A == B; });
}

inline Value opNe(const Value &L, const Value &R) {
  if (L.isBool() && R.isBool())
    return Value::makeBool(L.I != R.I);
  return compare(L, R, [](float A, float B) { return A != B; });
}

/// Branch-condition truth of the fused compare+JumpIfFalse pairs, used
/// by the batched tier's per-lane uniformity/divergence decisions so
/// they agree bit-for-bit with the boxed compare + OC_JumpIfFalse
/// sequence they replace.
inline bool cmpLt(const Value &L, const Value &R) { return opLt(L, R).I != 0; }
inline bool cmpLe(const Value &L, const Value &R) { return opLe(L, R).I != 0; }
inline bool cmpGt(const Value &L, const Value &R) { return opGt(L, R).I != 0; }
inline bool cmpGe(const Value &L, const Value &R) { return opGe(L, R).I != 0; }

} // namespace interp
} // namespace dspec

#endif // DATASPEC_VM_INTERPOPS_H
