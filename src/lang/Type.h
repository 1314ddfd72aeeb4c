//===- lang/Type.h - dsc type system ----------------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dsc language's types. The language is a C subset (per the paper,
/// no pointers and no goto) extended with small vector types so shaders can
/// be written naturally. Types are value objects — there is only a fixed,
/// closed set of them. Sizes drive cache-byte accounting (Figure 8 of the
/// paper): int/float/bool are 4 bytes, vecN is 4*N bytes.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_LANG_TYPE_H
#define DATASPEC_LANG_TYPE_H

#include <cassert>
#include <cstdint>

namespace dspec {

/// Discriminator for the closed set of dsc types.
enum class TypeKind : uint8_t {
  TK_Void,
  TK_Bool,
  TK_Int,
  TK_Float,
  TK_Vec2,
  TK_Vec3,
  TK_Vec4,
};

/// A dsc type. Cheap value object; compare with ==.
class Type {
public:
  Type() : Kind(TypeKind::TK_Void) {}
  explicit Type(TypeKind Kind) : Kind(Kind) {}

  static Type voidTy() { return Type(TypeKind::TK_Void); }
  static Type boolTy() { return Type(TypeKind::TK_Bool); }
  static Type intTy() { return Type(TypeKind::TK_Int); }
  static Type floatTy() { return Type(TypeKind::TK_Float); }
  static Type vec2Ty() { return Type(TypeKind::TK_Vec2); }
  static Type vec3Ty() { return Type(TypeKind::TK_Vec3); }
  static Type vec4Ty() { return Type(TypeKind::TK_Vec4); }

  TypeKind kind() const { return Kind; }

  bool isVoid() const { return Kind == TypeKind::TK_Void; }
  bool isBool() const { return Kind == TypeKind::TK_Bool; }
  bool isInt() const { return Kind == TypeKind::TK_Int; }
  bool isFloat() const { return Kind == TypeKind::TK_Float; }
  bool isNumericScalar() const { return isInt() || isFloat(); }
  bool isVector() const {
    return Kind == TypeKind::TK_Vec2 || Kind == TypeKind::TK_Vec3 ||
           Kind == TypeKind::TK_Vec4;
  }
  bool isNumeric() const { return isNumericScalar() || isVector(); }

  /// Number of float components for vector types (2..4).
  unsigned vectorWidth() const {
    assert(isVector() && "vectorWidth on non-vector type");
    switch (Kind) {
    case TypeKind::TK_Vec2:
      return 2;
    case TypeKind::TK_Vec3:
      return 3;
    default:
      return 4;
    }
  }

  /// Storage size in bytes; drives cache-size accounting.
  unsigned sizeInBytes() const {
    switch (Kind) {
    case TypeKind::TK_Void:
      return 0;
    case TypeKind::TK_Bool:
    case TypeKind::TK_Int:
    case TypeKind::TK_Float:
      return 4;
    case TypeKind::TK_Vec2:
      return 8;
    case TypeKind::TK_Vec3:
      return 12;
    case TypeKind::TK_Vec4:
      return 16;
    }
    return 0;
  }

  /// Source-level spelling.
  const char *name() const {
    switch (Kind) {
    case TypeKind::TK_Void:
      return "void";
    case TypeKind::TK_Bool:
      return "bool";
    case TypeKind::TK_Int:
      return "int";
    case TypeKind::TK_Float:
      return "float";
    case TypeKind::TK_Vec2:
      return "vec2";
    case TypeKind::TK_Vec3:
      return "vec3";
    case TypeKind::TK_Vec4:
      return "vec4";
    }
    return "<invalid>";
  }

  bool operator==(const Type &RHS) const { return Kind == RHS.Kind; }
  bool operator!=(const Type &RHS) const { return Kind != RHS.Kind; }

private:
  TypeKind Kind;
};

/// Result of the usual arithmetic conversion between two numeric scalar
/// types: float wins over int.
inline Type promoteNumeric(Type A, Type B) {
  assert(A.isNumericScalar() && B.isNumericScalar());
  if (A.isFloat() || B.isFloat())
    return Type::floatTy();
  return Type::intTy();
}

/// True if a value of type \p From may be implicitly converted to \p To.
/// The only implicit conversion in dsc is int -> float.
inline bool isImplicitlyConvertible(Type From, Type To) {
  if (From == To)
    return true;
  return From.isInt() && To.isFloat();
}

} // namespace dspec

#endif // DATASPEC_LANG_TYPE_H
