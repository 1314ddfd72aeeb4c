//===- lang/Expr.h - Expression AST nodes -----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression nodes of the dsc AST. Nodes are arena-allocated by an
/// ASTContext, which also assigns each node a dense integer id; analyses
/// store per-node facts in vectors indexed by those ids.
///
/// Two node kinds exist only in specializer output: CacheReadExpr (the
/// reader's `cache->slotN`) and CacheStoreExpr (the loader's
/// `cache->slotN = (...)`, which evaluates its operand, stores it, and
/// yields it) — see Figure 2 of the paper.
///
/// Note on semantics: `&&`, `||`, and `?:` are *strict* in dsc (both sides
/// always evaluate). This keeps evaluation of any term unconditional within
/// its guarding statements, which is what the caching analysis's Rule 3
/// reasons about.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_LANG_EXPR_H
#define DATASPEC_LANG_EXPR_H

#include "lang/Decl.h"
#include "lang/Builtins.h"
#include "lang/Type.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace dspec {

/// Discriminator for Expr subclasses (LLVM-style RTTI).
enum class ExprKind : uint8_t {
  EK_IntLiteral,
  EK_FloatLiteral,
  EK_BoolLiteral,
  EK_VarRef,
  EK_Unary,
  EK_Binary,
  EK_Cond,
  EK_Call,
  EK_Member,
  EK_CacheRead,
  EK_CacheStore,
};

/// Base class of all dsc expressions.
class Expr {
public:
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;
  virtual ~Expr() = default;

  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  /// Dense id assigned by the owning ASTContext.
  uint32_t nodeId() const { return NodeId; }
  void setNodeId(uint32_t Id) { NodeId = Id; }

  /// The expression's type; set by Sema (or by the creating transform).
  Type type() const { return ExprType; }
  void setType(Type T) { ExprType = T; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
  uint32_t NodeId = ~0u;
  Type ExprType;
};

/// An integer literal, e.g. `42`.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(int32_t Value, SourceLoc Loc)
      : Expr(ExprKind::EK_IntLiteral, Loc), Value(Value) {}

  int32_t value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_IntLiteral;
  }

private:
  int32_t Value;
};

/// A floating point literal, e.g. `1.5`.
class FloatLiteralExpr : public Expr {
public:
  FloatLiteralExpr(float Value, SourceLoc Loc)
      : Expr(ExprKind::EK_FloatLiteral, Loc), Value(Value) {}

  float value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_FloatLiteral;
  }

private:
  float Value;
};

/// `true` or `false`.
class BoolLiteralExpr : public Expr {
public:
  BoolLiteralExpr(bool Value, SourceLoc Loc)
      : Expr(ExprKind::EK_BoolLiteral, Loc), Value(Value) {}

  bool value() const { return Value; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_BoolLiteral;
  }

private:
  bool Value;
};

/// A reference to a parameter or local variable. The decl is resolved by
/// Sema; until then only the spelling is available.
class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string Name, SourceLoc Loc)
      : Expr(ExprKind::EK_VarRef, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  VarDecl *decl() const { return Decl; }
  void setDecl(VarDecl *D) { Decl = D; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_VarRef;
  }

private:
  std::string Name;
  VarDecl *Decl = nullptr;
};

/// Unary operators.
enum class UnaryOp : uint8_t {
  UO_Neg,
  UO_Not,
};

/// `-x` or `!x`.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Operand, SourceLoc Loc)
      : Expr(ExprKind::EK_Unary, Loc), Op(Op), Operand(Operand) {}

  UnaryOp op() const { return Op; }
  Expr *operand() const { return Operand; }
  void setOperand(Expr *E) { Operand = E; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_Unary;
  }

private:
  UnaryOp Op;
  Expr *Operand;
};

/// Binary operators. `&&` and `||` are strict (see file comment).
enum class BinaryOp : uint8_t {
  BO_Add,
  BO_Sub,
  BO_Mul,
  BO_Div,
  BO_Mod,
  BO_Lt,
  BO_Le,
  BO_Gt,
  BO_Ge,
  BO_Eq,
  BO_Ne,
  BO_And,
  BO_Or,
};

/// Returns the source spelling of \p Op (e.g. "+").
const char *binaryOpSpelling(BinaryOp Op);

/// True for `+` and `*`, the operators the Section 4.2 reassociation pass
/// may rebalance.
inline bool isAssociativeOp(BinaryOp Op) {
  return Op == BinaryOp::BO_Add || Op == BinaryOp::BO_Mul;
}

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(ExprKind::EK_Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_Binary;
  }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// The conditional expression `c ? a : b` (strict: all three evaluate).
class CondExpr : public Expr {
public:
  CondExpr(Expr *Cond, Expr *TrueExpr, Expr *FalseExpr, SourceLoc Loc)
      : Expr(ExprKind::EK_Cond, Loc), Cond(Cond), TrueExpr(TrueExpr),
        FalseExpr(FalseExpr) {}

  Expr *cond() const { return Cond; }
  Expr *trueExpr() const { return TrueExpr; }
  Expr *falseExpr() const { return FalseExpr; }
  void setCond(Expr *E) { Cond = E; }
  void setTrueExpr(Expr *E) { TrueExpr = E; }
  void setFalseExpr(Expr *E) { FalseExpr = E; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::EK_Cond; }

private:
  Expr *Cond;
  Expr *TrueExpr;
  Expr *FalseExpr;
};

/// A call to a builtin function (dsc fragments are single nonrecursive
/// procedures, as in the paper's prototype, so all callees are builtins).
class CallExpr : public Expr {
public:
  CallExpr(std::string Callee, std::vector<Expr *> Args, SourceLoc Loc)
      : Expr(ExprKind::EK_Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &callee() const { return Callee; }
  const std::vector<Expr *> &args() const { return Args; }
  std::vector<Expr *> &args() { return Args; }

  /// The resolved builtin; valid only after Sema.
  BuiltinId builtin() const {
    assert(Resolved && "call not resolved by Sema");
    return Builtin;
  }
  bool isResolved() const { return Resolved; }
  void setBuiltin(BuiltinId Id) {
    Builtin = Id;
    Resolved = true;
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::EK_Call; }

private:
  std::string Callee;
  std::vector<Expr *> Args;
  BuiltinId Builtin = BuiltinId::BI_SqrtF;
  bool Resolved = false;
};

/// Component access on a vector value: `v.x`, `v.y`, `v.z`, `v.w`.
class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, unsigned ComponentIndex, SourceLoc Loc)
      : Expr(ExprKind::EK_Member, Loc), Base(Base),
        ComponentIndex(ComponentIndex) {
    assert(ComponentIndex < 4 && "invalid vector component");
  }

  Expr *base() const { return Base; }
  void setBase(Expr *E) { Base = E; }
  unsigned componentIndex() const { return ComponentIndex; }

  /// The component's source spelling ('x', 'y', 'z', or 'w').
  char componentName() const { return "xyzw"[ComponentIndex]; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_Member;
  }

private:
  Expr *Base;
  unsigned ComponentIndex;
};

/// Reader-side access to a cache slot: `cache->slotN`. Only created by the
/// splitting transformation.
class CacheReadExpr : public Expr {
public:
  CacheReadExpr(unsigned Slot, Type SlotType, SourceLoc Loc,
                unsigned ByteOffset = 0)
      : Expr(ExprKind::EK_CacheRead, Loc), Slot(Slot),
        ByteOffset(ByteOffset) {
    setType(SlotType);
  }

  unsigned slot() const { return Slot; }

  /// Byte offset of the slot in the packed cache buffer, as assigned by
  /// the specialization's CacheLayout (the authoritative runtime layout).
  unsigned byteOffset() const { return ByteOffset; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_CacheRead;
  }

private:
  unsigned Slot;
  unsigned ByteOffset;
};

/// Loader-side store to a cache slot: `cache->slotN = (operand)`. Evaluates
/// the operand, stores it into the slot, and yields the value. Only created
/// by the splitting transformation.
class CacheStoreExpr : public Expr {
public:
  CacheStoreExpr(unsigned Slot, Expr *Operand, SourceLoc Loc,
                 unsigned ByteOffset = 0)
      : Expr(ExprKind::EK_CacheStore, Loc), Slot(Slot), Operand(Operand),
        ByteOffset(ByteOffset) {
    setType(Operand->type());
  }

  unsigned slot() const { return Slot; }
  Expr *operand() const { return Operand; }
  void setOperand(Expr *E) { Operand = E; }

  /// Byte offset of the slot in the packed cache buffer, as assigned by
  /// the specialization's CacheLayout (the authoritative runtime layout).
  unsigned byteOffset() const { return ByteOffset; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::EK_CacheStore;
  }

private:
  unsigned Slot;
  Expr *Operand;
  unsigned ByteOffset;
};

} // namespace dspec

#endif // DATASPEC_LANG_EXPR_H
