//===- lang/Stmt.h - Statement AST nodes ------------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement nodes of the dsc AST. The parser desugars `for` loops into
/// `{ init; while (cond) { body; step; } }` and compound assignments into
/// plain assignments, so analyses only see the kinds below. There is no
/// `goto` and no unstructured control flow (the paper's prototype makes the
/// same restriction, which keeps control dependence at join points easy —
/// Section 3.1, case 4).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_LANG_STMT_H
#define DATASPEC_LANG_STMT_H

#include "lang/Expr.h"

#include <cstdint>
#include <vector>

namespace dspec {

/// Discriminator for Stmt subclasses (LLVM-style RTTI).
enum class StmtKind : uint8_t {
  SK_Block,
  SK_Decl,
  SK_Assign,
  SK_ExprStmt,
  SK_If,
  SK_While,
  SK_Return,
};

/// Base class of all dsc statements.
class Stmt {
public:
  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;
  virtual ~Stmt() = default;

  StmtKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  /// Dense id assigned by the owning ASTContext.
  uint32_t nodeId() const { return NodeId; }
  void setNodeId(uint32_t Id) { NodeId = Id; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
  uint32_t NodeId = ~0u;
};

/// `{ s1; s2; ... }`.
class BlockStmt : public Stmt {
public:
  BlockStmt(std::vector<Stmt *> Body, SourceLoc Loc)
      : Stmt(StmtKind::SK_Block, Loc), Body(std::move(Body)) {}

  const std::vector<Stmt *> &body() const { return Body; }
  std::vector<Stmt *> &body() { return Body; }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::SK_Block;
  }

private:
  std::vector<Stmt *> Body;
};

/// A local variable declaration, `float x = e;`. A declaration with no
/// initializer zero-initializes the variable; either way it is a
/// definition for the reaching-definitions analysis.
class DeclStmt : public Stmt {
public:
  DeclStmt(VarDecl *Var, Expr *Init, SourceLoc Loc)
      : Stmt(StmtKind::SK_Decl, Loc), Var(Var), Init(Init) {}

  VarDecl *var() const { return Var; }
  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::SK_Decl; }

private:
  VarDecl *Var;
  Expr *Init; // may be null (zero-initialization)
};

/// An assignment `x = e;`. The target is always a whole variable (dsc has
/// no pointers, arrays, or component lvalues). Assignments inserted by the
/// Section 4.1 join-normalization pass are flagged as phi copies; the
/// caching analysis only allows caching a bare variable reference when it
/// is the right-hand side of such a copy.
class AssignStmt : public Stmt {
public:
  AssignStmt(std::string TargetName, Expr *Value, SourceLoc Loc)
      : Stmt(StmtKind::SK_Assign, Loc), TargetName(std::move(TargetName)),
        Value(Value) {}

  const std::string &targetName() const { return TargetName; }
  Expr *value() const { return Value; }
  void setValue(Expr *E) { Value = E; }

  VarDecl *target() const { return Target; }
  void setTarget(VarDecl *D) { Target = D; }

  bool isPhiCopy() const { return PhiCopy; }
  void setPhiCopy(bool Value) { PhiCopy = Value; }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::SK_Assign;
  }

private:
  std::string TargetName;
  Expr *Value;
  VarDecl *Target = nullptr;
  bool PhiCopy = false;
};

/// An expression evaluated for its effect, `dsc_trace(x);`.
class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLoc Loc)
      : Stmt(StmtKind::SK_ExprStmt, Loc), Inner(E) {}

  Expr *expr() const { return Inner; }
  void setExpr(Expr *E) { Inner = E; }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::SK_ExprStmt;
  }

private:
  Expr *Inner;
};

/// `if (c) then else`.
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(StmtKind::SK_If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; }
  void setCond(Expr *E) { Cond = E; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::SK_If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; // may be null
};

/// `while (c) body`.
class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(StmtKind::SK_While, Loc), Cond(Cond), Body(Body) {}

  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }
  void setCond(Expr *E) { Cond = E; }
  void setBody(Stmt *S) { Body = S; }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::SK_While;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

/// `return e;` (or `return;` in a void fragment). Return statements always
/// appear in the cache reader — the reader must produce the fragment's
/// result — so the caching analysis labels them Dynamic unconditionally.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(StmtKind::SK_Return, Loc), Value(Value) {}

  Expr *value() const { return Value; }
  void setValue(Expr *E) { Value = E; }

  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::SK_Return;
  }

private:
  Expr *Value; // may be null
};

} // namespace dspec

#endif // DATASPEC_LANG_STMT_H
