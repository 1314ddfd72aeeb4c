//===- specialize/Splitter.cpp - Section 3.3 splitting ---------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "specialize/Splitter.h"

#include "lang/ASTCloner.h"
#include "support/Casting.h"

using namespace dspec;

namespace {

/// Clones the fragment, wrapping each cached term in a cache store.
class LoaderCloner : public ASTCloner {
public:
  LoaderCloner(ASTContext &Ctx, CachingAnalysis &CA, const CacheLayout &Layout)
      : ASTCloner(Ctx), CA(CA), Layout(Layout) {}

  Expr *cloneExpr(Expr *E) override {
    int Slot = CA.slotOf(E);
    if (Slot < 0)
      return cloneExprStructure(E);
    // Frontier property: a cached term has no cached subterms, so the
    // structural clone below cannot produce nested stores.
    Expr *Inner = cloneExprStructure(E);
    return Ctx.create<CacheStoreExpr>(
        static_cast<unsigned>(Slot), Inner, E->loc(),
        Layout.slot(static_cast<unsigned>(Slot)).Offset);
  }

  Stmt *cloneStmt(Stmt *S) override {
    if (auto *Block = dyn_cast<BlockStmt>(S)) {
      std::vector<Stmt *> Body;
      for (Stmt *Child : Block->body()) {
        // Speculation: evaluate hoistable cached terms unconditionally
        // just before the dependent guard that protects their in-place
        // occurrence.
        for (Expr *Hoist : CA.hoistsBefore(Child)) {
          Expr *Store = cloneExpr(Hoist);
          Body.push_back(Ctx.create<ExprStmt>(Store, Hoist->loc()));
        }
        if (Stmt *Cloned = cloneStmt(Child))
          Body.push_back(Cloned);
      }
      return Ctx.create<BlockStmt>(std::move(Body), S->loc());
    }
    return ASTCloner::cloneStmt(S);
  }

private:
  CachingAnalysis &CA;
  const CacheLayout &Layout;
};

/// Clones only the dynamic projection of the fragment, replacing cached
/// terms by cache reads.
class ReaderCloner : public ASTCloner {
public:
  ReaderCloner(ASTContext &Ctx, CachingAnalysis &CA, const CacheLayout &Layout)
      : ASTCloner(Ctx), CA(CA), Layout(Layout) {}

  Expr *cloneExpr(Expr *E) override {
    if (CA.label(E) == CacheLabel::CL_Cached) {
      int Slot = CA.slotOf(E);
      assert(Slot >= 0 && "cached term without a slot");
      return Ctx.create<CacheReadExpr>(
          static_cast<unsigned>(Slot), E->type(), E->loc(),
          Layout.slot(static_cast<unsigned>(Slot)).Offset);
    }
    assert(CA.label(E) == CacheLabel::CL_Dynamic &&
           "reader reached a static expression");
    return cloneExprStructure(E);
  }

  Stmt *cloneStmt(Stmt *S) override {
    // Blocks have no label of their own; recurse and drop if empty.
    if (isa<BlockStmt>(S)) {
      Stmt *Cloned = ASTCloner::cloneStmt(S);
      if (auto *Block = dyn_cast_or_null<BlockStmt>(Cloned))
        if (Block->body().empty())
          return nullptr;
      return Cloned;
    }

    if (CA.label(S) == CacheLabel::CL_Dynamic)
      return ASTCloner::cloneStmt(S);

    // Static statement: normally dropped, but a declaration whose
    // variable the reader assigns must be re-emitted without its
    // initializer (the dynamic assignment dominates every reader use).
    if (auto *Decl = dyn_cast<DeclStmt>(S)) {
      if (CA.needsBareDecl(Decl)) {
        VarDecl *NewVar =
            Ctx.createVarDecl(Decl->var()->kind(), Decl->var()->name(),
                              Decl->var()->type(), Decl->var()->loc());
        mapDecl(Decl->var(), NewVar);
        return Ctx.create<DeclStmt>(NewVar, /*Init=*/nullptr, S->loc());
      }
    }
    return nullptr;
  }

private:
  CachingAnalysis &CA;
  const CacheLayout &Layout;
};

} // namespace

Function *Splitter::buildLoader(Function *F, const std::string &Name) {
  LoaderCloner Cloner(Ctx, CA, Layout);
  return Cloner.cloneFunction(F, Name);
}

Function *Splitter::buildReader(Function *F, const std::string &Name) {
  ReaderCloner Cloner(Ctx, CA, Layout);
  return Cloner.cloneFunction(F, Name);
}
