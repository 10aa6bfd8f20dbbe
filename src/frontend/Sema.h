//===- frontend/Sema.h - MiniC semantic analysis ---------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MiniC: name resolution, type checking with
/// implicit int<->double conversions, statement-id assignment, and scope
/// snapshots per statement (the debugger's "variables in scope at each
/// breakpoint", paper Table 2).  Names resolve through tables indexed
/// by Symbol, never by string.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FRONTEND_SEMA_H
#define SLDB_FRONTEND_SEMA_H

#include "frontend/Ast.h"
#include "frontend/Symbols.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sldb {

/// Runs semantic analysis over a parsed TranslationUnit, decorating the
/// AST in place and producing the ProgramInfo symbol tables.
class Sema {
public:
  Sema(TranslationUnit &TU, DiagnosticEngine &Diags)
      : TU(TU), Diags(Diags) {}

  /// Analyzes the unit.  Returns the symbol tables, or null on error.
  std::unique_ptr<ProgramInfo> run();

private:
  // Scope management.
  void pushScope();
  void popScope();
  VarId declareVar(VarDecl &Decl, StorageKind Storage);
  VarId lookupVar(Symbol Name) const { return Bindings[Name].Var; }
  /// \p S's spelling in single quotes, for diagnostics.
  std::string quote(Symbol S) const {
    std::string Q(1, '\'');
    Q.append(TU.spelling(S));
    Q += '\'';
    return Q;
  }

  // Statements.
  void checkFunction(FuncDecl &FD);
  void checkStmt(Stmt *S);
  StmtId newStmt(SourceLoc Loc);

  // Expressions.  Each returns the expression type (and may wrap children
  // in CastExpr); Void on error.
  QualType checkExpr(Expr *&E);
  QualType checkAssign(AssignExpr *E);
  QualType checkUnary(UnaryExpr *E);
  QualType checkBinary(BinaryExpr *E);
  QualType checkCall(CallExpr *E);
  QualType checkIndex(IndexExpr *E);

  /// Inserts a cast so \p E has type \p To; errors if impossible.
  void coerce(Expr *&E, QualType To, const char *Context);
  bool isLValue(const Expr *E) const;

  void error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
  }

  TranslationUnit &TU;
  DiagnosticEngine &Diags;
  std::unique_ptr<ProgramInfo> Info;

  /// The innermost variable a symbol names, and the depth of the scope
  /// that declared it.
  struct Binding {
    VarId Var = InvalidVar;
    std::uint32_t Depth = 0;
  };
  /// Indexed by Symbol: each symbol's innermost binding.  The bindings a
  /// declaration shadows wait on Shadowed until its scope closes.
  std::vector<Binding> Bindings;
  std::vector<std::pair<Symbol, Binding>> Shadowed;
  /// Indexed by Symbol: the function it names, or InvalidFunc.
  std::vector<FuncId> FuncOf;
  /// Visible locals and parameters, innermost last.  Declarations take
  /// increasing VarIds and scopes close innermost first, so the stack is
  /// in VarId order and each statement's scope snapshot is a copy.
  std::vector<VarId> Visible;
  /// Per open scope: the sizes of Shadowed and Visible when it opened.
  struct ScopeMark {
    std::uint32_t Shadowed;
    std::uint32_t Visible;
  };
  std::vector<ScopeMark> Scopes;

  FuncId CurFunc = InvalidFunc;
  QualType CurRetTy;
  unsigned LoopDepth = 0;
};

/// Convenience driver: parse + analyze \p Source.  On success returns the
/// decorated unit and its symbol tables.
struct FrontendResult {
  std::unique_ptr<TranslationUnit> TU;
  std::unique_ptr<ProgramInfo> Info;
};
FrontendResult runFrontend(std::string_view Source, DiagnosticEngine &Diags);

} // namespace sldb

#endif // SLDB_FRONTEND_SEMA_H
