//===- frontend/Parser.h - MiniC recursive-descent parser ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC producing the AST of Ast.h.  Errors
/// are reported to the DiagnosticEngine; parsing stops at the first error
/// (the tools treat any error as fatal for the file).  Every node and
/// child list is bump-allocated on the TranslationUnit's arena; the
/// parser's own stacks hold a list only while it is being parsed.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FRONTEND_PARSER_H
#define SLDB_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Lexer.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// Parses a token stream into a TranslationUnit, allocating the tree on
/// the unit's arena.
class Parser {
public:
  /// Pulls tokens from \p Lex, which must intern into \p TU's symbol
  /// table.
  Parser(Lexer &Lex, TranslationUnit &TU, DiagnosticEngine &Diags)
      : Lex(Lex), TU(TU), Diags(Diags), Tok(Lex.next()) {}

  /// Parses the whole unit into the TranslationUnit.  Returns false on
  /// error.  A lexical error anywhere in the buffer pre-empts every
  /// parse error: the unit is rejected with the lexer's diagnostics
  /// only.
  bool parse();

  /// Convenience: lex + parse a source buffer.  Returns null on error.
  static std::unique_ptr<TranslationUnit> parseSource(std::string_view Source,
                                                      DiagnosticEngine &Diags);

private:
  const Token &cur() const { return Tok; }
  Token consume() {
    Token T = Tok;
    Tok = Lex.next();
    return T;
  }
  bool at(TokKind K) const { return cur().is(K); }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    Tok = Lex.next();
    return true;
  }
  bool expect(TokKind K, const char *Context) {
    return accept(K) || expected(K, Context);
  }
  /// Reports a missing \p K; returns false.
  bool expected(TokKind K, const char *Context);
  void errorAtCur(const std::string &Message);

  bool atTypeStart() const;
  bool parseType(QualType &Ty);

  bool parseGlobal();
  FuncDecl *parseFunction(QualType RetTy, Symbol Name, SourceLoc Loc);
  bool parseVarDecl(QualType BaseTy, VarDecl &Decl);
  /// Parses `N]` after a declaration's `[` into \p Decl.ArraySize.
  bool parseArraySize(VarDecl &Decl);

  Stmt *parseStmt();
  CompoundStmt *parseCompound();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseDo();
  Stmt *parseFor();
  Stmt *parseDeclStmt();

  Expr *parseExpr();
  Expr *parseAssignment();
  Expr *parseTernary();
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  /// Moves the items pushed on \p Stack since \p Mark into a child list
  /// and pops them.  Nested lists share one stack.
  template <typename T>
  NodeList<T> popList(std::vector<T> &Stack, std::size_t Mark) {
    NodeList<T> L = TU.list(Stack.data() + Mark, Stack.size() - Mark);
    Stack.resize(Mark);
    return L;
  }

  /// Recursion-depth guard: adversarial input (thousands of nested
  /// parentheses or blocks) must yield a diagnostic through the
  /// DiagnosticEngine, not a native stack overflow.  parseStmt and
  /// parseUnary cover every recursive cycle of the grammar.
  static constexpr unsigned MaxRecursionDepth = 200;
  struct DepthScope {
    Parser &P;
    explicit DepthScope(Parser &P) : P(P) { ++P.Depth; }
    ~DepthScope() { --P.Depth; }
  };
  bool atDepthLimit() {
    return Depth > MaxRecursionDepth && reportDepthLimit();
  }
  bool reportDepthLimit();

  Lexer &Lex;
  TranslationUnit &TU;
  DiagnosticEngine &Diags;
  Token Tok; ///< The current token.
  unsigned Depth = 0;
  bool HadError = false;

  // Child lists under construction.
  std::vector<Stmt *> StmtStack;
  std::vector<Expr *> ExprStack;
  std::vector<VarDecl> Params;
  std::vector<VarDecl> Globals;
  std::vector<FuncDecl *> Functions;
};

} // namespace sldb

#endif // SLDB_FRONTEND_PARSER_H
