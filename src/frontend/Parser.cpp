//===- frontend/Parser.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Casting.h"

#include <algorithm>
#include <limits>

using namespace sldb;

/// First arena slab for a unit of \p SourceBytes: MiniC trees take six
/// to nine bytes of nodes and lists per source byte, so most units fit in
/// one slab.
static std::size_t firstSlabBytes(std::size_t SourceBytes) {
  return std::clamp<std::size_t>(SourceBytes * 10, 4096, std::size_t(1) << 20);
}

TranslationUnit::TranslationUnit(std::size_t SourceBytes)
    : Nodes(firstSlabBytes(SourceBytes)) {}

std::unique_ptr<TranslationUnit>
Parser::parseSource(std::string_view Source, DiagnosticEngine &Diags) {
  auto TU = std::make_unique<TranslationUnit>(Source.size());
  Lexer Lex(Source, Diags, TU->Symbols);
  // With errors already reported, only the lexer's are added.
  if (Diags.hasErrors()) {
    Lex.drain();
    return nullptr;
  }
  Parser P(Lex, *TU, Diags);
  if (!P.parse())
    return nullptr;
  return TU;
}

bool Parser::expected(TokKind K, const char *Context) {
  errorAtCur(std::string("expected ") + tokKindName(K) + " " + Context +
             ", found " + tokKindName(cur().Kind));
  return false;
}

void Parser::errorAtCur(const std::string &Message) {
  if (HadError)
    return;
  HadError = true;
  // Only the first error is reported, and only if the rest of the
  // buffer lexes cleanly.
  Lex.drain();
  if (!Lex.hadError())
    Diags.error(cur().Loc, Message);
}

bool Parser::reportDepthLimit() {
  errorAtCur("nesting too deep (parser recursion limit " +
             std::to_string(MaxRecursionDepth) + " exceeded)");
  return true;
}

bool Parser::atTypeStart() const {
  return at(TokKind::KwInt) || at(TokKind::KwDouble) || at(TokKind::KwVoid);
}

bool Parser::parseType(QualType &Ty) {
  TypeKind Base;
  if (accept(TokKind::KwInt)) {
    Base = TypeKind::Int;
  } else if (accept(TokKind::KwDouble)) {
    Base = TypeKind::Double;
  } else if (accept(TokKind::KwVoid)) {
    Base = TypeKind::Void;
  } else {
    errorAtCur("expected type name");
    return false;
  }
  if (accept(TokKind::Star)) {
    if (Base == TypeKind::Void) {
      errorAtCur("pointer to void is not supported");
      return false;
    }
    if (at(TokKind::Star)) {
      errorAtCur("multi-level pointers are not supported");
      return false;
    }
    Ty = QualType::ptrTo(Base);
    return true;
  }
  Ty = QualType(Base);
  return true;
}

bool Parser::parse() {
  while (!at(TokKind::Eof) && !HadError) {
    if (!parseGlobal())
      return false;
  }
  if (HadError || Lex.hadError())
    return false;
  TU.Globals = TU.list(Globals.data(), Globals.size());
  TU.Functions = TU.list(Functions.data(), Functions.size());
  return true;
}

bool Parser::parseGlobal() {
  SourceLoc Loc = cur().Loc;
  QualType Ty;
  if (!parseType(Ty))
    return false;
  if (!at(TokKind::Identifier)) {
    errorAtCur("expected identifier after type");
    return false;
  }
  Symbol Name = consume().Sym;

  if (at(TokKind::LParen)) {
    FuncDecl *FD = parseFunction(Ty, Name, Loc);
    if (!FD)
      return false;
    Functions.push_back(FD);
    return true;
  }

  // Global variable.
  VarDecl Decl;
  Decl.Loc = Loc;
  Decl.Name = Name;
  Decl.Ty = Ty;
  if (accept(TokKind::LBracket)) {
    if (!parseArraySize(Decl))
      return false;
  } else if (accept(TokKind::Assign)) {
    Decl.Init = parsePrimary();
    if (!Decl.Init)
      return false;
  }
  if (!expect(TokKind::Semicolon, "after global declaration"))
    return false;
  Globals.push_back(Decl);
  return true;
}

FuncDecl *Parser::parseFunction(QualType RetTy, Symbol Name, SourceLoc Loc) {
  FuncDecl *FD = TU.make<FuncDecl>();
  FD->Loc = Loc;
  FD->Name = Name;
  FD->RetTy = RetTy;
  expect(TokKind::LParen, "after function name");
  Params.clear();
  if (!accept(TokKind::RParen)) {
    do {
      SourceLoc PLoc = cur().Loc;
      QualType PTy;
      if (!parseType(PTy))
        return nullptr;
      if (PTy.isVoid() && Params.empty() && at(TokKind::RParen)) {
        // `f(void)` style empty parameter list.
        break;
      }
      if (!at(TokKind::Identifier)) {
        errorAtCur("expected parameter name");
        return nullptr;
      }
      VarDecl P;
      P.Loc = PLoc;
      P.Ty = PTy;
      P.Name = consume().Sym;
      Params.push_back(P);
    } while (accept(TokKind::Comma));
    if (!expect(TokKind::RParen, "after parameter list"))
      return nullptr;
  }
  FD->Params = TU.list(Params.data(), Params.size());
  if (!at(TokKind::LBrace)) {
    errorAtCur("expected function body");
    return nullptr;
  }
  FD->Body = parseCompound();
  if (!FD->Body)
    return nullptr;
  return FD;
}

bool Parser::parseVarDecl(QualType BaseTy, VarDecl &Decl) {
  Decl.Loc = cur().Loc;
  Decl.Ty = BaseTy;
  if (!at(TokKind::Identifier)) {
    errorAtCur("expected variable name");
    return false;
  }
  Decl.Name = consume().Sym;
  if (accept(TokKind::LBracket))
    return parseArraySize(Decl);
  if (accept(TokKind::Assign)) {
    Decl.Init = parseAssignment();
    return Decl.Init != nullptr;
  }
  return true;
}

bool Parser::parseArraySize(VarDecl &Decl) {
  if (!at(TokKind::IntLiteral)) {
    errorAtCur("expected constant array size");
    return false;
  }
  // ArraySize 0 means a scalar, so an array needs at least one element.
  constexpr std::int64_t MaxSize = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t N = cur().IntVal;
  if (N < 1 || N > MaxSize) {
    errorAtCur(N < 1 ? std::string("array size must be at least 1")
                     : "array size " + std::to_string(N) +
                           " is too large (the largest is " +
                           std::to_string(MaxSize) + ")");
    return false;
  }
  consume();
  Decl.ArraySize = static_cast<std::uint32_t>(N);
  return expect(TokKind::RBracket, "after array size");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Stmt *Parser::parseStmt() {
  DepthScope Scope(*this);
  if (atDepthLimit())
    return nullptr;
  switch (cur().Kind) {
  case TokKind::LBrace:
    return parseCompound();
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwDo:
    return parseDo();
  case TokKind::KwFor:
    return parseFor();
  case TokKind::KwReturn: {
    SourceLoc Loc = consume().Loc;
    Expr *Value = nullptr;
    if (!at(TokKind::Semicolon)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokKind::Semicolon, "after return"))
      return nullptr;
    return TU.make<ReturnStmt>(Loc, Value);
  }
  case TokKind::KwBreak: {
    SourceLoc Loc = consume().Loc;
    if (!expect(TokKind::Semicolon, "after break"))
      return nullptr;
    return TU.make<BreakStmt>(Loc);
  }
  case TokKind::KwContinue: {
    SourceLoc Loc = consume().Loc;
    if (!expect(TokKind::Semicolon, "after continue"))
      return nullptr;
    return TU.make<ContinueStmt>(Loc);
  }
  case TokKind::Semicolon: {
    SourceLoc Loc = consume().Loc;
    return TU.make<EmptyStmt>(Loc);
  }
  default:
    if (atTypeStart())
      return parseDeclStmt();
    SourceLoc Loc = cur().Loc;
    Expr *E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokKind::Semicolon, "after expression"))
      return nullptr;
    return TU.make<ExprStmt>(Loc, E);
  }
}

CompoundStmt *Parser::parseCompound() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::LBrace, "to open block");
  const std::size_t Mark = StmtStack.size();
  while (!at(TokKind::RBrace) && !at(TokKind::Eof) && !HadError) {
    Stmt *S = parseStmt();
    if (!S)
      return nullptr;
    StmtStack.push_back(S);
  }
  if (!expect(TokKind::RBrace, "to close block"))
    return nullptr;
  return TU.make<CompoundStmt>(Loc, popList(StmtStack, Mark));
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = consume().Loc; // 'if'
  if (!expect(TokKind::LParen, "after 'if'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokKind::RParen, "after if condition"))
    return nullptr;
  Stmt *Then = parseStmt();
  if (!Then)
    return nullptr;
  Stmt *Else = nullptr;
  if (accept(TokKind::KwElse)) {
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return TU.make<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = consume().Loc; // 'while'
  if (!expect(TokKind::LParen, "after 'while'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokKind::RParen, "after while condition"))
    return nullptr;
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return TU.make<WhileStmt>(Loc, Cond, Body);
}

Stmt *Parser::parseDo() {
  SourceLoc Loc = consume().Loc; // 'do'
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  if (!expect(TokKind::KwWhile, "after do body") ||
      !expect(TokKind::LParen, "after 'while'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokKind::RParen, "after do-while condition") ||
      !expect(TokKind::Semicolon, "after do-while"))
    return nullptr;
  return TU.make<DoStmt>(Loc, Body, Cond);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = consume().Loc; // 'for'
  if (!expect(TokKind::LParen, "after 'for'"))
    return nullptr;

  Stmt *Init = nullptr;
  if (accept(TokKind::Semicolon)) {
    // No init.
  } else if (atTypeStart()) {
    Init = parseDeclStmt();
    if (!Init)
      return nullptr;
  } else {
    SourceLoc ILoc = cur().Loc;
    Expr *E = parseExpr();
    if (!E || !expect(TokKind::Semicolon, "after for-init"))
      return nullptr;
    Init = TU.make<ExprStmt>(ILoc, E);
  }

  Expr *Cond = nullptr;
  if (!at(TokKind::Semicolon)) {
    Cond = parseExpr();
    if (!Cond)
      return nullptr;
  }
  if (!expect(TokKind::Semicolon, "after for-condition"))
    return nullptr;

  Expr *Inc = nullptr;
  if (!at(TokKind::RParen)) {
    Inc = parseExpr();
    if (!Inc)
      return nullptr;
  }
  if (!expect(TokKind::RParen, "after for-increment"))
    return nullptr;

  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return TU.make<ForStmt>(Loc, Init, Cond, Inc, Body);
}

Stmt *Parser::parseDeclStmt() {
  SourceLoc Loc = cur().Loc;
  QualType Ty;
  if (!parseType(Ty))
    return nullptr;
  if (Ty.isVoid()) {
    errorAtCur("variables cannot have void type");
    return nullptr;
  }
  VarDecl Decl;
  if (!parseVarDecl(Ty, Decl))
    return nullptr;
  if (!expect(TokKind::Semicolon, "after declaration"))
    return nullptr;
  return TU.make<DeclStmt>(Loc, Decl);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpr() { return parseAssignment(); }

static bool isAssignTok(TokKind K) {
  switch (K) {
  case TokKind::Assign:
  case TokKind::PlusAssign:
  case TokKind::MinusAssign:
  case TokKind::StarAssign:
  case TokKind::SlashAssign:
  case TokKind::PercentAssign:
    return true;
  default:
    return false;
  }
}

static AssignOp assignOpFor(TokKind K) {
  switch (K) {
  case TokKind::Assign:
    return AssignOp::Plain;
  case TokKind::PlusAssign:
    return AssignOp::Add;
  case TokKind::MinusAssign:
    return AssignOp::Sub;
  case TokKind::StarAssign:
    return AssignOp::Mul;
  case TokKind::SlashAssign:
    return AssignOp::Div;
  case TokKind::PercentAssign:
    return AssignOp::Rem;
  default:
    sldb_unreachable("not an assignment token");
  }
}

Expr *Parser::parseAssignment() {
  Expr *LHS = parseTernary();
  if (!LHS)
    return nullptr;
  if (!isAssignTok(cur().Kind))
    return LHS;
  Token Op = consume();
  Expr *RHS = parseAssignment();
  if (!RHS)
    return nullptr;
  return TU.make<AssignExpr>(Op.Loc, assignOpFor(Op.Kind), LHS, RHS);
}

Expr *Parser::parseTernary() {
  Expr *Cond = parseBinary(0);
  if (!Cond)
    return nullptr;
  if (!at(TokKind::Question))
    return Cond;
  SourceLoc Loc = consume().Loc;
  Expr *Then = parseExpr();
  if (!Then || !expect(TokKind::Colon, "in conditional expression"))
    return nullptr;
  Expr *Else = parseTernary();
  if (!Else)
    return nullptr;
  return TU.make<TernaryExpr>(Loc, Cond, Then, Else);
}

namespace {
struct BinOpInfo {
  BinaryOp Op = BinaryOp::Add;
  int Prec = 0; ///< 0 = not a binary operator.
};

/// Binary operator and precedence of each token kind.
struct BinOpTable {
  BinOpInfo Info[static_cast<std::size_t>(TokKind::Unknown) + 1];
  constexpr BinOpTable() {
    set(TokKind::PipePipe, BinaryOp::LogOr, 1);
    set(TokKind::AmpAmp, BinaryOp::LogAnd, 2);
    set(TokKind::Pipe, BinaryOp::Or, 3);
    set(TokKind::Caret, BinaryOp::Xor, 4);
    set(TokKind::Amp, BinaryOp::And, 5);
    set(TokKind::EqEq, BinaryOp::EQ, 6);
    set(TokKind::BangEq, BinaryOp::NE, 6);
    set(TokKind::Less, BinaryOp::LT, 7);
    set(TokKind::LessEq, BinaryOp::LE, 7);
    set(TokKind::Greater, BinaryOp::GT, 7);
    set(TokKind::GreaterEq, BinaryOp::GE, 7);
    set(TokKind::Shl, BinaryOp::Shl, 8);
    set(TokKind::Shr, BinaryOp::Shr, 8);
    set(TokKind::Plus, BinaryOp::Add, 9);
    set(TokKind::Minus, BinaryOp::Sub, 9);
    set(TokKind::Star, BinaryOp::Mul, 10);
    set(TokKind::Slash, BinaryOp::Div, 10);
    set(TokKind::Percent, BinaryOp::Rem, 10);
  }
  constexpr void set(TokKind K, BinaryOp Op, int Prec) {
    Info[static_cast<std::size_t>(K)] = {Op, Prec};
  }
};
constexpr BinOpTable BinOps;
} // namespace

Expr *Parser::parseBinary(int MinPrec) {
  Expr *LHS = parseUnary();
  if (!LHS)
    return nullptr;
  for (;;) {
    const BinOpInfo &Info = BinOps.Info[static_cast<std::size_t>(cur().Kind)];
    if (Info.Prec == 0 || Info.Prec < MinPrec)
      return LHS;
    SourceLoc Loc = consume().Loc;
    Expr *RHS = parseBinary(Info.Prec + 1);
    if (!RHS)
      return nullptr;
    LHS = TU.make<BinaryExpr>(Loc, Info.Op, LHS, RHS);
  }
}

Expr *Parser::parseUnary() {
  DepthScope Scope(*this);
  if (atDepthLimit())
    return nullptr;
  SourceLoc Loc = cur().Loc;
  UnaryOp Op;
  switch (cur().Kind) {
  case TokKind::Minus:
    Op = UnaryOp::Neg;
    break;
  case TokKind::Bang:
    Op = UnaryOp::LogNot;
    break;
  case TokKind::Tilde:
    Op = UnaryOp::BitNot;
    break;
  case TokKind::Star:
    Op = UnaryOp::Deref;
    break;
  case TokKind::Amp:
    Op = UnaryOp::AddrOf;
    break;
  case TokKind::PlusPlus:
    Op = UnaryOp::PreInc;
    break;
  case TokKind::MinusMinus:
    Op = UnaryOp::PreDec;
    break;
  default:
    return parsePostfix();
  }
  consume();
  Expr *Sub = parseUnary();
  if (!Sub)
    return nullptr;
  return TU.make<UnaryExpr>(Loc, Op, Sub);
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  for (;;) {
    if (at(TokKind::LBracket)) {
      SourceLoc Loc = consume().Loc;
      Expr *Index = parseExpr();
      if (!Index || !expect(TokKind::RBracket, "after index"))
        return nullptr;
      E = TU.make<IndexExpr>(Loc, E, Index);
      continue;
    }
    if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
      Token Op = consume();
      UnaryOp K = Op.is(TokKind::PlusPlus) ? UnaryOp::PostInc
                                           : UnaryOp::PostDec;
      E = TU.make<UnaryExpr>(Op.Loc, K, E);
      continue;
    }
    return E;
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokKind::IntLiteral:
    return TU.make<IntLiteralExpr>(Loc, consume().IntVal);
  case TokKind::DoubleLiteral:
    return TU.make<DoubleLiteralExpr>(Loc, consume().DoubleVal);
  case TokKind::Identifier: {
    Symbol Name = consume().Sym;
    if (!at(TokKind::LParen))
      return TU.make<VarRefExpr>(Loc, Name);
    consume(); // '('
    const std::size_t Mark = ExprStack.size();
    if (!accept(TokKind::RParen)) {
      do {
        Expr *Arg = parseAssignment();
        if (!Arg)
          return nullptr;
        ExprStack.push_back(Arg);
      } while (accept(TokKind::Comma));
      if (!expect(TokKind::RParen, "after call arguments"))
        return nullptr;
    }
    return TU.make<CallExpr>(Loc, Name, popList(ExprStack, Mark));
  }
  case TokKind::LParen: {
    consume();
    Expr *E = parseExpr();
    if (!E || !expect(TokKind::RParen, "to close parenthesized expression"))
      return nullptr;
    return E;
  }
  default:
    errorAtCur(std::string("expected expression, found ") +
               tokKindName(cur().Kind));
    return nullptr;
  }
}
