//===- frontend/Ast.h - MiniC abstract syntax trees ------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node classes for MiniC, using LLVM-style kind discriminators and
/// classof() so isa<>/cast<>/dyn_cast<> work without compiler RTTI.
/// Semantic analysis decorates nodes in place (types, resolved variable
/// ids, statement ids).
///
/// Memory model: the parser bump-allocates every node and every child
/// list from the TranslationUnit's own arena.  Nodes are trivially
/// destructible (names are Symbols, children raw pointers, lists
/// NodeLists), so the whole tree is freed at once with its unit.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FRONTEND_AST_H
#define SLDB_FRONTEND_AST_H

#include "frontend/Token.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace sldb {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// Scalar type kinds of MiniC.
enum class TypeKind : std::uint8_t { Void, Int, Double, Ptr };

/// A MiniC type: a scalar kind, plus the pointee kind for pointers.
/// Arrays are a property of declarations (see VarDecl::ArraySize), and an
/// array-typed expression decays to Ptr.
struct QualType {
  TypeKind Kind = TypeKind::Void;
  TypeKind Pointee = TypeKind::Void; ///< Valid only when Kind == Ptr.

  QualType() = default;
  explicit QualType(TypeKind Kind) : Kind(Kind) {}
  QualType(TypeKind Kind, TypeKind Pointee) : Kind(Kind), Pointee(Pointee) {}

  static QualType intTy() { return QualType(TypeKind::Int); }
  static QualType doubleTy() { return QualType(TypeKind::Double); }
  static QualType voidTy() { return QualType(TypeKind::Void); }
  static QualType ptrTo(TypeKind Elem) {
    return QualType(TypeKind::Ptr, Elem);
  }

  bool isInt() const { return Kind == TypeKind::Int; }
  bool isDouble() const { return Kind == TypeKind::Double; }
  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isPtr() const { return Kind == TypeKind::Ptr; }
  bool isArithmetic() const { return isInt() || isDouble(); }

  bool operator==(const QualType &RHS) const {
    if (Kind != RHS.Kind)
      return false;
    return Kind != TypeKind::Ptr || Pointee == RHS.Pointee;
  }
  bool operator!=(const QualType &RHS) const { return !(*this == RHS); }

  /// Renders like "int", "double*", ...
  std::string str() const;
};

/// Dense identity of a resolved variable (assigned by Sema; see VarTable).
using VarId = std::uint32_t;
inline constexpr VarId InvalidVar = ~VarId(0);

/// Dense identity of a function.
using FuncId = std::uint32_t;
inline constexpr FuncId InvalidFunc = ~FuncId(0);

/// A child list allocated with its tree: a pointer and a count.
template <typename T> class NodeList {
public:
  NodeList() = default;
  NodeList(T *Data, std::uint32_t Size) : Data(Data), Size(Size) {}

  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  std::size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T &operator[](std::size_t I) const { return Data[I]; }

private:
  T *Data = nullptr;
  std::uint32_t Size = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all MiniC expressions.
class Expr {
public:
  enum class Kind : std::uint8_t {
    IntLiteral,
    DoubleLiteral,
    VarRef,
    Unary,
    Binary,
    Assign,
    Index,
    Call,
    Ternary,
    Cast
  };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  /// Result type, filled in by Sema.
  QualType Ty;

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// An integer literal.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, std::int64_t Value)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}

  std::int64_t Value;

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::IntLiteral;
  }
};

/// A floating-point literal.
class DoubleLiteralExpr : public Expr {
public:
  DoubleLiteralExpr(SourceLoc Loc, double Value)
      : Expr(Kind::DoubleLiteral, Loc), Value(Value) {}

  double Value;

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::DoubleLiteral;
  }
};

/// A reference to a named variable.  Sema resolves Var.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, Symbol Name) : Expr(Kind::VarRef, Loc), Name(Name) {}

  Symbol Name;
  VarId Var = InvalidVar;
  bool IsArray = false; ///< Declared as an array (decays to pointer).

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }
};

/// Unary operator kinds.
enum class UnaryOp : std::uint8_t {
  Neg,
  LogNot,
  BitNot,
  Deref,
  AddrOf,
  PreInc,
  PreDec,
  PostInc,
  PostDec
};

/// A unary expression.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Sub)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}

  UnaryOp Op;
  Expr *Sub;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }
};

/// Binary operator kinds (no assignment; see AssignExpr).
enum class BinaryOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  LogAnd,
  LogOr,
  EQ,
  NE,
  LT,
  LE,
  GT,
  GE
};

/// A binary expression.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp Op;
  Expr *LHS, *RHS;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }
};

/// Assignment operator kinds; compound forms expand during IR generation.
enum class AssignOp : std::uint8_t { Plain, Add, Sub, Mul, Div, Rem };

/// An assignment `lhs op= rhs`; the LHS must be an lvalue (variable,
/// dereference, or index expression).
class AssignExpr : public Expr {
public:
  AssignExpr(SourceLoc Loc, AssignOp Op, Expr *Target, Expr *Value)
      : Expr(Kind::Assign, Loc), Op(Op), Target(Target), Value(Value) {}

  AssignOp Op;
  Expr *Target, *Value;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Assign; }
};

/// An array/pointer index `base[idx]`.
class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, Expr *Base, Expr *Index)
      : Expr(Kind::Index, Loc), Base(Base), Index(Index) {}

  Expr *Base, *Index;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Index; }
};

/// Builtin functions recognized by Sema.
enum class Builtin : std::uint8_t { None, PrintInt, PrintDouble };

/// A function call `f(args...)`.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, Symbol Callee, NodeList<Expr *> Args)
      : Expr(Kind::Call, Loc), Callee(Callee), Args(Args) {}

  Symbol Callee;
  NodeList<Expr *> Args;
  FuncId Func = InvalidFunc;        ///< Resolved by Sema (non-builtins).
  Builtin BuiltinKind = Builtin::None;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }
};

/// A conditional expression `cond ? then : else`.
class TernaryExpr : public Expr {
public:
  TernaryExpr(SourceLoc Loc, Expr *Cond, Expr *Then, Expr *Else)
      : Expr(Kind::Ternary, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *Cond, *Then, *Else;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Ternary; }
};

/// An implicit numeric conversion inserted by Sema (int <-> double).
class CastExpr : public Expr {
public:
  CastExpr(SourceLoc Loc, QualType To, Expr *Sub)
      : Expr(Kind::Cast, Loc), Sub(Sub) {
    Ty = To;
  }

  Expr *Sub;

  static bool classof(const Expr *E) { return E->getKind() == Kind::Cast; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Identity of a source statement (see support/SourceLoc.h); assigned by
/// Sema in source order, per function.  Every statement is a potential
/// breakpoint.

/// Base class of all MiniC statements.
class Stmt {
public:
  enum class Kind : std::uint8_t {
    Decl,
    Expr,
    Compound,
    If,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    Empty
  };

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  /// Breakpoint identity, assigned by Sema (InvalidStmt for compounds).
  StmtId Id = InvalidStmt;

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// A local or global variable declaration.
class VarDecl {
public:
  SourceLoc Loc;
  Symbol Name = InvalidSymbol;
  QualType Ty;
  std::uint32_t ArraySize = 0; ///< 0 = scalar; >0 = array of Ty elements.
  Expr *Init = nullptr;        ///< Optional initializer (scalars only).
  VarId Var = InvalidVar;      ///< Resolved by Sema.
};

/// A declaration statement (one variable per statement, as in cmcc's IR).
class DeclStmt : public Stmt {
public:
  DeclStmt(SourceLoc Loc, const VarDecl &Decl)
      : Stmt(Kind::Decl, Loc), Decl(Decl) {}

  VarDecl Decl;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Decl; }
};

/// An expression statement.
class ExprStmt : public Stmt {
public:
  ExprStmt(SourceLoc Loc, Expr *E) : Stmt(Kind::Expr, Loc), E(E) {}

  Expr *E;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Expr; }
};

/// A `{ ... }` block.
class CompoundStmt : public Stmt {
public:
  CompoundStmt(SourceLoc Loc, NodeList<Stmt *> Body)
      : Stmt(Kind::Compound, Loc), Body(Body) {}

  NodeList<Stmt *> Body;

  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::Compound;
  }
};

/// An if/else statement.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< May be null.

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }
};

/// A while loop.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  Expr *Cond;
  Stmt *Body;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }
};

/// A do/while loop.
class DoStmt : public Stmt {
public:
  DoStmt(SourceLoc Loc, Stmt *Body, Expr *Cond)
      : Stmt(Kind::Do, Loc), Body(Body), Cond(Cond) {}

  Stmt *Body;
  Expr *Cond;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Do; }
};

/// A for loop.  Init is a DeclStmt, ExprStmt or null; Cond/Inc may be null.
class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, Stmt *Init, Expr *Cond, Expr *Inc, Stmt *Body)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Inc(Inc), Body(Body) {}

  Stmt *Init;
  Expr *Cond;
  Expr *Inc;
  Stmt *Body;

  /// Breakpoint id for the increment part (assigned by Sema); the paper's
  /// statement granularity treats `i = i + 1` in a for header as its own
  /// source assignment.
  StmtId IncId = InvalidStmt;

  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }
};

/// A return statement.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, Expr *Value)
      : Stmt(Kind::Return, Loc), Value(Value) {}

  Expr *Value; ///< May be null for `return;`.

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }
};

/// A break statement.
class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

/// A continue statement.
class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::Continue;
  }
};

/// A lone `;`.
class EmptyStmt : public Stmt {
public:
  explicit EmptyStmt(SourceLoc Loc) : Stmt(Kind::Empty, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Empty; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A function definition.
class FuncDecl {
public:
  SourceLoc Loc;
  Symbol Name = InvalidSymbol;
  QualType RetTy;
  NodeList<VarDecl> Params;
  CompoundStmt *Body = nullptr;
  FuncId Func = InvalidFunc; ///< Resolved by Sema.
};

static_assert(std::is_trivially_destructible_v<VarDecl> &&
                  std::is_trivially_destructible_v<FuncDecl> &&
                  std::is_trivially_destructible_v<CallExpr> &&
                  std::is_trivially_destructible_v<ForStmt> &&
                  std::is_trivially_destructible_v<CompoundStmt>,
              "the arena never runs node destructors");

/// A whole parsed translation unit.  It owns the arena that holds every
/// node and child list of its tree, and the table of its identifiers.
class TranslationUnit {
public:
  /// \p SourceBytes sizes the arena's first slab.
  explicit TranslationUnit(std::size_t SourceBytes);
  TranslationUnit(const TranslationUnit &) = delete;
  TranslationUnit &operator=(const TranslationUnit &) = delete;

  /// Placement-constructs a node on the unit's arena.
  template <typename T, typename... Args> T *make(Args &&...ArgList) {
    return Nodes.make<T>(std::forward<Args>(ArgList)...);
  }

  /// Copies \p N items at \p Items into the arena as a child list.
  template <typename T> NodeList<T> list(const T *Items, std::size_t N) {
    if (N == 0)
      return {};
    T *Data = Nodes.allocate<T>(N);
    std::copy(Items, Items + N, Data);
    return NodeList<T>(Data, static_cast<std::uint32_t>(N));
  }

  /// Spelling of an identifier of this unit.
  std::string_view spelling(Symbol S) const { return Symbols.spelling(S); }

  NodeList<VarDecl> Globals;
  NodeList<FuncDecl *> Functions;
  SymbolTable Symbols;

private:
  Arena Nodes;
};

} // namespace sldb

#endif // SLDB_FRONTEND_AST_H
