//===- frontend/Sema.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "frontend/Parser.h"
#include "support/Casting.h"

using namespace sldb;

std::string QualType::str() const {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Int:
    return "int";
  case TypeKind::Double:
    return "double";
  case TypeKind::Ptr:
    return (Pointee == TypeKind::Int ? std::string("int*")
                                     : std::string("double*"));
  }
  sldb_unreachable("bad type kind");
}

FrontendResult sldb::runFrontend(std::string_view Source,
                                 DiagnosticEngine &Diags) {
  FrontendResult Result;
  Result.TU = Parser::parseSource(Source, Diags);
  if (!Result.TU)
    return Result;
  Sema S(*Result.TU, Diags);
  Result.Info = S.run();
  if (!Result.Info)
    Result.TU.reset();
  return Result;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

void Sema::pushScope() {
  Scopes.push_back({static_cast<std::uint32_t>(Shadowed.size()),
                    static_cast<std::uint32_t>(Visible.size())});
}

void Sema::popScope() {
  const ScopeMark Mark = Scopes.back();
  Scopes.pop_back();
  while (Shadowed.size() > Mark.Shadowed) {
    Bindings[Shadowed.back().first] = Shadowed.back().second;
    Shadowed.pop_back();
  }
  Visible.resize(Mark.Visible);
}

VarId Sema::declareVar(VarDecl &Decl, StorageKind Storage) {
  Binding &B = Bindings[Decl.Name];
  const auto Depth = static_cast<std::uint32_t>(Scopes.size());
  if (B.Var != InvalidVar && B.Depth == Depth) {
    error(Decl.Loc, "redefinition of " + quote(Decl.Name));
    return InvalidVar;
  }
  VarInfo Info;
  Info.Name = TU.spelling(Decl.Name);
  Info.Ty = Decl.Ty;
  Info.ArraySize = Decl.ArraySize;
  Info.Storage = Storage;
  Info.Owner = CurFunc;
  Info.Loc = Decl.Loc;
  VarId Id = this->Info->addVar(std::move(Info));
  Shadowed.emplace_back(Decl.Name, B);
  B = {Id, Depth};
  Decl.Var = Id;
  if (Storage == StorageKind::Global) {
    this->Info->Globals.push_back(Id);
  } else {
    this->Info->func(CurFunc).Locals.push_back(Id);
    Visible.push_back(Id);
  }
  return Id;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::unique_ptr<ProgramInfo> Sema::run() {
  Info = std::make_unique<ProgramInfo>();
  Bindings.assign(TU.Symbols.size(), Binding());
  FuncOf.assign(TU.Symbols.size(), InvalidFunc);
  pushScope(); // Global scope.

  for (VarDecl &G : TU.Globals) {
    if (G.Init && !isa<IntLiteralExpr>(G.Init) &&
        !isa<DoubleLiteralExpr>(G.Init)) {
      error(G.Loc, "global initializers must be literals");
      continue;
    }
    declareVar(G, StorageKind::Global);
  }

  // Register all functions first so forward calls resolve.
  for (FuncDecl *FD : TU.Functions) {
    if (FuncOf[FD->Name] != InvalidFunc) {
      error(FD->Loc, "redefinition of function " + quote(FD->Name));
      continue;
    }
    FuncInfo FI;
    FI.Name = TU.spelling(FD->Name);
    FI.RetTy = FD->RetTy;
    FI.Loc = FD->Loc;
    Info->Funcs.push_back(std::move(FI));
    FD->Func = static_cast<FuncId>(Info->Funcs.size() - 1);
    FuncOf[FD->Name] = FD->Func;
  }

  for (FuncDecl *FD : TU.Functions)
    if (FD->Func != InvalidFunc)
      checkFunction(*FD);

  popScope();
  if (Diags.hasErrors())
    return nullptr;
  return std::move(Info);
}

void Sema::checkFunction(FuncDecl &FD) {
  CurFunc = FD.Func;
  CurRetTy = FD.RetTy;
  pushScope();
  for (VarDecl &P : FD.Params) {
    if (P.ArraySize != 0) {
      error(P.Loc, "array parameters are not supported; use a pointer");
      continue;
    }
    VarId Id = declareVar(P, StorageKind::Param);
    if (Id != InvalidVar)
      Info->func(CurFunc).Params.push_back(Id);
  }
  // The body's CompoundStmt shares the parameter scope (C semantics are
  // close enough for MiniC: no shadowing of params at the top level).
  for (Stmt *S : FD.Body->Body)
    checkStmt(S);
  popScope();
  CurFunc = InvalidFunc;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtId Sema::newStmt(SourceLoc Loc) {
  FuncInfo &FI = Info->func(CurFunc);
  StmtInfo SI;
  SI.Loc = Loc;
  SI.ScopeVars = Visible;
  FI.Stmts.push_back(std::move(SI));
  return static_cast<StmtId>(FI.Stmts.size() - 1);
}

void Sema::checkStmt(Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::Decl: {
    auto *DS = cast<DeclStmt>(S);
    declareVar(DS->Decl, StorageKind::Local);
    S->Id = newStmt(S->getLoc());
    if (DS->Decl.Init) {
      if (DS->Decl.ArraySize != 0) {
        error(DS->Decl.Loc, "array initializers are not supported");
        return;
      }
      checkExpr(DS->Decl.Init);
      coerce(DS->Decl.Init, DS->Decl.Ty, "in initializer");
    }
    return;
  }
  case Stmt::Kind::Expr: {
    S->Id = newStmt(S->getLoc());
    checkExpr(cast<ExprStmt>(S)->E);
    return;
  }
  case Stmt::Kind::Compound: {
    pushScope();
    for (Stmt *Child : cast<CompoundStmt>(S)->Body)
      checkStmt(Child);
    popScope();
    return;
  }
  case Stmt::Kind::If: {
    auto *IS = cast<IfStmt>(S);
    S->Id = newStmt(S->getLoc());
    QualType CondTy = checkExpr(IS->Cond);
    if (!CondTy.isInt() && !CondTy.isVoid())
      error(IS->Cond->getLoc(), "condition must have int type");
    checkStmt(IS->Then);
    if (IS->Else)
      checkStmt(IS->Else);
    return;
  }
  case Stmt::Kind::While: {
    auto *WS = cast<WhileStmt>(S);
    S->Id = newStmt(S->getLoc());
    QualType CondTy = checkExpr(WS->Cond);
    if (!CondTy.isInt() && !CondTy.isVoid())
      error(WS->Cond->getLoc(), "condition must have int type");
    ++LoopDepth;
    checkStmt(WS->Body);
    --LoopDepth;
    return;
  }
  case Stmt::Kind::Do: {
    auto *DS = cast<DoStmt>(S);
    S->Id = newStmt(S->getLoc());
    ++LoopDepth;
    checkStmt(DS->Body);
    --LoopDepth;
    QualType CondTy = checkExpr(DS->Cond);
    if (!CondTy.isInt() && !CondTy.isVoid())
      error(DS->Cond->getLoc(), "condition must have int type");
    return;
  }
  case Stmt::Kind::For: {
    auto *FS = cast<ForStmt>(S);
    pushScope(); // for-init declarations scope to the loop.
    if (FS->Init)
      checkStmt(FS->Init);
    S->Id = newStmt(S->getLoc());
    if (FS->Cond) {
      QualType CondTy = checkExpr(FS->Cond);
      if (!CondTy.isInt() && !CondTy.isVoid())
        error(FS->Cond->getLoc(), "condition must have int type");
    }
    ++LoopDepth;
    checkStmt(FS->Body);
    --LoopDepth;
    if (FS->Inc) {
      FS->IncId = newStmt(FS->Inc->getLoc());
      checkExpr(FS->Inc);
    }
    popScope();
    return;
  }
  case Stmt::Kind::Return: {
    auto *RS = cast<ReturnStmt>(S);
    S->Id = newStmt(S->getLoc());
    if (RS->Value) {
      if (CurRetTy.isVoid()) {
        error(S->getLoc(), "void function cannot return a value");
        return;
      }
      checkExpr(RS->Value);
      coerce(RS->Value, CurRetTy, "in return");
    } else if (!CurRetTy.isVoid()) {
      error(S->getLoc(), "non-void function must return a value");
    }
    return;
  }
  case Stmt::Kind::Break:
    S->Id = newStmt(S->getLoc());
    if (LoopDepth == 0)
      error(S->getLoc(), "'break' outside of a loop");
    return;
  case Stmt::Kind::Continue:
    S->Id = newStmt(S->getLoc());
    if (LoopDepth == 0)
      error(S->getLoc(), "'continue' outside of a loop");
    return;
  case Stmt::Kind::Empty:
    return;
  }
  sldb_unreachable("bad statement kind");
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

void Sema::coerce(Expr *&E, QualType To, const char *Context) {
  if (!E || E->Ty == To || E->Ty.isVoid())
    return;
  if ((E->Ty.isInt() && To.isDouble()) || (E->Ty.isDouble() && To.isInt())) {
    E = TU.make<CastExpr>(E->getLoc(), To, E);
    return;
  }
  error(E->getLoc(), "cannot convert " + E->Ty.str() + " to " + To.str() +
                         " " + Context);
}

bool Sema::isLValue(const Expr *E) const {
  if (const auto *VR = dyn_cast<VarRefExpr>(E))
    return !VR->IsArray;
  return isa<UnaryExpr>(E)
             ? cast<UnaryExpr>(E)->Op == UnaryOp::Deref
             : isa<IndexExpr>(E);
}

QualType Sema::checkExpr(Expr *&E) {
  if (!E)
    return QualType::voidTy();
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    E->Ty = QualType::intTy();
    return E->Ty;
  case Expr::Kind::DoubleLiteral:
    E->Ty = QualType::doubleTy();
    return E->Ty;
  case Expr::Kind::VarRef: {
    auto *VR = cast<VarRefExpr>(E);
    VarId Id = lookupVar(VR->Name);
    if (Id == InvalidVar) {
      error(VR->getLoc(), "use of undeclared identifier " + quote(VR->Name));
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    VR->Var = Id;
    const VarInfo &VI = Info->var(Id);
    if (VI.ArraySize != 0) {
      VR->IsArray = true;
      E->Ty = QualType::ptrTo(VI.Ty.Kind);
    } else {
      E->Ty = VI.Ty;
    }
    return E->Ty;
  }
  case Expr::Kind::Unary:
    return checkUnary(cast<UnaryExpr>(E));
  case Expr::Kind::Binary:
    return checkBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Assign:
    return checkAssign(cast<AssignExpr>(E));
  case Expr::Kind::Index:
    return checkIndex(cast<IndexExpr>(E));
  case Expr::Kind::Call:
    return checkCall(cast<CallExpr>(E));
  case Expr::Kind::Ternary: {
    auto *TE = cast<TernaryExpr>(E);
    QualType CondTy = checkExpr(TE->Cond);
    if (!CondTy.isInt() && !CondTy.isVoid())
      error(TE->Cond->getLoc(), "condition must have int type");
    QualType T1 = checkExpr(TE->Then);
    QualType T2 = checkExpr(TE->Else);
    if (T1.isArithmetic() && T2.isArithmetic() && T1 != T2) {
      coerce(TE->Then, QualType::doubleTy(), "in conditional");
      coerce(TE->Else, QualType::doubleTy(), "in conditional");
      E->Ty = QualType::doubleTy();
    } else if (T1 == T2) {
      E->Ty = T1;
    } else {
      error(TE->getLoc(), "incompatible branches of conditional");
      E->Ty = QualType::voidTy();
    }
    return E->Ty;
  }
  case Expr::Kind::Cast:
    // Only Sema creates casts; already typed.
    return E->Ty;
  }
  sldb_unreachable("bad expression kind");
}

QualType Sema::checkUnary(UnaryExpr *E) {
  QualType SubTy = checkExpr(E->Sub);
  switch (E->Op) {
  case UnaryOp::Neg:
    if (!SubTy.isArithmetic() && !SubTy.isVoid())
      error(E->getLoc(), "operand of unary '-' must be arithmetic");
    E->Ty = SubTy;
    return E->Ty;
  case UnaryOp::LogNot:
    if (!SubTy.isInt() && !SubTy.isVoid())
      error(E->getLoc(), "operand of '!' must have int type");
    E->Ty = QualType::intTy();
    return E->Ty;
  case UnaryOp::BitNot:
    if (!SubTy.isInt() && !SubTy.isVoid())
      error(E->getLoc(), "operand of '~' must have int type");
    E->Ty = QualType::intTy();
    return E->Ty;
  case UnaryOp::Deref:
    if (!SubTy.isPtr()) {
      if (!SubTy.isVoid())
        error(E->getLoc(), "cannot dereference non-pointer");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    E->Ty = QualType(SubTy.Pointee);
    return E->Ty;
  case UnaryOp::AddrOf: {
    if (auto *VR = dyn_cast<VarRefExpr>(E->Sub)) {
      if (VR->Var != InvalidVar && !VR->IsArray) {
        Info->var(VR->Var).AddressTaken = true;
        E->Ty = QualType::ptrTo(SubTy.Kind);
        return E->Ty;
      }
      if (VR->IsArray) {
        // &arr is just arr in MiniC's flat memory model.
        E->Ty = SubTy;
        return E->Ty;
      }
    }
    if (isa<IndexExpr>(E->Sub)) {
      E->Ty = QualType::ptrTo(SubTy.Kind);
      return E->Ty;
    }
    error(E->getLoc(), "cannot take the address of this expression");
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    if (!isLValue(E->Sub)) {
      error(E->getLoc(), "operand of ++/-- must be an lvalue");
    } else if (!SubTy.isInt() && !SubTy.isPtr() && !SubTy.isVoid()) {
      error(E->getLoc(), "operand of ++/-- must have int or pointer type");
    }
    E->Ty = SubTy;
    return E->Ty;
  }
  sldb_unreachable("bad unary op");
}

QualType Sema::checkBinary(BinaryExpr *E) {
  QualType L = checkExpr(E->LHS);
  QualType R = checkExpr(E->RHS);
  if (L.isVoid() || R.isVoid()) {
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  switch (E->Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
    // Pointer arithmetic: ptr +- int (word-scaled).
    if (L.isPtr() && R.isInt()) {
      E->Ty = L;
      return E->Ty;
    }
    if (E->Op == BinaryOp::Add && L.isInt() && R.isPtr()) {
      E->Ty = R;
      return E->Ty;
    }
    [[fallthrough]];
  case BinaryOp::Mul:
  case BinaryOp::Div: {
    if (!L.isArithmetic() || !R.isArithmetic()) {
      error(E->getLoc(), "invalid operands to arithmetic operator");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    if (L.isDouble() || R.isDouble()) {
      coerce(E->LHS, QualType::doubleTy(), "in arithmetic");
      coerce(E->RHS, QualType::doubleTy(), "in arithmetic");
      E->Ty = QualType::doubleTy();
    } else {
      E->Ty = QualType::intTy();
    }
    return E->Ty;
  }
  case BinaryOp::Rem:
  case BinaryOp::And:
  case BinaryOp::Or:
  case BinaryOp::Xor:
  case BinaryOp::Shl:
  case BinaryOp::Shr:
  case BinaryOp::LogAnd:
  case BinaryOp::LogOr:
    if (!L.isInt() || !R.isInt()) {
      error(E->getLoc(), "operands must have int type");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    E->Ty = QualType::intTy();
    return E->Ty;
  case BinaryOp::EQ:
  case BinaryOp::NE:
  case BinaryOp::LT:
  case BinaryOp::LE:
  case BinaryOp::GT:
  case BinaryOp::GE:
    if (L.isPtr() && R.isPtr()) {
      E->Ty = QualType::intTy();
      return E->Ty;
    }
    if (!L.isArithmetic() || !R.isArithmetic()) {
      error(E->getLoc(), "invalid operands to comparison");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    if (L.isDouble() || R.isDouble()) {
      coerce(E->LHS, QualType::doubleTy(), "in comparison");
      coerce(E->RHS, QualType::doubleTy(), "in comparison");
    }
    E->Ty = QualType::intTy();
    return E->Ty;
  }
  sldb_unreachable("bad binary op");
}

QualType Sema::checkAssign(AssignExpr *E) {
  QualType TargetTy = checkExpr(E->Target);
  QualType ValueTy = checkExpr(E->Value);
  if (!isLValue(E->Target)) {
    error(E->getLoc(), "left side of assignment is not an lvalue");
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  if (TargetTy.isVoid() || ValueTy.isVoid()) {
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  if (E->Op != AssignOp::Plain && TargetTy.isPtr()) {
    if ((E->Op != AssignOp::Add && E->Op != AssignOp::Sub) ||
        !ValueTy.isInt()) {
      error(E->getLoc(), "invalid compound assignment to pointer");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    E->Ty = TargetTy;
    return E->Ty;
  }
  if (E->Op == AssignOp::Rem &&
      (!TargetTy.isInt() || !ValueTy.isInt())) {
    error(E->getLoc(), "'%=' requires int operands");
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  coerce(E->Value, TargetTy, "in assignment");
  E->Ty = TargetTy;
  return E->Ty;
}

QualType Sema::checkIndex(IndexExpr *E) {
  QualType BaseTy = checkExpr(E->Base);
  QualType IdxTy = checkExpr(E->Index);
  if (!BaseTy.isPtr()) {
    if (!BaseTy.isVoid())
      error(E->getLoc(), "subscripted value is not an array or pointer");
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  if (!IdxTy.isInt() && !IdxTy.isVoid())
    error(E->getLoc(), "array index must have int type");
  E->Ty = QualType(BaseTy.Pointee);
  return E->Ty;
}

QualType Sema::checkCall(CallExpr *E) {
  // Builtins.
  if (E->Callee == SymbolTable::Print || E->Callee == SymbolTable::PrintDouble) {
    bool IsDouble = E->Callee == SymbolTable::PrintDouble;
    E->BuiltinKind = IsDouble ? Builtin::PrintDouble : Builtin::PrintInt;
    if (E->Args.size() != 1) {
      error(E->getLoc(), quote(E->Callee) + " takes exactly one argument");
      E->Ty = QualType::voidTy();
      return E->Ty;
    }
    checkExpr(E->Args[0]);
    coerce(E->Args[0],
           IsDouble ? QualType::doubleTy() : QualType::intTy(),
           "in print argument");
    E->Ty = QualType::voidTy();
    return E->Ty;
  }

  FuncId Callee = FuncOf[E->Callee];
  if (Callee == InvalidFunc) {
    error(E->getLoc(), "call to undeclared function " + quote(E->Callee));
    E->Ty = QualType::voidTy();
    return E->Ty;
  }
  E->Func = Callee;
  const FuncInfo &FI = Info->func(Callee);
  if (E->Args.size() != FI.Params.size()) {
    error(E->getLoc(), "wrong number of arguments to " + quote(E->Callee));
    E->Ty = FI.RetTy;
    return E->Ty;
  }
  for (std::size_t I = 0; I < E->Args.size(); ++I) {
    checkExpr(E->Args[I]);
    coerce(E->Args[I], Info->var(FI.Params[I]).Ty, "in call argument");
  }
  E->Ty = FI.RetTy;
  return E->Ty;
}
