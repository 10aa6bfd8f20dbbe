//===- ir/IRGen.cpp -------------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRGen.h"

#include "support/Casting.h"

using namespace sldb;

namespace {

/// Per-function IR generation state.
class IRGen {
public:
  IRGen(IRModule &M, IRFunction &F, const ProgramInfo &Info)
      : M(M), F(F), Info(Info) {}

  void genFunction(const FuncDecl &FD);

  /// Non-empty when lowering hit an internal inconsistency (an AST shape
  /// Sema should have rejected).  The module must be discarded; the
  /// driver turns this into a diagnostic instead of asserting.
  std::string InternalErr;

private:
  void internalError(const char *Msg) {
    if (InternalErr.empty())
      InternalErr = Msg;
  }

  // Emission helpers.
  Instr &emit(Instr I) {
    I.Stmt = CurStmt;
    Cur->Insts.push_back(std::move(I));
    return Cur->Insts.back();
  }
  Instr &emitBinary(Opcode Op, IRType Ty, Value Dest, Value A, Value B) {
    Instr I;
    I.Op = Op;
    I.Ty = Ty;
    I.Dest = Dest;
    I.Ops = {A, B};
    return emit(std::move(I));
  }
  Instr &emitUnary(Opcode Op, IRType Ty, Value Dest, Value A) {
    Instr I;
    I.Op = Op;
    I.Ty = Ty;
    I.Dest = Dest;
    I.Ops = {A};
    return emit(std::move(I));
  }
  void emitBr(BasicBlock *Target) {
    if (Cur->hasTerm())
      return; // Unreachable fall-through (e.g. after return).
    Instr I;
    I.Op = Opcode::Br;
    I.Succs[0] = Target;
    emit(std::move(I));
  }
  void emitCondBr(Value Cond, BasicBlock *T, BasicBlock *E) {
    Instr I;
    I.Op = Opcode::CondBr;
    I.Ops = {Cond};
    I.Succs[0] = T;
    I.Succs[1] = E;
    emit(std::move(I));
  }
  void setBlock(BasicBlock *B) { Cur = B; }

  // Statements.
  void genStmt(const Stmt *S);
  void genCompound(const CompoundStmt *S);

  // Expressions.
  Value genExpr(const Expr *E);
  Value genAddr(const Expr *E);
  void genCond(const Expr *E, BasicBlock *TrueB, BasicBlock *FalseB);
  Value genShortCircuit(const BinaryExpr *E);
  Value genCall(const CallExpr *E);
  Value genAssign(const AssignExpr *E);
  Value genIncDec(const UnaryExpr *E);

  /// Assigns \p V to source variable \p Var as statement \p CurStmt.
  /// Retargets the just-emitted defining instruction when possible so
  /// source assignments stay single IR instructions (`x = y + z`), the
  /// unit the paper's hoisting/sinking/elimination bookkeeping tracks.
  void storeToVar(VarId Var, Value V);

  IRType varIRType(VarId Id) const {
    const VarInfo &VI = Info.var(Id);
    if (VI.ArraySize != 0)
      return IRType::Ptr;
    return irTypeFor(VI.Ty);
  }

  IRModule &M;
  IRFunction &F;
  const ProgramInfo &Info;
  BasicBlock *Cur = nullptr;
  StmtId CurStmt = InvalidStmt;

  struct LoopCtx {
    BasicBlock *BreakTarget;
    BasicBlock *ContinueTarget;
  };
  std::vector<LoopCtx> Loops;
};

} // namespace

void IRGen::storeToVar(VarId Var, Value V) {
  IRType Ty = varIRType(Var);
  Value Dest = Value::var(Var, Ty);
  // Retarget the defining instruction if V is a temp defined by the last
  // instruction in the current block.
  if (V.isTemp() && !Cur->Insts.empty()) {
    Instr &Last = Cur->Insts.back();
    if (Last.Dest.isTemp() && Last.Dest.Id == V.Id && !Last.isTerm() &&
        Last.Op != Opcode::AddrOf) {
      Last.Dest = Dest;
      Last.IsSourceAssign = true;
      Last.Stmt = CurStmt;
      return;
    }
  }
  Instr &I = emitUnary(Opcode::Copy, Ty, Dest, V);
  I.IsSourceAssign = true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void IRGen::genFunction(const FuncDecl &FD) {
  Cur = F.newBlock("entry");
  genCompound(FD.Body);
  // Fall-through return.
  if (!Cur->hasTerm()) {
    Instr I;
    I.Op = Opcode::Ret;
    if (F.RetTy != IRType::Void)
      I.Ops = {F.RetTy == IRType::Double ? Value::constDouble(0.0)
                                         : Value::constInt(0)};
    CurStmt = InvalidStmt;
    emit(std::move(I));
  }
  F.NumStmts = static_cast<std::uint32_t>(Info.func(F.Id).Stmts.size());
  // Give any unterminated unreachable continuation blocks a terminator,
  // then drop everything unreachable from the entry.
  for (auto &B : F.Blocks)
    if (!B->hasTerm()) {
      Instr I;
      I.Op = Opcode::Ret;
      if (F.RetTy != IRType::Void)
        I.Ops = {F.RetTy == IRType::Double ? Value::constDouble(0.0)
                                           : Value::constInt(0)};
      B->Insts.push_back(std::move(I));
    }
  F.removeUnreachable();
  F.recomputePreds();
}

void IRGen::genCompound(const CompoundStmt *S) {
  for (const Stmt *Child : S->Body)
    genStmt(Child);
}

void IRGen::genStmt(const Stmt *S) {
  CurStmt = S->Id;
  switch (S->getKind()) {
  case Stmt::Kind::Decl: {
    const auto *DS = cast<DeclStmt>(S);
    if (DS->Decl.Init) {
      Value V = genExpr(DS->Decl.Init);
      storeToVar(DS->Decl.Var, V);
    }
    return;
  }
  case Stmt::Kind::Expr:
    genExpr(cast<ExprStmt>(S)->E);
    return;
  case Stmt::Kind::Compound:
    genCompound(cast<CompoundStmt>(S));
    return;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    BasicBlock *ThenB = F.newBlock("then");
    BasicBlock *JoinB = F.newBlock("endif");
    BasicBlock *ElseB = IS->Else ? F.newBlock("else") : JoinB;
    genCond(IS->Cond, ThenB, ElseB);
    setBlock(ThenB);
    genStmt(IS->Then);
    // Structural glue branches carry the control statement's id, not the
    // last inner statement's: a statement's breakpoint address must never
    // land on a lower-addressed join jump that executes after its code.
    CurStmt = S->Id;
    emitBr(JoinB);
    if (IS->Else) {
      setBlock(ElseB);
      genStmt(IS->Else);
      CurStmt = S->Id;
      emitBr(JoinB);
    }
    setBlock(JoinB);
    return;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    BasicBlock *CondB = F.newBlock("while.cond");
    BasicBlock *BodyB = F.newBlock("while.body");
    BasicBlock *ExitB = F.newBlock("while.end");
    emitBr(CondB);
    setBlock(CondB);
    CurStmt = S->Id;
    genCond(WS->Cond, BodyB, ExitB);
    Loops.push_back({ExitB, CondB});
    setBlock(BodyB);
    genStmt(WS->Body);
    CurStmt = S->Id; // Back edge belongs to the loop statement.
    emitBr(CondB);
    Loops.pop_back();
    setBlock(ExitB);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *DS = cast<DoStmt>(S);
    BasicBlock *BodyB = F.newBlock("do.body");
    BasicBlock *CondB = F.newBlock("do.cond");
    BasicBlock *ExitB = F.newBlock("do.end");
    emitBr(BodyB);
    Loops.push_back({ExitB, CondB});
    setBlock(BodyB);
    genStmt(DS->Body);
    CurStmt = S->Id;
    emitBr(CondB);
    Loops.pop_back();
    setBlock(CondB);
    CurStmt = S->Id;
    genCond(DS->Cond, BodyB, ExitB);
    setBlock(ExitB);
    return;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->Init)
      genStmt(FS->Init);
    CurStmt = S->Id;
    BasicBlock *CondB = F.newBlock("for.cond");
    BasicBlock *BodyB = F.newBlock("for.body");
    BasicBlock *IncB = F.newBlock("for.inc");
    BasicBlock *ExitB = F.newBlock("for.end");
    emitBr(CondB);
    setBlock(CondB);
    CurStmt = S->Id;
    if (FS->Cond)
      genCond(FS->Cond, BodyB, ExitB);
    else
      emitBr(BodyB);
    Loops.push_back({ExitB, IncB});
    setBlock(BodyB);
    genStmt(FS->Body);
    CurStmt = FS->IncId != InvalidStmt ? FS->IncId : S->Id;
    emitBr(IncB);
    Loops.pop_back();
    setBlock(IncB);
    CurStmt = FS->IncId;
    if (FS->Inc)
      genExpr(FS->Inc);
    emitBr(CondB);
    setBlock(ExitB);
    return;
  }
  case Stmt::Kind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    Instr I;
    I.Op = Opcode::Ret;
    if (RS->Value)
      I.Ops = {genExpr(RS->Value)};
    emit(std::move(I));
    // Code after a return in the same block is unreachable; give it a
    // fresh block so the CFG stays well-formed.
    setBlock(F.newBlock("dead"));
    return;
  }
  case Stmt::Kind::Break: {
    BasicBlock *Dead = F.newBlock("dead");
    if (Loops.empty())
      internalError("break outside loop survived Sema");
    emitBr(Loops.empty() ? Dead : Loops.back().BreakTarget);
    setBlock(Dead);
    return;
  }
  case Stmt::Kind::Continue: {
    BasicBlock *Dead = F.newBlock("dead");
    if (Loops.empty())
      internalError("continue outside loop survived Sema");
    emitBr(Loops.empty() ? Dead : Loops.back().ContinueTarget);
    setBlock(Dead);
    return;
  }
  case Stmt::Kind::Empty:
    return;
  }
  sldb_unreachable("bad statement kind");
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

static Opcode opcodeForBinary(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return Opcode::Add;
  case BinaryOp::Sub:
    return Opcode::Sub;
  case BinaryOp::Mul:
    return Opcode::Mul;
  case BinaryOp::Div:
    return Opcode::Div;
  case BinaryOp::Rem:
    return Opcode::Rem;
  case BinaryOp::And:
    return Opcode::And;
  case BinaryOp::Or:
    return Opcode::Or;
  case BinaryOp::Xor:
    return Opcode::Xor;
  case BinaryOp::Shl:
    return Opcode::Shl;
  case BinaryOp::Shr:
    return Opcode::Shr;
  case BinaryOp::EQ:
    return Opcode::CmpEQ;
  case BinaryOp::NE:
    return Opcode::CmpNE;
  case BinaryOp::LT:
    return Opcode::CmpLT;
  case BinaryOp::LE:
    return Opcode::CmpLE;
  case BinaryOp::GT:
    return Opcode::CmpGT;
  case BinaryOp::GE:
    return Opcode::CmpGE;
  case BinaryOp::LogAnd:
  case BinaryOp::LogOr:
    break;
  }
  sldb_unreachable("not a simple binary op");
}

static Opcode opcodeForAssign(AssignOp Op) {
  switch (Op) {
  case AssignOp::Add:
    return Opcode::Add;
  case AssignOp::Sub:
    return Opcode::Sub;
  case AssignOp::Mul:
    return Opcode::Mul;
  case AssignOp::Div:
    return Opcode::Div;
  case AssignOp::Rem:
    return Opcode::Rem;
  case AssignOp::Plain:
    break;
  }
  sldb_unreachable("plain assignment has no opcode");
}

void IRGen::genCond(const Expr *E, BasicBlock *TrueB, BasicBlock *FalseB) {
  if (const auto *BE = dyn_cast<BinaryExpr>(E)) {
    if (BE->Op == BinaryOp::LogAnd) {
      BasicBlock *Mid = F.newBlock("and.rhs");
      genCond(BE->LHS, Mid, FalseB);
      setBlock(Mid);
      genCond(BE->RHS, TrueB, FalseB);
      return;
    }
    if (BE->Op == BinaryOp::LogOr) {
      BasicBlock *Mid = F.newBlock("or.rhs");
      genCond(BE->LHS, TrueB, Mid);
      setBlock(Mid);
      genCond(BE->RHS, TrueB, FalseB);
      return;
    }
  }
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    if (UE->Op == UnaryOp::LogNot) {
      genCond(UE->Sub, FalseB, TrueB);
      return;
    }
  }
  Value V = genExpr(E);
  emitCondBr(V, TrueB, FalseB);
}

Value IRGen::genShortCircuit(const BinaryExpr *E) {
  // t = 0; if (cond) t = 1;
  Value T = F.newTemp(IRType::Int);
  emitUnary(Opcode::Copy, IRType::Int, T, Value::constInt(0));
  BasicBlock *SetB = F.newBlock("sc.true");
  BasicBlock *JoinB = F.newBlock("sc.end");
  genCond(E, SetB, JoinB);
  setBlock(SetB);
  emitUnary(Opcode::Copy, IRType::Int, T, Value::constInt(1));
  emitBr(JoinB);
  setBlock(JoinB);
  return T;
}

Value IRGen::genAddr(const Expr *E) {
  if (const auto *VR = dyn_cast<VarRefExpr>(E)) {
    // Address of a variable (array name or &scalar).
    Value T = F.newTemp(IRType::Ptr);
    emitUnary(Opcode::AddrOf, IRType::Ptr, T,
              Value::var(VR->Var, varIRType(VR->Var)));
    return T;
  }
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    if (UE->Op == UnaryOp::Deref)
      return genExpr(UE->Sub);
    if (UE->Op == UnaryOp::AddrOf)
      return genAddr(UE->Sub);
  }
  if (const auto *IE = dyn_cast<IndexExpr>(E)) {
    Value Base = genExpr(IE->Base);
    Value Idx = genExpr(IE->Index);
    Value T = F.newTemp(IRType::Ptr);
    emitBinary(Opcode::Add, IRType::Ptr, T, Base, Idx);
    return T;
  }
  sldb_unreachable("genAddr on non-lvalue");
}

Value IRGen::genAssign(const AssignExpr *E) {
  // Simple variable target.
  if (const auto *VR = dyn_cast<VarRefExpr>(E->Target);
      VR && !VR->IsArray) {
    VarId Var = VR->Var;
    IRType Ty = varIRType(Var);
    Value RHS;
    if (E->Op == AssignOp::Plain) {
      RHS = genExpr(E->Value);
      storeToVar(Var, RHS);
    } else {
      Value Old = Value::var(Var, Ty);
      Value New = genExpr(E->Value);
      Value T = F.newTemp(Ty);
      emitBinary(opcodeForAssign(E->Op), Ty, T, Old, New);
      storeToVar(Var, T);
    }
    return Value::var(Var, Ty);
  }

  // Memory target (deref or index).
  IRType ElemTy = irTypeFor(E->Target->Ty);
  Value Addr;
  if (const auto *UE = dyn_cast<UnaryExpr>(E->Target);
      UE && UE->Op == UnaryOp::Deref) {
    Addr = genExpr(UE->Sub);
  } else if (const auto *IE = dyn_cast<IndexExpr>(E->Target)) {
    Value Base = genExpr(IE->Base);
    Value Idx = genExpr(IE->Index);
    Addr = F.newTemp(IRType::Ptr);
    emitBinary(Opcode::Add, IRType::Ptr, Addr, Base, Idx);
  } else if (const auto *VRA = dyn_cast<VarRefExpr>(E->Target)) {
    // &scalar var target: cannot happen (handled above); arrays are not
    // assignable.
    (void)VRA;
    sldb_unreachable("bad assignment target");
  } else {
    sldb_unreachable("bad assignment target");
  }

  Value RHS;
  if (E->Op == AssignOp::Plain) {
    RHS = genExpr(E->Value);
  } else {
    Value Old = F.newTemp(ElemTy);
    emitUnary(Opcode::Load, ElemTy, Old, Addr);
    Value New = genExpr(E->Value);
    RHS = F.newTemp(ElemTy);
    emitBinary(opcodeForAssign(E->Op), ElemTy, RHS, Old, New);
  }
  Instr I;
  I.Op = Opcode::Store;
  I.Ty = ElemTy;
  I.Ops = {Addr, RHS};
  emit(std::move(I));
  return RHS;
}

Value IRGen::genIncDec(const UnaryExpr *E) {
  bool IsInc = E->Op == UnaryOp::PreInc || E->Op == UnaryOp::PostInc;
  bool IsPost = E->Op == UnaryOp::PostInc || E->Op == UnaryOp::PostDec;
  Opcode Op = IsInc ? Opcode::Add : Opcode::Sub;

  if (const auto *VR = dyn_cast<VarRefExpr>(E->Sub);
      VR && !VR->IsArray) {
    VarId Var = VR->Var;
    IRType Ty = varIRType(Var);
    Value Old = Value::var(Var, Ty);
    Value Saved;
    if (IsPost) {
      Saved = F.newTemp(Ty);
      emitUnary(Opcode::Copy, Ty, Saved, Old);
    }
    Value T = F.newTemp(Ty);
    emitBinary(Op, Ty, T, Old, Value::constInt(1));
    storeToVar(Var, T);
    return IsPost ? Saved : Value::var(Var, Ty);
  }

  // Memory lvalue.
  IRType ElemTy = irTypeFor(E->Sub->Ty);
  Value Addr = genAddr(E->Sub);
  Value Old = F.newTemp(ElemTy);
  emitUnary(Opcode::Load, ElemTy, Old, Addr);
  Value New = F.newTemp(ElemTy);
  emitBinary(Op, ElemTy, New, Old, Value::constInt(1));
  Instr I;
  I.Op = Opcode::Store;
  I.Ty = ElemTy;
  I.Ops = {Addr, New};
  emit(std::move(I));
  return IsPost ? Old : New;
}

Value IRGen::genCall(const CallExpr *E) {
  Instr I;
  I.Op = Opcode::Call;
  I.Ops.reserve(E->Args.size());
  for (const Expr *A : E->Args)
    I.Ops.push_back(genExpr(A));
  I.Callee = E->Func;
  I.BuiltinKind = E->BuiltinKind;
  I.Ty = irTypeFor(E->Ty);
  Value Result = Value::none();
  if (I.Ty != IRType::Void) {
    Result = F.newTemp(I.Ty);
    I.Dest = Result;
  }
  emit(std::move(I));
  return Result;
}

Value IRGen::genExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return Value::constInt(cast<IntLiteralExpr>(E)->Value);
  case Expr::Kind::DoubleLiteral:
    return Value::constDouble(cast<DoubleLiteralExpr>(E)->Value);
  case Expr::Kind::VarRef: {
    const auto *VR = cast<VarRefExpr>(E);
    if (VR->IsArray)
      return genAddr(E);
    return Value::var(VR->Var, varIRType(VR->Var));
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    switch (UE->Op) {
    case UnaryOp::Neg: {
      Value Sub = genExpr(UE->Sub);
      IRType Ty = irTypeFor(E->Ty);
      Value T = F.newTemp(Ty);
      emitUnary(Opcode::Neg, Ty, T, Sub);
      return T;
    }
    case UnaryOp::LogNot: {
      Value Sub = genExpr(UE->Sub);
      Value T = F.newTemp(IRType::Int);
      emitBinary(Opcode::CmpEQ, IRType::Int, T, Sub, Value::constInt(0));
      return T;
    }
    case UnaryOp::BitNot: {
      Value Sub = genExpr(UE->Sub);
      Value T = F.newTemp(IRType::Int);
      emitUnary(Opcode::Not, IRType::Int, T, Sub);
      return T;
    }
    case UnaryOp::Deref: {
      Value Addr = genExpr(UE->Sub);
      IRType Ty = irTypeFor(E->Ty);
      Value T = F.newTemp(Ty);
      emitUnary(Opcode::Load, Ty, T, Addr);
      return T;
    }
    case UnaryOp::AddrOf: {
      if (const auto *VR = dyn_cast<VarRefExpr>(UE->Sub);
          VR && !VR->IsArray) {
        Value T = F.newTemp(IRType::Ptr);
        emitUnary(Opcode::AddrOf, IRType::Ptr, T,
                  Value::var(VR->Var, varIRType(VR->Var)));
        return T;
      }
      return genAddr(UE->Sub);
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      return genIncDec(UE);
    }
    sldb_unreachable("bad unary op");
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    if (BE->Op == BinaryOp::LogAnd || BE->Op == BinaryOp::LogOr)
      return genShortCircuit(BE);
    Value L = genExpr(BE->LHS);
    Value R = genExpr(BE->RHS);
    IRType Ty = irTypeFor(E->Ty);
    Value T = F.newTemp(Ty == IRType::Void ? IRType::Int : Ty);
    emitBinary(opcodeForBinary(BE->Op),
               isCompareOp(opcodeForBinary(BE->Op)) ? IRType::Int : Ty, T, L,
               R);
    return T;
  }
  case Expr::Kind::Assign:
    return genAssign(cast<AssignExpr>(E));
  case Expr::Kind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    Value Base = genExpr(IE->Base);
    Value Idx = genExpr(IE->Index);
    Value Addr = F.newTemp(IRType::Ptr);
    emitBinary(Opcode::Add, IRType::Ptr, Addr, Base, Idx);
    IRType Ty = irTypeFor(E->Ty);
    Value T = F.newTemp(Ty);
    emitUnary(Opcode::Load, Ty, T, Addr);
    return T;
  }
  case Expr::Kind::Call:
    return genCall(cast<CallExpr>(E));
  case Expr::Kind::Ternary: {
    const auto *TE = cast<TernaryExpr>(E);
    IRType Ty = irTypeFor(E->Ty);
    Value T = F.newTemp(Ty);
    BasicBlock *ThenB = F.newBlock("sel.then");
    BasicBlock *ElseB = F.newBlock("sel.else");
    BasicBlock *JoinB = F.newBlock("sel.end");
    genCond(TE->Cond, ThenB, ElseB);
    setBlock(ThenB);
    Value TV = genExpr(TE->Then);
    emitUnary(Opcode::Copy, Ty, T, TV);
    emitBr(JoinB);
    setBlock(ElseB);
    Value EV = genExpr(TE->Else);
    emitUnary(Opcode::Copy, Ty, T, EV);
    emitBr(JoinB);
    setBlock(JoinB);
    return T;
  }
  case Expr::Kind::Cast: {
    const auto *CE = cast<CastExpr>(E);
    Value Sub = genExpr(CE->Sub);
    IRType To = irTypeFor(E->Ty);
    if (To == IRType::Double && Sub.Ty == IRType::Int) {
      if (Sub.isConstInt())
        return Value::constDouble(static_cast<double>(Sub.IntVal));
      Value T = F.newTemp(IRType::Double);
      emitUnary(Opcode::CastItoD, IRType::Double, T, Sub);
      return T;
    }
    if (To == IRType::Int && Sub.Ty == IRType::Double) {
      if (Sub.isConstDouble())
        return Value::constInt(static_cast<std::int64_t>(Sub.DblVal));
      Value T = F.newTemp(IRType::Int);
      emitUnary(Opcode::CastDtoI, IRType::Int, T, Sub);
      return T;
    }
    return Sub;
  }
  }
  sldb_unreachable("bad expression kind");
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::unique_ptr<IRModule> sldb::generateIR(const TranslationUnit &TU,
                                           std::unique_ptr<ProgramInfo> Info,
                                           DiagnosticEngine *Diags,
                                           Arena *A) {
  auto M = std::make_unique<IRModule>(A);
  M->Info = std::move(Info);

  for (const VarDecl &G : TU.Globals) {
    if (!G.Init)
      continue;
    if (const auto *IL = dyn_cast<IntLiteralExpr>(G.Init))
      M->GlobalInits.emplace_back(G.Var, Value::constInt(IL->Value));
    else if (const auto *DL = dyn_cast<DoubleLiteralExpr>(G.Init))
      M->GlobalInits.emplace_back(G.Var, Value::constDouble(DL->Value));
  }

  for (const FuncDecl *FD : TU.Functions) {
    const std::string &Name = M->Info->func(FD->Func).Name;
    IRFunction *F = M->newFunction(FD->Func, Name, irTypeFor(FD->RetTy));
    for (const VarDecl &P : FD->Params)
      F->Params.push_back(P.Var);
    IRGen Gen(*M, *F, *M->Info);
    Gen.genFunction(*FD);
    if (!Gen.InternalErr.empty()) {
      // An AST shape Sema should have rejected reached lowering: report
      // it as a structured diagnostic and discard the module rather than
      // asserting (DESIGN.md "Failure model").
      if (Diags)
        Diags->error(SourceLoc(), "internal error lowering '" + Name +
                                      "': " + Gen.InternalErr);
      return nullptr;
    }
  }
  return M;
}

std::unique_ptr<IRModule> sldb::compileToIR(std::string_view Source,
                                            DiagnosticEngine &Diags,
                                            Arena *A) {
  FrontendResult FR = runFrontend(Source, Diags);
  if (!FR.TU)
    return nullptr;
  return generateIR(*FR.TU, std::move(FR.Info), &Diags, A);
}
