//===- codegen/ISel.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"

#include "codegen/RegAlloc.h"
#include "codegen/Scheduler.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"

#include <string>
#include <vector>

using namespace sldb;

namespace {

class FunctionSelector {
public:
  FunctionSelector(const IRFunction &F, const IRModule &M,
                   MachineModule &MM, const CodegenOptions &Opts)
      : F(F), Info(*M.Info), MM(MM), Opts(Opts),
        FrameOf(Info.Vars.size(), NoSlot),
        VRegOf(Info.Vars.size(), Reg::invalid()),
        TRegOf(F.NextTemp, Reg::invalid()), BlockIdx(F.NextBlockId, NoBlock) {}

  MachineFunction run();

  /// An error when selection met IR no lowering rule covers (an array
  /// used as a scalar, a call exceeding the R3K argument registers) or a
  /// frame past MaxFrameWords; the machine function is unusable and the
  /// caller must discard it.
  Status Err;

private:
  void selectionError(const std::string &Msg,
                      ErrorCode Code = ErrorCode::InvalidIR) {
    if (Err.ok())
      Err = Status::error(Code, F.Name + ": " + Msg);
  }

  RegClass classFor(IRType Ty) const {
    return Ty == IRType::Double ? RegClass::Fp : RegClass::Int;
  }
  Reg newVReg(RegClass Cls) { return Reg::virt(Cls, NextVReg++); }
  Reg newVReg(IRType Ty) { return newVReg(classFor(Ty)); }

  MInstr &emit(MInstr I) {
    // Every machine instruction selected from a hoisted/sunk IR
    // instruction carries the flags (a moved assignment's operand
    // materializations moved with it; none of them may anchor the
    // statement's syntactic breakpoint).
    if (CurIRInstr) {
      I.IsHoisted |= CurIRInstr->IsHoisted;
      I.IsSunk |= CurIRInstr->IsSunk;
    }
    Cur->Insts.push_back(std::move(I));
    return Cur->Insts.back();
  }

  bool isPromoted(VarId V) const {
    if (!Opts.PromoteVars)
      return false;
    const VarInfo &VI = Info.var(V);
    return VI.isPromotable() && VI.Owner == F.Id;
  }

  /// Frame slot of a memory-homed local; allocates on first touch.
  std::int32_t frameSlot(VarId V) {
    if (V >= FrameOf.size()) {
      selectionError("variable id " + std::to_string(V) + " out of range");
      return 0;
    }
    std::int32_t &Slot = FrameOf[V];
    if (Slot == NoSlot) {
      const VarInfo &VI = Info.var(V);
      const std::uint64_t Words = VI.ArraySize ? VI.ArraySize : 1;
      if (FrameSize + Words > MachineFunction::MaxFrameWords) {
        selectionError("frame exceeds " +
                           std::to_string(MachineFunction::MaxFrameWords) +
                           " words at '" + VI.Name + "'",
                       ErrorCode::ResourceExhausted);
        return 0;
      }
      Slot = static_cast<std::int32_t>(FrameSize);
      FrameSize += static_cast<std::uint32_t>(Words);
    }
    return Slot;
  }

  /// The dedicated vreg of a promoted variable.
  Reg varReg(VarId V) {
    if (V >= VRegOf.size()) {
      selectionError("variable id " + std::to_string(V) + " out of range");
      return newVReg(RegClass::Int);
    }
    Reg &R = VRegOf[V];
    if (!R.isValid())
      R = newVReg(classFor(irTypeFor(Info.var(V).Ty)));
    return R;
  }

  Reg tempReg(TempId T, IRType Ty) {
    if (T >= TRegOf.size()) {
      selectionError("temp id " + std::to_string(T) + " out of range");
      return newVReg(Ty);
    }
    Reg &R = TRegOf[T];
    if (!R.isValid())
      R = newVReg(Ty);
    return R;
  }

  /// Machine block index of IR block \p B.
  std::uint32_t blockIndex(const BasicBlock *B) {
    if (B->Id >= BlockIdx.size() || BlockIdx[B->Id] == NoBlock) {
      selectionError("branch to block '" + B->Name +
                     "' outside the function");
      return 0;
    }
    return BlockIdx[B->Id];
  }

  /// Materializes an operand value into a register.
  Reg useValue(const Value &V, StmtId Stmt);

  /// Emits the instruction(s) storing \p Src as the new value of variable
  /// \p V, annotated as the completion of the source assignment \p Src
  /// came from.
  void defineVar(VarId V, Reg Src, const Instr &From);

  MRecovery lowerRecovery(const Instr &Marker);
  void selectInstr(const Instr &I);
  void lowerCall(const Instr &I);

  const IRFunction &F;
  const ProgramInfo &Info;
  MachineModule &MM;
  const CodegenOptions &Opts;

  MachineFunction MF;
  MachineBlock *Cur = nullptr;
  const Instr *CurIRInstr = nullptr;
  std::uint32_t NextVReg = 0;
  std::uint32_t FrameSize = 0;
  // Dense tables, filled on first touch so frame slots and vregs keep
  // their first-touch order.
  static constexpr std::int32_t NoSlot = -1;
  static constexpr std::uint32_t NoBlock = ~0u;
  std::vector<std::int32_t> FrameOf; ///< By VarId.
  std::vector<Reg> VRegOf;           ///< By VarId.
  std::vector<Reg> TRegOf;           ///< By TempId.
  std::vector<std::uint32_t> BlockIdx; ///< By BasicBlock::Id.
};

} // namespace

Reg FunctionSelector::useValue(const Value &V, StmtId Stmt) {
  switch (V.K) {
  case Value::Kind::ConstInt: {
    Reg R = newVReg(RegClass::Int);
    MInstr LI;
    LI.Op = MOp::LI;
    LI.Dest = R;
    LI.Imm = V.IntVal;
    LI.Stmt = Stmt;
    emit(std::move(LI));
    return R;
  }
  case Value::Kind::ConstDouble: {
    Reg R = newVReg(RegClass::Fp);
    MInstr LD;
    LD.Op = MOp::LID;
    LD.Dest = R;
    LD.FImm = V.DblVal;
    LD.Stmt = Stmt;
    emit(std::move(LD));
    return R;
  }
  case Value::Kind::Temp:
    return tempReg(V.Id, V.Ty);
  case Value::Kind::Var: {
    VarId Id = V.Id;
    const VarInfo &VI = Info.var(Id);
    if (!VI.isScalar()) {
      selectionError("array '" + VI.Name + "' used as a value operand");
      return newVReg(RegClass::Int);
    }
    if (isPromoted(Id))
      return varReg(Id);
    // Memory-homed: load from frame or global.
    bool IsDouble = VI.Ty.isDouble();
    Reg R = newVReg(IsDouble ? RegClass::Fp : RegClass::Int);
    MInstr Load;
    Load.Op = IsDouble ? MOp::LD : MOp::LW;
    Load.Dest = R;
    Load.Stmt = Stmt;
    if (VI.Storage == StorageKind::Global)
      Load.GlobalVar = Id;
    else
      Load.FrameSlot = frameSlot(Id);
    emit(std::move(Load));
    return R;
  }
  case Value::Kind::None:
    break;
  }
  sldb_unreachable("bad operand value");
}

void FunctionSelector::defineVar(VarId V, Reg Src, const Instr &From) {
  const VarInfo &VI = Info.var(V);
  bool IsDouble = VI.Ty.isDouble();
  if (isPromoted(V)) {
    MInstr Mov;
    Mov.Op = IsDouble ? MOp::FMOV : MOp::MOV;
    Mov.Dest = varReg(V);
    Mov.Src0 = Src;
    Mov.Stmt = From.Stmt;
    Mov.DestVar = From.IsSourceAssign || From.Dest.isVar() ? V : InvalidVar;
    Mov.IsHoisted = From.IsHoisted;
    Mov.IsSunk = From.IsSunk;
    Mov.HoistKey = From.HoistKey;
    emit(std::move(Mov));
    return;
  }
  MInstr Store;
  Store.Op = IsDouble ? MOp::SD : MOp::SW;
  Store.Src0 = Src;
  Store.Stmt = From.Stmt;
  Store.DestVar = V;
  Store.IsHoisted = From.IsHoisted;
  Store.IsSunk = From.IsSunk;
  Store.HoistKey = From.HoistKey;
  if (VI.Storage == StorageKind::Global)
    Store.GlobalVar = V;
  else
    Store.FrameSlot = frameSlot(V);
  emit(std::move(Store));
}

MRecovery FunctionSelector::lowerRecovery(const Instr &Marker) {
  MRecovery R;
  const Value &V = Marker.Recovery;
  R.Scale = Marker.RecoveryScale;
  R.IsIV = Marker.RecoveryIsIV;
  switch (V.K) {
  case Value::Kind::None:
    return R;
  case Value::Kind::ConstInt:
    R.K = MRecovery::Kind::Imm;
    R.Imm = V.IntVal;
    return R;
  case Value::Kind::ConstDouble:
    R.K = MRecovery::Kind::FImm;
    R.FImm = V.DblVal;
    return R;
  case Value::Kind::Temp:
    R.K = MRecovery::Kind::InReg;
    R.R = tempReg(V.Id, V.Ty);
    return R;
  case Value::Kind::Var: {
    VarId Id = V.Id;
    R.SrcVar = Id;
    if (isPromoted(Id)) {
      R.K = MRecovery::Kind::InReg;
      R.R = varReg(Id);
      return R;
    }
    const VarInfo &VI = Info.var(Id);
    if (VI.Storage == StorageKind::Global) {
      // Resolved to an absolute address at layout time; store the var id
      // in Imm for now.
      R.K = MRecovery::Kind::InFrame;
      R.Frame = -1;
      R.Imm = Id;
      return R;
    }
    R.K = MRecovery::Kind::InFrame;
    R.Frame = frameSlot(Id);
    return R;
  }
  }
  return R;
}

void FunctionSelector::lowerCall(const Instr &I) {
  if (I.BuiltinKind == Builtin::PrintInt ||
      I.BuiltinKind == Builtin::PrintDouble) {
    Reg Arg = useValue(I.Ops[0], I.Stmt);
    MInstr P;
    P.Op = I.BuiltinKind == Builtin::PrintInt ? MOp::PRINTI : MOp::PRINTD;
    P.Src0 = Arg;
    P.Stmt = I.Stmt;
    emit(std::move(P));
    return;
  }

  // Evaluate arguments, then move them into the argument registers.
  std::vector<Reg> ArgRegs;
  for (const Value &A : I.Ops)
    ArgRegs.push_back(useValue(A, I.Stmt));
  unsigned IntIdx = 0, FpIdx = 0;
  for (Reg A : ArgRegs) {
    MInstr Mov;
    if (A.Cls == RegClass::Fp) {
      if (FpIdx >= R3K::NumArgRegs) {
        selectionError("call passes more than " +
                       std::to_string(R3K::NumArgRegs) +
                       " fp arguments (R3K calling convention)");
        continue;
      }
      Mov.Op = MOp::FMOV;
      Mov.Dest = Reg::phys(RegClass::Fp, R3K::FirstFpArg + FpIdx++);
    } else {
      if (IntIdx >= R3K::NumArgRegs) {
        selectionError("call passes more than " +
                       std::to_string(R3K::NumArgRegs) +
                       " integer arguments (R3K calling convention)");
        continue;
      }
      Mov.Op = MOp::MOV;
      Mov.Dest = Reg::phys(RegClass::Int, R3K::FirstIntArg + IntIdx++);
    }
    Mov.Src0 = A;
    Mov.Stmt = I.Stmt;
    emit(std::move(Mov));
  }

  MInstr Jal;
  Jal.Op = MOp::JAL;
  Jal.Callee = I.Callee;
  Jal.Imm = (static_cast<std::int64_t>(IntIdx) << 8) | FpIdx;
  Jal.Stmt = I.Stmt;
  emit(std::move(Jal));

  if (I.Dest.isNone())
    return;
  bool IsDouble = I.Ty == IRType::Double;
  Reg RV = IsDouble ? Reg::phys(RegClass::Fp, R3K::FpRetReg)
                    : Reg::phys(RegClass::Int, R3K::IntRetReg);
  if (I.Dest.isVar()) {
    defineVar(I.Dest.Id, RV, I);
    return;
  }
  MInstr Mov;
  Mov.Op = IsDouble ? MOp::FMOV : MOp::MOV;
  Mov.Dest = tempReg(I.Dest.Id, I.Ty);
  Mov.Src0 = RV;
  Mov.Stmt = I.Stmt;
  emit(std::move(Mov));
}

void FunctionSelector::selectInstr(const Instr &I) {
  auto DestReg = [&]() -> Reg {
    if (I.Dest.isTemp())
      return tempReg(I.Dest.Id, I.Ty);
    // Variable destination: compute into a scratch vreg, then defineVar.
    return newVReg(I.Ty);
  };
  auto FinishDest = [&](Reg Computed) {
    if (I.Dest.isVar())
      defineVar(I.Dest.Id, Computed, I);
  };
  auto Annotate = [&](MInstr &MI) {
    MI.Stmt = I.Stmt;
    if (I.Dest.isTemp()) {
      // Temps carry flags only for hoisted address computations etc.
      MI.IsHoisted = I.IsHoisted;
      MI.IsSunk = I.IsSunk;
    }
  };

  switch (I.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE: {
    bool FpOperands = I.Ops[0].Ty == IRType::Double ||
                      I.Ops[1].Ty == IRType::Double;
    Reg A = useValue(I.Ops[0], I.Stmt);
    Reg B = useValue(I.Ops[1], I.Stmt);
    MOp Op;
    switch (I.Op) {
    case Opcode::Add:
      Op = FpOperands ? MOp::FADD : MOp::ADD;
      break;
    case Opcode::Sub:
      Op = FpOperands ? MOp::FSUB : MOp::SUB;
      break;
    case Opcode::Mul:
      Op = FpOperands ? MOp::FMUL : MOp::MUL;
      break;
    case Opcode::Div:
      Op = FpOperands ? MOp::FDIV : MOp::DIV;
      break;
    case Opcode::Rem:
      Op = MOp::REM;
      break;
    case Opcode::And:
      Op = MOp::AND;
      break;
    case Opcode::Or:
      Op = MOp::OR;
      break;
    case Opcode::Xor:
      Op = MOp::XOR;
      break;
    case Opcode::Shl:
      Op = MOp::SLL;
      break;
    case Opcode::Shr:
      Op = MOp::SRA;
      break;
    case Opcode::CmpEQ:
      Op = FpOperands ? MOp::FEQ : MOp::SEQ;
      break;
    case Opcode::CmpNE:
      Op = FpOperands ? MOp::FNE : MOp::SNE;
      break;
    case Opcode::CmpLT:
      Op = FpOperands ? MOp::FLT : MOp::SLT;
      break;
    case Opcode::CmpLE:
      Op = FpOperands ? MOp::FLE : MOp::SLE;
      break;
    case Opcode::CmpGT:
      Op = FpOperands ? MOp::FGT : MOp::SGT;
      break;
    case Opcode::CmpGE:
      Op = FpOperands ? MOp::FGE : MOp::SGE;
      break;
    default:
      sldb_unreachable("covered above");
    }
    Reg D = DestReg();
    MInstr MI;
    MI.Op = Op;
    MI.Dest = D;
    MI.Src0 = A;
    MI.Src1 = B;
    Annotate(MI);
    emit(std::move(MI));
    FinishDest(D);
    return;
  }
  case Opcode::Neg:
  case Opcode::Not: {
    Reg A = useValue(I.Ops[0], I.Stmt);
    Reg D = DestReg();
    MInstr MI;
    MI.Op = I.Op == Opcode::Not
                ? MOp::NOT
                : (I.Ty == IRType::Double ? MOp::FNEG : MOp::NEG);
    MI.Dest = D;
    MI.Src0 = A;
    Annotate(MI);
    emit(std::move(MI));
    FinishDest(D);
    return;
  }
  case Opcode::Copy: {
    // Fold constants straight into the destination when possible.
    if (I.Dest.isVar() && I.Ops[0].isConst()) {
      Reg Tmp = useValue(I.Ops[0], I.Stmt);
      defineVar(I.Dest.Id, Tmp, I);
      return;
    }
    Reg A = useValue(I.Ops[0], I.Stmt);
    if (I.Dest.isVar()) {
      defineVar(I.Dest.Id, A, I);
      return;
    }
    Reg D = DestReg();
    MInstr MI;
    MI.Op = I.Ty == IRType::Double ? MOp::FMOV : MOp::MOV;
    MI.Dest = D;
    MI.Src0 = A;
    Annotate(MI);
    emit(std::move(MI));
    return;
  }
  case Opcode::CastItoD:
  case Opcode::CastDtoI: {
    Reg A = useValue(I.Ops[0], I.Stmt);
    Reg D = DestReg();
    MInstr MI;
    MI.Op = I.Op == Opcode::CastItoD ? MOp::CVTID : MOp::CVTDI;
    MI.Dest = D;
    MI.Src0 = A;
    Annotate(MI);
    emit(std::move(MI));
    FinishDest(D);
    return;
  }
  case Opcode::AddrOf: {
    VarId V = I.Ops[0].Id;
    const VarInfo &VI = Info.var(V);
    Reg D = DestReg();
    MInstr MI;
    MI.Op = MOp::LA;
    MI.Dest = D;
    if (VI.Storage == StorageKind::Global)
      MI.GlobalVar = V;
    else
      MI.FrameSlot = frameSlot(V);
    Annotate(MI);
    emit(std::move(MI));
    FinishDest(D);
    return;
  }
  case Opcode::Load: {
    Reg Addr = useValue(I.Ops[0], I.Stmt);
    Reg D = DestReg();
    MInstr MI;
    MI.Op = I.Ty == IRType::Double ? MOp::LD : MOp::LW;
    MI.Dest = D;
    MI.AddrReg = Addr;
    Annotate(MI);
    emit(std::move(MI));
    FinishDest(D);
    return;
  }
  case Opcode::Store: {
    Reg Addr = useValue(I.Ops[0], I.Stmt);
    Reg Val = useValue(I.Ops[1], I.Stmt);
    MInstr MI;
    MI.Op = I.Ty == IRType::Double ? MOp::SD : MOp::SW;
    MI.Src0 = Val;
    MI.AddrReg = Addr;
    MI.Stmt = I.Stmt;
    emit(std::move(MI));
    return;
  }
  case Opcode::Call:
    lowerCall(I);
    return;
  case Opcode::Br: {
    MInstr MI;
    MI.Op = MOp::J;
    MI.TargetBlock = blockIndex(I.Succs[0]);
    MI.Stmt = I.Stmt;
    emit(std::move(MI));
    return;
  }
  case Opcode::CondBr: {
    Reg C = useValue(I.Ops[0], I.Stmt);
    MInstr B;
    B.Op = MOp::BNEZ;
    B.Src0 = C;
    B.TargetBlock = blockIndex(I.Succs[0]);
    B.Stmt = I.Stmt;
    emit(std::move(B));
    MInstr JF;
    JF.Op = MOp::J;
    JF.TargetBlock = blockIndex(I.Succs[1]);
    JF.Stmt = I.Stmt;
    emit(std::move(JF));
    return;
  }
  case Opcode::Ret: {
    if (!I.Ops.empty()) {
      Reg V = useValue(I.Ops[0], I.Stmt);
      MInstr Mov;
      bool IsDouble = I.Ops[0].Ty == IRType::Double;
      Mov.Op = IsDouble ? MOp::FMOV : MOp::MOV;
      Mov.Dest = IsDouble ? Reg::phys(RegClass::Fp, R3K::FpRetReg)
                          : Reg::phys(RegClass::Int, R3K::IntRetReg);
      Mov.Src0 = V;
      Mov.Stmt = I.Stmt;
      emit(std::move(Mov));
    }
    MInstr R;
    R.Op = MOp::RET;
    R.Stmt = I.Stmt;
    emit(std::move(R));
    return;
  }
  case Opcode::DeadMarker:
  case Opcode::AvailMarker: {
    MInstr MI;
    MI.Op = I.Op == Opcode::DeadMarker ? MOp::MDEAD : MOp::MAVAIL;
    MI.MarkVar = I.MarkVar;
    MI.MarkStmt = I.MarkStmt;
    MI.HoistKey = I.HoistKey;
    MI.Stmt = I.Stmt;
    if (I.Op == Opcode::DeadMarker)
      MI.Recovery = lowerRecovery(I);
    emit(std::move(MI));
    return;
  }
  case Opcode::Nop:
    return;
  case Opcode::Phi:
    // Phis only exist between SsaConstruct and SsaDestruct; the pipeline
    // always destructs before codegen, so one here is a pipeline bug.
    selectionError("phi reached instruction selection (SSA not destructed)");
    return;
  }
  sldb_unreachable("bad opcode in selection");
}

MachineFunction FunctionSelector::run() {
  MF.Id = F.Id;
  MF.Name = F.Name;
  MF.HoistKeys = F.HoistKeys;
  MF.NumStmts = F.NumStmts;

  // Create machine blocks mirroring the IR blocks.
  for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    MachineBlock B;
    B.Id = BI;
    B.Name = F.Blocks[BI]->Name;
    B.Insts.setArena(MM.arena());
    MF.Blocks.push_back(std::move(B));
    if (F.Blocks[BI]->Id >= BlockIdx.size()) {
      selectionError("block id " + std::to_string(F.Blocks[BI]->Id) +
                     " out of range");
      return std::move(MF);
    }
    BlockIdx[F.Blocks[BI]->Id] = BI;
  }

  // Without register promotion every scalar local owns a frame slot from
  // the start (the unoptimized-storage model of Figure 5(a): variables
  // are always memory-resident, even if optimization removed every
  // access).
  if (!Opts.PromoteVars)
    for (VarId V : Info.func(F.Id).Locals)
      if (Info.var(V).isScalar())
        frameSlot(V);

  // Entry code: bind parameters from the argument registers.
  Cur = &MF.Blocks[0];
  unsigned IntIdx = 0, FpIdx = 0;
  for (VarId P : F.Params) {
    const VarInfo &VI = Info.var(P);
    bool IsDouble = VI.Ty.isDouble();
    Reg ArgReg = IsDouble
                     ? Reg::phys(RegClass::Fp, R3K::FirstFpArg + FpIdx++)
                     : Reg::phys(RegClass::Int, R3K::FirstIntArg + IntIdx++);
    Instr Pseudo; // Carrier for defineVar's annotations.
    Pseudo.Stmt = InvalidStmt;
    Pseudo.Dest = Value::var(P, irTypeFor(VI.Ty));
    defineVar(P, ArgReg, Pseudo);
  }

  for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    Cur = &MF.Blocks[BI];
    for (const Instr &I : F.Blocks[BI]->Insts) {
      CurIRInstr = &I;
      selectInstr(I);
    }
    CurIRInstr = nullptr;
  }

  // Block edges.
  for (std::uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    for (const BasicBlock *S : F.Blocks[BI]->succRange()) {
      std::uint32_t SI = blockIndex(S);
      MF.Blocks[BI].Succs.push_back(SI);
      MF.Blocks[SI].Preds.push_back(BI);
    }
  }

  MF.FrameSize = FrameSize;

  // Record storage of every local/param (register-homed storage and
  // residence bits are completed by the register allocator).
  for (VarId V : Info.func(F.Id).Locals) {
    VarStorage S;
    if (V < FrameOf.size() && FrameOf[V] != NoSlot) {
      S.K = VarStorage::Kind::Frame;
      S.Frame = FrameOf[V];
    } else if (V < VRegOf.size() && VRegOf[V].isValid()) {
      S.K = VarStorage::Kind::InReg;
      S.R = VRegOf[V];
    } else {
      S.K = VarStorage::Kind::None; // Never touched by this function.
    }
    MF.Storage[V] = S;
  }

  // Marker census for the AnnotationVerifier (the backend never deletes
  // markers, so the counts must survive scheduling and allocation), plus
  // any integrity findings the IR pipeline already recorded.
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      if (I.Op == MOp::MDEAD)
        ++MF.ExpectedDeadMarkers;
      else if (I.Op == MOp::MAVAIL)
        ++MF.ExpectedAvailMarkers;
    }
  MF.IntegrityFindings = F.AnnotationFindings;
  // MF is a member: without the move, the return would copy every
  // block's instruction buffer into the arena a second time.
  return std::move(MF);
}

namespace {

MachineModule selectModuleImpl(const IRModule &M, const CodegenOptions &Opts,
                               Status *Err,
                               Arena *CodeArena = nullptr) {
  MachineModule MM;
  MM.Info = M.Info.get();
  if (CodeArena)
    MM.setArena(CodeArena);

  // Lay out globals in module memory.
  for (VarId G : M.Info->Globals) {
    const VarInfo &VI = M.Info->var(G);
    if (G >= MM.GlobalAddr.size())
      MM.GlobalAddr.resize(G + 1, MachineModule::NoGlobal);
    MM.GlobalAddr[G] = MM.GlobalWords;
    MM.GlobalWords += VI.ArraySize ? VI.ArraySize : 1;
  }
  for (const auto &[V, Init] : M.GlobalInits)
    MM.GlobalInits.emplace_back(MM.GlobalAddr.at(V), Init);

  for (const auto &F : M.Funcs) {
    FunctionSelector Sel(*F, M, MM, Opts);
    MM.Funcs.push_back(Sel.run());
    if (Err && Err->ok() && !Sel.Err.ok())
      *Err = Sel.Err;
  }
  return MM;
}

/// Applies the armed machine-level fault (if any) to the finished module:
/// deliberate, seeded corruption of the debug bookkeeping that the
/// AnnotationVerifier must detect and the Classifier must survive.  The
/// generated *code* is never touched — only the annotations, matching
/// the threat model (a buggy pass corrupts bookkeeping, not semantics).
void injectMachineFaults(MachineModule &MM) {
  FaultId Id = FaultInjector::current();
  if (Id == FaultId::None || !MM.Info)
    return;

  using Victim = std::pair<MachineFunction *, MInstr *>;
  auto pickInstr = [&](auto Pred) -> Victim {
    std::vector<Victim> C;
    for (MachineFunction &F : MM.Funcs)
      for (MachineBlock &B : F.Blocks)
        for (MInstr &I : B.Insts)
          if (Pred(F, I))
            C.push_back({&F, &I});
    if (C.empty())
      return {nullptr, nullptr};
    return C[FaultInjector::rand() % C.size()];
  };

  switch (Id) {
  case FaultId::DropDeadMarker: {
    Victim V = pickInstr([](const MachineFunction &, const MInstr &I) {
      return I.Op == MOp::MDEAD;
    });
    if (V.second)
      V.second->Op = MOp::MNOP; // The marker silently vanishes.
    break;
  }
  case FaultId::CorruptMarkerVar: {
    Victim V = pickInstr([](const MachineFunction &, const MInstr &I) {
      return I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL;
    });
    if (V.second)
      V.second->MarkVar = static_cast<VarId>(MM.Info->Vars.size()) + 7;
    break;
  }
  case FaultId::CorruptMarkerStmt: {
    Victim V = pickInstr([](const MachineFunction &, const MInstr &I) {
      return I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL;
    });
    if (V.second)
      V.second->MarkStmt = V.first->NumStmts + 9;
    break;
  }
  case FaultId::CorruptHoistKey: {
    Victim V = pickInstr([](const MachineFunction &, const MInstr &I) {
      return (I.IsHoisted && I.HoistKey != InvalidHoistKey) ||
             I.Op == MOp::MAVAIL;
    });
    if (V.second)
      V.second->HoistKey =
          static_cast<HoistKeyId>(V.first->HoistKeys.size()) + 3;
    break;
  }
  case FaultId::CorruptRecoveryReg: {
    Victim V = pickInstr([](const MachineFunction &, const MInstr &I) {
      return I.Op == MOp::MDEAD && I.Recovery.K == MRecovery::Kind::InReg;
    });
    if (V.second)
      V.second->Recovery.R = Reg::phys(V.second->Recovery.R.Cls, 999);
    break;
  }
  case FaultId::TruncateStmtMap: {
    std::vector<MachineFunction *> C;
    for (MachineFunction &F : MM.Funcs)
      if (F.StmtAddr.size() >= 2)
        C.push_back(&F);
    if (!C.empty()) {
      MachineFunction &F = *C[FaultInjector::rand() % C.size()];
      F.StmtAddr.resize(F.StmtAddr.size() / 2);
    }
    break;
  }
  case FaultId::TruncateResidentAt: {
    std::vector<std::pair<MachineFunction *, VarId>> C;
    for (MachineFunction &F : MM.Funcs)
      for (auto &[V, Bits] : F.ResidentAt)
        if (Bits.size() >= 2)
          C.push_back({&F, V});
    if (!C.empty()) {
      auto [F, V] = C[FaultInjector::rand() % C.size()];
      BitVector &Bits = F->ResidentAt[V];
      Bits.resize(Bits.size() / 2);
    }
    break;
  }
  default:
    break; // Classifier/VM faults have their own hooks.
  }
}

} // namespace

MachineModule sldb::selectModule(const IRModule &M,
                                 const CodegenOptions &Opts,
                                 Arena *CodeArena) {
  return selectModuleImpl(M, Opts, nullptr, CodeArena);
}

Expected<MachineModule> sldb::compileToMachineE(const IRModule &M,
                                                const CodegenOptions &Opts,
                                                Arena *CodeArena) {
  Status Err;
  MachineModule MM = selectModuleImpl(M, Opts, &Err, CodeArena);
  if (!Err.ok())
    return Err;
  for (MachineFunction &MF : MM.Funcs) {
    if (Opts.Schedule)
      scheduleFunction(MF);
    Status S = allocateRegistersE(MF, *M.Info);
    if (!S.ok())
      return S;
  }
  injectMachineFaults(MM);
  return MM;
}
