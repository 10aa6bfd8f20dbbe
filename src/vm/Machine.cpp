//===- vm/Machine.cpp -----------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "ir/IntArith.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"

#include <cstdio>
#include <cstring>

using namespace sldb;

Machine::Machine(const MachineModule &MM, std::uint64_t MaxSteps)
    : MM(MM), MaxSteps(MaxSteps), Mem(1 << 22) {
  if (FaultInjector::armed(FaultId::TrapVMMidRun))
    TrapAtStep = 1 + FaultInjector::rand() % 2000;
  // Globals at the bottom of memory; stack grows above them.
  SP = MM.GlobalWords;
  for (const auto &[Addr, Init] : MM.GlobalInits) {
    // Globals past memory leave no room for main's frame: the run traps
    // before any code runs.
    if (Addr >= Mem.size())
      continue;
    if (Init.isConstDouble())
      Mem[Addr].D = Init.DblVal;
    else
      Mem[Addr].I = Init.IntVal;
  }
}

void Machine::trap(const std::string &Msg) {
  if (Reason != StopReason::Trapped) {
    Reason = StopReason::Trapped;
    TrapMsg = Msg;
  }
}

std::int64_t Machine::readMemInt(std::size_t Addr) const {
  return Addr < Mem.size() ? Mem[Addr].I : 0;
}

double Machine::readMemDouble(std::size_t Addr) const {
  return Addr < Mem.size() ? Mem[Addr].D : 0.0;
}

std::size_t Machine::resolveMemOperand(const MInstr &I) {
  if (I.AddrReg.isValid())
    return static_cast<std::size_t>(R[I.AddrReg.N]);
  if (I.FrameSlot >= 0)
    return FP + static_cast<std::size_t>(I.FrameSlot);
  if (I.GlobalVar != InvalidVar)
    return MM.globalAddr(I.GlobalVar); // NoGlobal traps as out of bounds.
  trap("memory instruction without an address");
  return 0;
}

void Machine::setBreakpoint(CodeAddr A) {
  if (A.Func >= MM.Funcs.size())
    return;
  if (BreakAt.empty())
    BreakAt.resize(MM.Funcs.size());
  BitVector &Row = BreakAt[A.Func];
  if (Row.size() == 0)
    Row.resize(MM.Funcs[A.Func].numInstrs() + 1);
  if (A.Local < Row.size())
    Row.set(A.Local);
}

StopReason Machine::run() {
  if (!reset())
    return Reason;
  return resumeImpl(/*SkipFirst=*/false);
}

StopReason Machine::startPaused() {
  if (!reset())
    return Reason;
  Reason = StopReason::Breakpoint;
  return Reason;
}

bool Machine::reset() {
  std::memset(R, 0, sizeof(R));
  for (double &D : F)
    D = 0.0;
  Frames.clear();
  Output.clear();
  Executed = 0;
  Reason = StopReason::Running;

  const MachineFunction *Main = MM.findFunc("main");
  if (!Main) {
    trap("no main function");
    return false;
  }
  PC.Func = static_cast<std::uint32_t>(Main - &MM.Funcs[0]);
  PC.Local = 0;
  Block = 0;
  FP = MM.GlobalWords;
  SP = FP + Main->FrameSize;
  if (SP >= Mem.size()) {
    trap("stack overflow");
    return false;
  }
  return true;
}

StopReason Machine::resume() { return resumeImpl(/*SkipFirst=*/true); }

StopReason Machine::resumeImpl(bool SkipFirst) {
  if (Reason == StopReason::Breakpoint)
    Reason = StopReason::Running;
  bool First = SkipFirst;
  while (Reason == StopReason::Running) {
    if (!First && atBreakpoint()) {
      Reason = StopReason::Breakpoint;
      return Reason;
    }
    First = false;
    step();
  }
  return Reason;
}

StopReason Machine::step() {
  if (Reason != StopReason::Running && Reason != StopReason::Breakpoint)
    return Reason;
  Reason = StopReason::Running;

  // Blocks are laid out consecutively: falling through skips exhausted
  // and empty blocks, and falling off the last one leaves the function.
  const MachineFunction &MF = MM.Funcs[PC.Func];
  std::uint32_t Off;
  for (;; ++Block) {
    if (Block >= MF.Blocks.size()) {
      trap("program counter out of range");
      return Reason;
    }
    Off = PC.Local - MF.BlockAddr[Block];
    if (Off < MF.Blocks[Block].Insts.size())
      break;
  }
  const MInstr &I = MF.Blocks[Block].Insts[Off];

  if (!I.isMarker()) {
    if (++Executed > MaxSteps) {
      Reason = StopReason::StepLimit;
      TrapMsg = "step limit exceeded (fuel budget " +
                std::to_string(MaxSteps) + " instructions)";
      return Reason;
    }
    if (TrapAtStep != 0 && Executed >= TrapAtStep) {
      trap("injected fault: VM trapped mid-run");
      return Reason;
    }
  }
  exec(I);
  return Reason;
}

void Machine::exec(const MInstr &I) {
  auto NextPC = [&] { ++PC.Local; };
  std::int64_t *RD = I.Dest.isValid() && I.Dest.Cls == RegClass::Int
                         ? &R[I.Dest.N]
                         : nullptr;
  double *FD = I.Dest.isValid() && I.Dest.Cls == RegClass::Fp
                   ? &F[I.Dest.N]
                   : nullptr;
  auto RS0 = [&] { return R[I.Src0.N]; };
  auto RS1 = [&] { return R[I.Src1.N]; };
  auto FS0 = [&] { return F[I.Src0.N]; };
  auto FS1 = [&] { return F[I.Src1.N]; };

  switch (I.Op) {
  case MOp::ADD:
    *RD = intarith::add(RS0(), RS1());
    break;
  case MOp::SUB:
    *RD = intarith::sub(RS0(), RS1());
    break;
  case MOp::MUL:
    *RD = intarith::mul(RS0(), RS1());
    break;
  // One divisor test on the fast path: as unsigned, divisor + 1 <= 1
  // picks out 0 and -1, the two divisors the host cannot divide by.
  case MOp::DIV:
    if (static_cast<std::uint64_t>(RS1()) + 1 <= 1) {
      if (RS1() == 0) {
        trap("integer division by zero");
        return;
      }
      *RD = intarith::div(RS0(), RS1());
    } else {
      *RD = RS0() / RS1();
    }
    break;
  case MOp::REM:
    if (static_cast<std::uint64_t>(RS1()) + 1 <= 1) {
      if (RS1() == 0) {
        trap("integer remainder by zero");
        return;
      }
      *RD = intarith::rem(RS0(), RS1());
    } else {
      *RD = RS0() % RS1();
    }
    break;
  case MOp::AND:
    *RD = RS0() & RS1();
    break;
  case MOp::OR:
    *RD = RS0() | RS1();
    break;
  case MOp::XOR:
    *RD = RS0() ^ RS1();
    break;
  case MOp::SLL:
    *RD = RS0() << (RS1() & 63);
    break;
  case MOp::SRA:
    *RD = RS0() >> (RS1() & 63);
    break;
  case MOp::SEQ:
    *RD = RS0() == RS1();
    break;
  case MOp::SNE:
    *RD = RS0() != RS1();
    break;
  case MOp::SLT:
    *RD = RS0() < RS1();
    break;
  case MOp::SLE:
    *RD = RS0() <= RS1();
    break;
  case MOp::SGT:
    *RD = RS0() > RS1();
    break;
  case MOp::SGE:
    *RD = RS0() >= RS1();
    break;
  case MOp::NEG:
    *RD = intarith::neg(RS0());
    break;
  case MOp::NOT:
    *RD = ~RS0();
    break;
  case MOp::MOV:
    *RD = RS0();
    break;
  case MOp::LI:
    *RD = I.Imm;
    break;
  case MOp::FADD:
    *FD = FS0() + FS1();
    break;
  case MOp::FSUB:
    *FD = FS0() - FS1();
    break;
  case MOp::FMUL:
    *FD = FS0() * FS1();
    break;
  case MOp::FDIV:
    *FD = FS1() == 0 ? 0 : FS0() / FS1();
    break;
  case MOp::FNEG:
    *FD = -FS0();
    break;
  case MOp::FMOV:
    *FD = FS0();
    break;
  case MOp::LID:
    *FD = I.FImm;
    break;
  case MOp::FEQ:
    *RD = FS0() == FS1();
    break;
  case MOp::FNE:
    *RD = FS0() != FS1();
    break;
  case MOp::FLT:
    *RD = FS0() < FS1();
    break;
  case MOp::FLE:
    *RD = FS0() <= FS1();
    break;
  case MOp::FGT:
    *RD = FS0() > FS1();
    break;
  case MOp::FGE:
    *RD = FS0() >= FS1();
    break;
  case MOp::CVTID:
    *FD = static_cast<double>(RS0());
    break;
  case MOp::CVTDI:
    *RD = static_cast<std::int64_t>(FS0());
    break;
  case MOp::LW:
  case MOp::LD: {
    std::size_t Addr = resolveMemOperand(I);
    if (Reason == StopReason::Trapped)
      return;
    if (Addr >= Mem.size()) {
      trap("load out of bounds");
      return;
    }
    if (I.Op == MOp::LW)
      *RD = Mem[Addr].I;
    else
      *FD = Mem[Addr].D;
    break;
  }
  case MOp::SW:
  case MOp::SD: {
    std::size_t Addr = resolveMemOperand(I);
    if (Reason == StopReason::Trapped)
      return;
    if (Addr >= Mem.size()) {
      trap("store out of bounds");
      return;
    }
    if (I.Op == MOp::SW)
      Mem[Addr].I = R[I.Src0.N];
    else
      Mem[Addr].D = F[I.Src0.N];
    break;
  }
  case MOp::LA: {
    std::size_t Addr = MachineModule::NoGlobal;
    if (I.FrameSlot >= 0)
      Addr = FP + static_cast<std::size_t>(I.FrameSlot);
    else if (I.GlobalVar != InvalidVar)
      Addr = MM.globalAddr(I.GlobalVar);
    if (Addr == MachineModule::NoGlobal) {
      trap("la without operand");
      return;
    }
    *RD = static_cast<std::int64_t>(Addr);
    break;
  }
  case MOp::J:
    Block = I.TargetBlock;
    PC.Local = MM.Funcs[PC.Func].BlockAddr[Block];
    return;
  case MOp::BNEZ:
    if (R[I.Src0.N] != 0) {
      Block = I.TargetBlock;
      PC.Local = MM.Funcs[PC.Func].BlockAddr[Block];
      return;
    }
    break;
  case MOp::JAL: {
    if (Frames.size() >= 4096) {
      trap("call stack overflow");
      return;
    }
    Frame Fr;
    Fr.RetPC = {PC.Func, PC.Local + 1};
    Fr.RetBlock = Block;
    Fr.SavedFP = FP;
    std::memcpy(Fr.SavedR, R, sizeof(R));
    std::memcpy(Fr.SavedF, F, sizeof(F));
    Frames.push_back(Fr);
    const MachineFunction &Callee = MM.Funcs[I.Callee];
    FP = SP;
    SP += Callee.FrameSize;
    if (SP >= Mem.size()) {
      trap("stack overflow");
      return;
    }
    PC = {I.Callee, 0};
    Block = 0;
    return;
  }
  case MOp::RET: {
    if (Frames.empty()) {
      ExitValue = R[R3K::IntRetReg];
      Reason = StopReason::Exited;
      return;
    }
    Frame Fr = Frames.back();
    Frames.pop_back();
    std::int64_t RV = R[R3K::IntRetReg];
    double FRV = F[R3K::FpRetReg];
    std::memcpy(R, Fr.SavedR, sizeof(R));
    std::memcpy(F, Fr.SavedF, sizeof(F));
    R[R3K::IntRetReg] = RV;
    F[R3K::FpRetReg] = FRV;
    SP = FP;
    FP = Fr.SavedFP;
    PC = Fr.RetPC;
    Block = Fr.RetBlock;
    return;
  }
  case MOp::PRINTI:
    Output.push_back(std::to_string(R[I.Src0.N]));
    break;
  case MOp::PRINTD: {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", F[I.Src0.N]);
    Output.emplace_back(Buf);
    break;
  }
  case MOp::MDEAD:
  case MOp::MAVAIL:
  case MOp::MNOP:
    break;
  }
  NextPC();
}
