//===- ir/Interp.cpp ------------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include "ir/IntArith.h"
#include "support/Casting.h"
#include "support/ZeroedBuffer.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace sldb;

namespace {

/// One 64-bit memory word; MiniC memory is word-addressed.
struct Word {
  std::int64_t I = 0;
  double D = 0.0;
};

/// A runtime value.
struct RtVal {
  IRType Ty = IRType::Int;
  std::int64_t I = 0;
  double D = 0.0;

  static RtVal ofInt(std::int64_t V, IRType Ty = IRType::Int) {
    RtVal R;
    R.Ty = Ty;
    R.I = V;
    return R;
  }
  static RtVal ofDouble(double V) {
    RtVal R;
    R.Ty = IRType::Double;
    R.D = V;
    return R;
  }
};

/// One activation record.
struct Frame {
  const IRFunction *F = nullptr;
  const BasicBlock *BB = nullptr;
  InstrList::const_iterator IP;
  std::unordered_map<VarId, RtVal> RegVars;   ///< Promoted variables.
  std::unordered_map<TempId, RtVal> Temps;
  std::unordered_map<VarId, std::size_t> MemVars; ///< Memory-homed locals.
  std::size_t SavedSP = 0;
  Value RetDest; ///< Caller-side destination for the return value.
};

class Interpreter {
public:
  Interpreter(const IRModule &M, std::uint64_t MaxSteps)
      : M(M), Info(*M.Info), MaxSteps(MaxSteps), Mem(1 << 22) {}

  ExecResult run();

private:
  void trap(const std::string &Msg) {
    if (!Result.Trapped) {
      Result.Trapped = true;
      Result.TrapMsg = Msg;
    }
  }

  RtVal eval(const Value &V, Frame &Fr);
  void writeDest(const Value &Dest, RtVal V, Frame &Fr);
  std::size_t varAddr(VarId Id, Frame &Fr);
  bool checkAddr(std::size_t Addr) {
    if (Addr < Mem.size())
      return true;
    trap("memory access out of bounds at address " + std::to_string(Addr));
    return false;
  }
  void pushFrame(const IRFunction *F, const std::vector<RtVal> &Args,
                 Value RetDest);
  void execute(const Instr &I, Frame &Fr, bool &Advanced);

  const IRModule &M;
  const ProgramInfo &Info;
  std::uint64_t MaxSteps;
  ExecResult Result;

  ZeroedBuffer<Word> Mem; ///< 4M words, lazily-mapped zero pages.
  std::size_t SP = 0; ///< Bump allocator top for frames.
  std::unordered_map<VarId, std::size_t> GlobalAddr;
  std::unordered_map<VarId, RtVal> GlobalRegs; ///< Scalar globals.
  std::vector<Frame> Stack;
};

} // namespace

std::size_t Interpreter::varAddr(VarId Id, Frame &Fr) {
  auto It = Fr.MemVars.find(Id);
  if (It != Fr.MemVars.end())
    return It->second;
  auto G = GlobalAddr.find(Id);
  if (G != GlobalAddr.end())
    return G->second;
  trap("address taken of unallocated variable '" + Info.var(Id).Name + "'");
  return 0;
}

RtVal Interpreter::eval(const Value &V, Frame &Fr) {
  switch (V.K) {
  case Value::Kind::ConstInt:
    return RtVal::ofInt(V.IntVal, V.Ty);
  case Value::Kind::ConstDouble:
    return RtVal::ofDouble(V.DblVal);
  case Value::Kind::Temp: {
    auto It = Fr.Temps.find(V.Id);
    if (It != Fr.Temps.end())
      return It->second;
    return RtVal::ofInt(0, V.Ty); // Uninitialized temps read as zero.
  }
  case Value::Kind::Var: {
    const VarInfo &VI = Info.var(V.Id);
    if (VI.Storage == StorageKind::Global) {
      if (VI.isScalar() && !VI.AddressTaken) {
        auto It = GlobalRegs.find(V.Id);
        return It != GlobalRegs.end() ? It->second : RtVal::ofInt(0, V.Ty);
      }
      std::size_t Addr = GlobalAddr.at(V.Id);
      if (VI.ArraySize != 0)
        return RtVal::ofInt(static_cast<std::int64_t>(Addr), IRType::Ptr);
      const Word &W = Mem[Addr];
      return VI.Ty.isDouble() ? RtVal::ofDouble(W.D)
                              : RtVal::ofInt(W.I, V.Ty);
    }
    if (VI.isPromotable()) {
      auto It = Fr.RegVars.find(V.Id);
      return It != Fr.RegVars.end() ? It->second : RtVal::ofInt(0, V.Ty);
    }
    std::size_t Addr = varAddr(V.Id, Fr);
    if (VI.ArraySize != 0)
      return RtVal::ofInt(static_cast<std::int64_t>(Addr), IRType::Ptr);
    if (!checkAddr(Addr))
      return RtVal::ofInt(0);
    const Word &W = Mem[Addr];
    return VI.Ty.isDouble() ? RtVal::ofDouble(W.D) : RtVal::ofInt(W.I, V.Ty);
  }
  case Value::Kind::None:
    break;
  }
  trap("evaluating an empty value");
  return RtVal::ofInt(0);
}

void Interpreter::writeDest(const Value &Dest, RtVal V, Frame &Fr) {
  if (Dest.isTemp()) {
    Fr.Temps[Dest.Id] = V;
    return;
  }
  if (!Dest.isVar()) {
    trap("internal error: bad destination operand");
    return;
  }
  const VarInfo &VI = Info.var(Dest.Id);
  if (VI.Storage == StorageKind::Global) {
    if (VI.isScalar() && !VI.AddressTaken) {
      GlobalRegs[Dest.Id] = V;
      return;
    }
    std::size_t Addr = GlobalAddr.at(Dest.Id);
    Word &W = Mem[Addr];
    if (VI.Ty.isDouble())
      W.D = V.D;
    else
      W.I = V.I;
    return;
  }
  if (VI.isPromotable()) {
    Fr.RegVars[Dest.Id] = V;
    return;
  }
  std::size_t Addr = varAddr(Dest.Id, Fr);
  if (!checkAddr(Addr))
    return;
  Word &W = Mem[Addr];
  if (VI.Ty.isDouble())
    W.D = V.D;
  else
    W.I = V.I;
}

void Interpreter::pushFrame(const IRFunction *F,
                            const std::vector<RtVal> &Args, Value RetDest) {
  Frame Fr;
  Fr.F = F;
  Fr.BB = F->entry();
  Fr.IP = Fr.BB->Insts.begin();
  Fr.SavedSP = SP;
  Fr.RetDest = RetDest;

  // Allocate memory-homed locals.
  for (VarId Id : Info.func(F->Id).Locals) {
    const VarInfo &VI = Info.var(Id);
    if (VI.isPromotable())
      continue;
    std::size_t Size = VI.ArraySize ? VI.ArraySize : 1;
    if (SP + Size > Mem.size()) {
      trap("stack overflow");
      return;
    }
    for (std::size_t I = 0; I < Size; ++I)
      Mem[SP + I] = Word();
    Fr.MemVars[Id] = SP;
    SP += Size;
  }

  // Bind parameters.
  const FuncInfo &FI = Info.func(F->Id);
  for (std::size_t I = 0; I < FI.Params.size() && I < Args.size(); ++I) {
    Value P = Value::var(FI.Params[I], IRType::Int);
    writeDest(P, Args[I], Fr);
  }
  Stack.push_back(std::move(Fr));
}

void Interpreter::execute(const Instr &I, Frame &Fr, bool &Advanced) {
  Advanced = false;
  auto A = [&](unsigned N) { return eval(I.Ops[N], Fr); };

  switch (I.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem: {
    RtVal L = A(0), R = A(1);
    if (I.Ty == IRType::Double) {
      double X = L.D, Y = R.D, Z = 0;
      switch (I.Op) {
      case Opcode::Add:
        Z = X + Y;
        break;
      case Opcode::Sub:
        Z = X - Y;
        break;
      case Opcode::Mul:
        Z = X * Y;
        break;
      case Opcode::Div:
        Z = Y == 0 ? 0 : X / Y;
        break;
      default:
        trap("rem on double");
        return;
      }
      writeDest(I.Dest, RtVal::ofDouble(Z), Fr);
      break;
    }
    std::int64_t X = L.I, Y = R.I, Z = 0;
    switch (I.Op) {
    case Opcode::Add:
      Z = intarith::add(X, Y);
      break;
    case Opcode::Sub:
      Z = intarith::sub(X, Y);
      break;
    case Opcode::Mul:
      Z = intarith::mul(X, Y);
      break;
    case Opcode::Div:
      if (Y == 0) {
        trap("integer division by zero");
        return;
      }
      Z = intarith::div(X, Y);
      break;
    case Opcode::Rem:
      if (Y == 0) {
        trap("integer remainder by zero");
        return;
      }
      Z = intarith::rem(X, Y);
      break;
    default:
      break;
    }
    writeDest(I.Dest, RtVal::ofInt(Z, I.Ty), Fr);
    break;
  }
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr: {
    std::int64_t X = A(0).I, Y = A(1).I, Z = 0;
    switch (I.Op) {
    case Opcode::And:
      Z = X & Y;
      break;
    case Opcode::Or:
      Z = X | Y;
      break;
    case Opcode::Xor:
      Z = X ^ Y;
      break;
    case Opcode::Shl:
      Z = X << (Y & 63);
      break;
    case Opcode::Shr:
      Z = X >> (Y & 63);
      break;
    default:
      break;
    }
    writeDest(I.Dest, RtVal::ofInt(Z), Fr);
    break;
  }
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE: {
    RtVal L = A(0), R = A(1);
    bool IsD = I.Ops[0].Ty == IRType::Double || I.Ops[1].Ty == IRType::Double;
    bool B = false;
    if (IsD) {
      double X = L.D, Y = R.D;
      switch (I.Op) {
      case Opcode::CmpEQ:
        B = X == Y;
        break;
      case Opcode::CmpNE:
        B = X != Y;
        break;
      case Opcode::CmpLT:
        B = X < Y;
        break;
      case Opcode::CmpLE:
        B = X <= Y;
        break;
      case Opcode::CmpGT:
        B = X > Y;
        break;
      case Opcode::CmpGE:
        B = X >= Y;
        break;
      default:
        break;
      }
    } else {
      std::int64_t X = L.I, Y = R.I;
      switch (I.Op) {
      case Opcode::CmpEQ:
        B = X == Y;
        break;
      case Opcode::CmpNE:
        B = X != Y;
        break;
      case Opcode::CmpLT:
        B = X < Y;
        break;
      case Opcode::CmpLE:
        B = X <= Y;
        break;
      case Opcode::CmpGT:
        B = X > Y;
        break;
      case Opcode::CmpGE:
        B = X >= Y;
        break;
      default:
        break;
      }
    }
    writeDest(I.Dest, RtVal::ofInt(B ? 1 : 0), Fr);
    break;
  }
  case Opcode::Neg: {
    RtVal V = A(0);
    if (I.Ty == IRType::Double)
      writeDest(I.Dest, RtVal::ofDouble(-V.D), Fr);
    else
      writeDest(I.Dest, RtVal::ofInt(intarith::neg(V.I)), Fr);
    break;
  }
  case Opcode::Not:
    writeDest(I.Dest, RtVal::ofInt(~A(0).I), Fr);
    break;
  case Opcode::Copy:
    writeDest(I.Dest, A(0), Fr);
    break;
  case Opcode::CastItoD:
    writeDest(I.Dest, RtVal::ofDouble(static_cast<double>(A(0).I)), Fr);
    break;
  case Opcode::CastDtoI:
    writeDest(I.Dest,
              RtVal::ofInt(static_cast<std::int64_t>(A(0).D)), Fr);
    break;
  case Opcode::AddrOf: {
    std::size_t Addr = varAddr(I.Ops[0].Id, Fr);
    writeDest(I.Dest, RtVal::ofInt(static_cast<std::int64_t>(Addr),
                                   IRType::Ptr),
              Fr);
    break;
  }
  case Opcode::Load: {
    std::size_t Addr = static_cast<std::size_t>(A(0).I);
    if (!checkAddr(Addr))
      return;
    const Word &W = Mem[Addr];
    if (I.Ty == IRType::Double)
      writeDest(I.Dest, RtVal::ofDouble(W.D), Fr);
    else
      writeDest(I.Dest, RtVal::ofInt(W.I, I.Ty), Fr);
    break;
  }
  case Opcode::Store: {
    std::size_t Addr = static_cast<std::size_t>(A(0).I);
    if (!checkAddr(Addr))
      return;
    RtVal V = A(1);
    Word &W = Mem[Addr];
    if (I.Ty == IRType::Double)
      W.D = V.D;
    else
      W.I = V.I;
    break;
  }
  case Opcode::Call: {
    if (I.BuiltinKind == Builtin::PrintInt) {
      Result.Output.push_back(std::to_string(A(0).I));
      break;
    }
    if (I.BuiltinKind == Builtin::PrintDouble) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", A(0).D);
      Result.Output.emplace_back(Buf);
      break;
    }
    const IRFunction *Callee = nullptr;
    for (const IRFunction *G : M.Funcs)
      if (G->Id == I.Callee)
        Callee = G;
    if (!Callee) {
      trap("call to unknown function");
      return;
    }
    std::vector<RtVal> Args;
    Args.reserve(I.Ops.size());
    for (unsigned N = 0; N < I.Ops.size(); ++N)
      Args.push_back(A(N));
    if (Stack.size() >= 4096) {
      trap("call stack overflow");
      return;
    }
    // Advance the caller's IP past the call before pushing.
    ++Fr.IP;
    Advanced = true;
    pushFrame(Callee, Args, I.Dest);
    break;
  }
  case Opcode::Br:
    Fr.BB = I.Succs[0];
    Fr.IP = Fr.BB->Insts.begin();
    Advanced = true;
    break;
  case Opcode::CondBr: {
    bool Taken = A(0).I != 0;
    Fr.BB = Taken ? I.Succs[0] : I.Succs[1];
    Fr.IP = Fr.BB->Insts.begin();
    Advanced = true;
    break;
  }
  case Opcode::Ret: {
    RtVal V = I.Ops.empty() ? RtVal::ofInt(0) : A(0);
    SP = Fr.SavedSP;
    Value Dest = Fr.RetDest;
    Stack.pop_back();
    if (Stack.empty()) {
      Result.ExitValue = V.Ty == IRType::Double
                             ? static_cast<std::int64_t>(V.D)
                             : V.I;
    } else if (!Dest.isNone()) {
      writeDest(Dest, V, Stack.back());
    }
    Advanced = true;
    break;
  }
  case Opcode::DeadMarker:
  case Opcode::AvailMarker:
  case Opcode::Nop:
    break;
  case Opcode::Phi:
    // SsaDestruct always runs before the pipeline ends; a surviving phi
    // is a pipeline bug, not an executable instruction.
    trap("phi reached the interpreter (SSA not destructed)");
    break;
  }
}

ExecResult Interpreter::run() {
  // Lay out globals.
  for (VarId Id : Info.Globals) {
    const VarInfo &VI = Info.var(Id);
    if (VI.isScalar() && !VI.AddressTaken)
      continue; // Kept in GlobalRegs.
    std::size_t Size = VI.ArraySize ? VI.ArraySize : 1;
    GlobalAddr[Id] = SP;
    SP += Size;
  }
  for (const auto &[Id, Init] : M.GlobalInits) {
    const VarInfo &VI = Info.var(Id);
    RtVal V = Init.isConstDouble() ? RtVal::ofDouble(Init.DblVal)
                                   : RtVal::ofInt(Init.IntVal);
    if (VI.isScalar() && !VI.AddressTaken) {
      GlobalRegs[Id] = V;
    } else {
      Word &W = Mem[GlobalAddr[Id]];
      if (VI.Ty.isDouble())
        W.D = V.D;
      else
        W.I = V.I;
    }
  }

  const IRFunction *Main = nullptr;
  for (const IRFunction *F : M.Funcs)
    if (F->Name == "main")
      Main = F;
  if (!Main) {
    trap("no main function");
    return Result;
  }
  pushFrame(Main, {}, Value::none());

  while (!Stack.empty() && !Result.Trapped) {
    Frame &Fr = Stack.back();
    if (Fr.IP == Fr.BB->Insts.end()) {
      trap("fell off the end of a block");
      break;
    }
    const Instr &I = *Fr.IP;
    if (!I.isMark() && I.Op != Opcode::Nop) {
      if (++Result.InstrCount > MaxSteps) {
        trap("step limit exceeded (fuel budget " +
             std::to_string(MaxSteps) + " instructions)");
        break;
      }
    }
    bool Advanced = false;
    execute(I, Fr, Advanced);
    if (Result.Trapped)
      break;
    if (!Advanced)
      ++Stack.back().IP;
  }
  return Result;
}

ExecResult sldb::interpretIR(const IRModule &M, std::uint64_t MaxSteps) {
  Interpreter I(M, MaxSteps);
  return I.run();
}
