//===- core/Debugger.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Debugger.h"

#include "ir/IntArith.h"
#include "support/Stats.h"

using namespace sldb;

Debugger::Debugger(const MachineModule &MM, std::uint64_t MaxSteps)
    : MM(MM), VM(MM, MaxSteps) {
  Classifiers.resize(MM.Funcs.size());
  Addrs.resize(MM.Funcs.size());
}

Debugger::~Debugger() {
  static StatCounter &Reports = Stats::counter("debugger.scope.reports");
  static StatCounter &Hits = Stats::counter("debugger.scope.memo_hits");
  Reports.add(ScopeReports);
  Hits.add(MemoHits);
}

Debugger::AddrInfo *Debugger::addrInfo(FuncId F, std::uint32_t Local) const {
  if (F >= Addrs.size())
    return nullptr;
  std::vector<AddrInfo> &At = Addrs[F];
  if (At.empty()) {
    const MachineFunction &MF = MM.Funcs[F];
    At.resize(MF.numInstrs() + 1);
    for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
      const std::int32_t A = MF.StmtAddr[S];
      if (A >= 0 && static_cast<std::size_t>(A) < At.size() &&
          At[static_cast<std::size_t>(A)].Stmt == InvalidStmt)
        At[static_cast<std::size_t>(A)].Stmt = S;
    }
  }
  return Local < At.size() ? &At[Local] : nullptr;
}

StmtId Debugger::stmtAt(FuncId F, std::uint32_t Local) const {
  const AddrInfo *A = addrInfo(F, Local);
  return A ? A->Stmt : InvalidStmt;
}

StopReason Debugger::stepStmt() {
  // Leave the current statement boundary first: execute at least one
  // instruction before testing for a stop.
  do {
    StopReason R = VM.step();
    if (R != StopReason::Running)
      return R;
  } while (stmtAt(VM.pc().Func, VM.pc().Local) == InvalidStmt);
  VM.noteStop();
  return VM.state();
}

const Classifier &Debugger::classifier(FuncId F) const {
  if (!Classifiers[F]) {
    Classifiers[F] = std::make_unique<Classifier>(MM.Funcs[F], *MM.Info);
    if (ForceDegraded)
      Classifiers[F]->degradeAllVariables();
  }
  return *Classifiers[F];
}

void Debugger::degradeAllVariables() {
  ForceDegraded = true;
  for (auto &C : Classifiers)
    if (C)
      C->degradeAllVariables();
  // The memoized verdicts are the intact ones.
  for (std::vector<AddrInfo> &At : Addrs)
    for (AddrInfo &A : At)
      A.Memo = NotStopped;
  Memos.clear();
}

bool Debugger::setBreakpointAtStmt(FuncId F, StmtId S) {
  const MachineFunction &MF = MM.Funcs[F];
  if (S >= MF.StmtAddr.size() || MF.StmtAddr[S] < 0)
    return false;
  VM.setBreakpoint({F, static_cast<std::uint32_t>(MF.StmtAddr[S])});
  return true;
}

void Debugger::breakEverywhere() {
  for (FuncId F = 0; F < MM.Funcs.size(); ++F)
    for (StmtId S = 0; S < MM.Funcs[F].StmtAddr.size(); ++S)
      setBreakpointAtStmt(F, S);
}

std::optional<StmtId> Debugger::currentStmt() const {
  if (ended())
    return std::nullopt;
  const StmtId S = stmtAt(VM.pc().Func, VM.pc().Local);
  if (S == InvalidStmt)
    return std::nullopt;
  return S;
}

bool Debugger::readStorage(const VarStorage &S, bool IsDouble,
                           std::int64_t &I, double &D) const {
  switch (S.K) {
  case VarStorage::Kind::None:
    return false;
  case VarStorage::Kind::InReg:
    if (S.R.Cls == RegClass::Fp)
      D = VM.readFpReg(S.R.N);
    else
      I = VM.readIntReg(S.R.N);
    return true;
  case VarStorage::Kind::Frame: {
    std::size_t Addr = VM.framePointer() + static_cast<std::size_t>(S.Frame);
    if (IsDouble)
      D = VM.readMemDouble(Addr);
    else
      I = VM.readMemInt(Addr);
    return true;
  }
  case VarStorage::Kind::GlobalMem:
    if (IsDouble)
      D = VM.readMemDouble(S.GlobalAddr);
    else
      I = VM.readMemInt(S.GlobalAddr);
    return true;
  }
  return false;
}

bool Debugger::readRecovery(const MRecovery &R, std::int64_t &I, double &D,
                            bool &IsDouble) const {
  switch (R.K) {
  case MRecovery::Kind::None:
    return false;
  case MRecovery::Kind::Imm:
    I = R.Imm;
    IsDouble = false;
    return true;
  case MRecovery::Kind::FImm:
    D = R.FImm;
    IsDouble = true;
    return true;
  case MRecovery::Kind::InReg:
    // Defensive: a corrupted annotation may name a register that does
    // not exist; refuse the recovery rather than show a fabricated 0
    // (the VM read itself is bounds-clamped as a second line).
    if (!R.R.isValid() || R.R.isVirtual() ||
        R.R.N >= (R.R.Cls == RegClass::Fp ? R3K::NumFpRegs
                                          : R3K::NumIntRegs))
      return false;
    if (R.R.Cls == RegClass::Fp) {
      D = VM.readFpReg(R.R.N);
      IsDouble = true;
    } else {
      I = intarith::div(VM.readIntReg(R.R.N), R.Scale == 0 ? 1 : R.Scale);
      IsDouble = false;
    }
    return true;
  case MRecovery::Kind::InFrame: {
    if (R.Frame < 0) {
      // Global variable source.
      const std::size_t Addr = MM.globalAddr(static_cast<VarId>(R.Imm));
      if (Addr == MachineModule::NoGlobal)
        return false;
      I = VM.readMemInt(Addr);
      IsDouble = false;
      return true;
    }
    std::size_t Addr = VM.framePointer() + static_cast<std::size_t>(R.Frame);
    I = intarith::div(VM.readMemInt(Addr), R.Scale == 0 ? 1 : R.Scale);
    IsDouble = false;
    return true;
  }
  }
  return false;
}

Debugger::StaticReport Debugger::describeVar(const Classifier &C, VarId V,
                                             const Classification &Class) const {
  const VarInfo &VI = MM.Info->var(V);
  StaticReport S;
  VarReport &R = S.Report;
  R.Var = V;
  R.Class = Class;
  R.IsDouble = VI.Ty.isDouble();

  if (R.Class.Recoverable) {
    // The variable is aliased to a surviving expression: show the
    // expected value reconstructed per paper §2.5.
    S.Src = ValueSource::Recovery;
    return S;
  }
  switch (R.Class.Kind) {
  case VarClass::Uninitialized:
  case VarClass::Nonresident:
    break;
  case VarClass::Noncurrent:
  case VarClass::Suspect:
  case VarClass::Current:
    // Show the actual value from the variable's storage.
    S.Src = ValueSource::Home;
    if (VI.Storage == StorageKind::Global) {
      S.Home.K = VarStorage::Kind::GlobalMem;
      const std::size_t Addr = MM.globalAddr(V);
      if (Addr != MachineModule::NoGlobal)
        S.Home.GlobalAddr = Addr;
    } else if (const VarStorage *Home = C.storage(V)) {
      S.Home = *Home;
    }
    break;
  }
  return S;
}

void Debugger::readValue(const StaticReport &S, VarReport &R) const {
  switch (S.Src) {
  case ValueSource::None:
    break;
  case ValueSource::Home:
    R.HasValue = readStorage(S.Home, R.IsDouble, R.IntValue, R.DoubleValue);
    break;
  case ValueSource::Recovery:
    R.HasValue = readRecovery(R.Class.Recovery, R.IntValue, R.DoubleValue,
                              R.IsDouble);
    break;
  }
}

VarReport Debugger::reportVar(const Classifier &C, VarId V) const {
  StaticReport S = describeVar(C, V, C.classify(VM.pc().Local, V));
  readValue(S, S.Report);
  return S.Report;
}

bool Debugger::peekStorage(VarId V, bool &IsDouble, std::int64_t &I,
                           double &D) const {
  const MachineFunction &MF = MM.Funcs[VM.pc().Func];
  const VarInfo &VI = MM.Info->var(V);
  IsDouble = VI.Ty.isDouble();
  VarStorage S;
  if (VI.Storage == StorageKind::Global) {
    S.K = VarStorage::Kind::GlobalMem;
    S.GlobalAddr = MM.globalAddr(V);
    if (S.GlobalAddr == MachineModule::NoGlobal)
      return false;
  } else {
    auto It = MF.Storage.find(V);
    if (It == MF.Storage.end())
      return false;
    S = It->second;
  }
  return readStorage(S, IsDouble, I, D);
}

std::optional<VarReport> Debugger::queryVariable(
    const std::string &Name) const {
  if (ended())
    return std::nullopt;
  FuncId F = VM.pc().Func;
  // Locals shadow globals.
  for (VarId V : MM.Info->func(F).Locals)
    if (MM.Info->var(V).Name == Name)
      return reportVar(classifier(F), V);
  for (VarId V : MM.Info->Globals)
    if (MM.Info->var(V).Name == Name)
      return reportVar(classifier(F), V);
  return std::nullopt;
}

std::optional<Explanation> Debugger::explainVariable(
    const std::string &Name) const {
  if (ended())
    return std::nullopt;
  FuncId F = VM.pc().Func;
  const Classifier &C = classifier(F);
  // Locals shadow globals, as in queryVariable.
  for (VarId V : MM.Info->func(F).Locals)
    if (MM.Info->var(V).Name == Name)
      return C.explain(VM.pc().Local, V);
  for (VarId V : MM.Info->Globals)
    if (MM.Info->var(V).Name == Name)
      return C.explain(VM.pc().Local, V);
  return std::nullopt;
}

std::vector<VarReport> Debugger::reportScope() const {
  std::vector<VarReport> Out;
  if (ended())
    return Out;
  ++ScopeReports;
  const FuncId F = VM.pc().Func;
  AddrInfo *A = addrInfo(F, VM.pc().Local);
  if (!A || A->Stmt == InvalidStmt)
    return Out;
  if (A->Memo >= FirstMemo) {
    ++MemoHits;
    const std::vector<StaticReport> &Entry = Memos[A->Memo - FirstMemo];
    Out.reserve(Entry.size());
    for (const StaticReport &S : Entry)
      readValue(S, Out.emplace_back(S.Report));
    return Out;
  }
  // A first stop here reports as it goes; the second also memoizes, so a
  // session that stops once per address (an open) never copies a report.
  std::vector<StaticReport> *Entry = nullptr;
  if (A->Memo == StoppedOnce) {
    A->Memo = FirstMemo + static_cast<std::uint32_t>(Memos.size());
    Entry = &Memos.emplace_back();
  } else {
    A->Memo = StoppedOnce;
  }
  const std::vector<VarId> &Scope = MM.Info->func(F).Stmts[A->Stmt].ScopeVars;
  if (Scope.empty())
    return Out;
  const Classifier &C = classifier(F);
  C.classifyAll(VM.pc().Local, Scope, ScopeClasses);
  Out.reserve(Scope.size());
  if (Entry)
    Entry->reserve(Scope.size());
  for (std::size_t I = 0; I < Scope.size(); ++I) {
    StaticReport S = describeVar(C, Scope[I], ScopeClasses[I]);
    readValue(S, Out.emplace_back(S.Report));
    if (Entry)
      Entry->push_back(S);
  }
  return Out;
}
