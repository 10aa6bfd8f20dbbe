//===- fuzz/Oracle.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/Dataflow.h"
#include "support/FaultInjector.h"

using namespace sldb;

namespace {

//===----------------------------------------------------------------------===//
// All-paths initialization over the unoptimized build
//===----------------------------------------------------------------------===//

/// Intersect-meet variant of the classifier's init reach, computed on the
/// oracle (unoptimized) machine code: a set bit means every path from
/// entry to the block performs the definition.  The unoptimized build has
/// no markers, so the GEN sets reduce to real assignments.  The fact
/// universe is the function's scalar locals, reached from a VarId through
/// a dense index.
class AllPathsInit {
public:
  AllPathsInit(const MachineFunction &MF, const ProgramInfo &Info) : MF(MF) {
    unsigned NumBlocks = static_cast<unsigned>(MF.Blocks.size());
    std::vector<std::vector<unsigned>> Preds(NumBlocks), Succs(NumBlocks);
    std::vector<unsigned> Exits;
    for (unsigned B = 0; B < NumBlocks; ++B) {
      for (unsigned S : MF.Blocks[B].Succs)
        Succs[B].push_back(S);
      for (unsigned P : MF.Blocks[B].Preds)
        Preds[B].push_back(P);
      if (!MF.Blocks[B].Insts.empty() &&
          MF.Blocks[B].Insts.back().Op == MOp::RET)
        Exits.push_back(B);
    }
    unsigned Universe = 0;
    for (VarId V : Info.func(MF.Id).Locals)
      if (Info.var(V).isScalar() && index(V) == NoIndex) {
        if (V >= Index.size())
          Index.resize(V + 1, NoIndex);
        Index[V] = Universe++;
      }

    DataflowProblem P;
    P.Dir = FlowDir::Forward;
    P.Meet = FlowMeet::Intersect;
    P.Universe = Universe;
    P.Gen.assign(NumBlocks, BitVector(P.Universe));
    P.Kill.assign(NumBlocks, BitVector(P.Universe));
    P.Boundary = BitVector(P.Universe);
    for (unsigned B = 0; B < NumBlocks; ++B)
      for (const MInstr &I : MF.Blocks[B].Insts)
        if (unsigned X = index(I.DestVar); X != NoIndex)
          P.Gen[B].set(X);
    In = solveDataflowGeneric(NumBlocks, Preds, Succs, Exits, P).In;
  }

  /// Moves to \p Addr: the facts every path to (and through the block
  /// prefix before) it establishes.
  void seek(std::uint32_t Addr) {
    unsigned B = 0;
    while (B + 1 < MF.Blocks.size() && MF.BlockAddr[B + 1] <= Addr)
      ++B;
    State = In[B];
    std::uint32_t A = MF.BlockAddr[B];
    for (const MInstr &I : MF.Blocks[B].Insts) {
      if (A >= Addr)
        break;
      if (unsigned X = index(I.DestVar); X != NoIndex)
        State.set(X);
      ++A;
    }
  }

  /// Whether every path to the address of the last seek() defines \p V.
  /// Variables outside the universe (globals, aggregates, other
  /// functions' locals) are never provably initialized here.
  bool initialized(VarId V) const {
    unsigned X = index(V);
    return X != NoIndex && State.test(X);
  }

private:
  static constexpr unsigned NoIndex = ~0u;

  unsigned index(VarId V) const {
    return V < Index.size() ? Index[V] : NoIndex;
  }

  const MachineFunction &MF;
  std::vector<unsigned> Index; ///< VarId -> fact, NoIndex outside.
  std::vector<BitVector> In;
  BitVector State;
};

/// What the optimized build's debug tables claim about residence at an
/// address — the ground truth the Nonresident verdict is checked against
/// (same rule as the classifier's residence step, recomputed here
/// independently of the verdict).
bool tableResident(const MachineFunction &MF, const ProgramInfo &Info,
                   std::uint32_t Addr, VarId V) {
  if (Info.var(V).Storage == StorageKind::Global)
    return true;
  auto SIt = MF.Storage.find(V);
  if (SIt == MF.Storage.end() || SIt->second.K == VarStorage::Kind::None)
    return false;
  if (SIt->second.K != VarStorage::Kind::InReg)
    return true; // Frame/global memory: resident once initialized.
  auto RIt = MF.ResidentAt.find(V);
  return RIt != MF.ResidentAt.end() && Addr < RIt->second.size() &&
         RIt->second.test(Addr);
}

/// The optimized half of SharedBuilds, with the firing counts when
/// \p Firings is given.
Expected<std::unique_ptr<IRModule>>
compileOptimized(std::string_view Src, const OptOptions &Opts,
                 std::vector<PassFiring> *Firings) {
  PipelineStats Stats;
  Expected<std::unique_ptr<IRModule>> IR =
      compileOptimizedIR(Src, Opts, nullptr, {}, Firings ? &Stats : nullptr);
  if (Firings)
    for (const PassSlotStats &Slot : Stats.Slots)
      Firings->push_back({Slot.Name, Slot.Changed});
  return IR;
}

/// The reference build, compiled with the FaultInjector suspended.
Expected<CompiledModule> compileReference(std::string_view Src) {
  FaultInjector::suspend();
  Expected<CompiledModule> Ref =
      compileModule(Src, OptOptions::none(), {false, false});
  FaultInjector::resume();
  if (!Ref)
    return Status::error(Ref.status().code(),
                         "oracle build: " + Ref.status().message());
  return Ref;
}

} // namespace

SharedBuilds::SharedBuilds(std::string_view Src, const OptOptions &Opts,
                           bool Instrument)
    : OptIR(compileOptimized(Src, Opts, Instrument ? &Firings : nullptr)),
      Ref(OptIR ? compileReference(Src)
                : Expected<CompiledModule>(OptIR.status())) {}

Expected<MachineModule> SharedBuilds::lower(bool Promote) const {
  if (!OptIR)
    return OptIR.status();
  Expected<MachineModule> Opt =
      lowerModule(*OptIR.value(), {Promote, /*Schedule=*/false});
  if (Opt && !Ref)
    return Ref.status();
  return Opt;
}

LockstepResult sldb::runLockstep(std::string_view Src,
                                 const LockstepOptions &O) {
  return runLockstep(SharedBuilds(Src, O.Opts, O.InstrumentPasses), O);
}

LockstepResult sldb::runLockstep(const SharedBuilds &B,
                                 const LockstepOptions &O) {
  Expected<MachineModule> Opt = B.lower(O.Promote);
  if (!Opt) {
    LockstepResult R;
    R.CompileError = Opt.status().str();
    return R;
  }
  LockstepResult R = runLockstep(B.builds(*Opt), O);
  if (O.InstrumentPasses)
    R.Firings = B.firings();
  return R;
}

LockstepResult sldb::runLockstep(const LockstepBuilds &B,
                                 const LockstepOptions &O) {
  LockstepResult R;
  const MachineModule &MMO = B.Ref;
  const MachineModule &MM2 = B.Opt;
  R.Compiled = true;

  // Machine-level evidence of the endangering transformations.
  for (const MachineFunction &MF : MM2.Funcs)
    for (const MachineBlock &MB : MF.Blocks)
      for (const MInstr &I : MB.Insts) {
        if (I.IsHoisted)
          ++R.NumHoisted;
        if (I.IsSunk)
          ++R.NumSunk;
        if (I.Op == MOp::MDEAD)
          ++R.NumDeadMarks;
        if (I.Op == MOp::MAVAIL)
          ++R.NumAvailMarks;
      }
  for (const auto &F : B.OptIR.Funcs)
    R.NumSRRecords += static_cast<unsigned>(F->SRRecords.size());

  // Suspend faults around the oracle debugger's construction too: the
  // VM-trap fault arms at Machine construction and must not fire in the
  // ground-truth run.
  FaultInjector::suspend();
  Debugger Expected(MMO, O.Fuel);
  FaultInjector::resume();
  Debugger Opt(MM2, O.Fuel);
  Expected.breakEverywhere();
  Opt.breakEverywhere();

  std::vector<std::unique_ptr<AllPathsInit>> Init(MMO.Funcs.size());

  StopReason RO = Expected.run();
  StopReason R2 = Opt.run();
  // The iteration bound also covers oracle-only stops (vanished
  // statements), which do not produce observations.
  unsigned Iter = 0, IterMax = O.MaxStops * 4 + 64;
  while (RO == StopReason::Breakpoint && R2 == StopReason::Breakpoint &&
         R.Stops.size() < O.MaxStops && ++Iter < IterMax) {
    auto SO = Expected.currentStmt();
    auto S2 = Opt.currentStmt();
    if (!SO || !S2) {
      R.PairError = "breakpoint stop without a statement mapping";
      break;
    }
    if (Expected.currentFunction() != Opt.currentFunction() || *SO != *S2) {
      // Statements whose code vanished entirely from the optimized build
      // (folded branches, merged blocks) stop only the oracle; skip them.
      const MachineFunction &OptF =
          Opt.module().Funcs[Expected.currentFunction()];
      bool Vanished =
          *SO >= OptF.StmtAddr.size() || OptF.StmtAddr[*SO] < 0;
      if (!Vanished) {
        R.PairError = "stop sequences diverged: oracle at " +
                      MMO.Funcs[Expected.currentFunction()].Name + " s" +
                      std::to_string(*SO) + ", optimized at " +
                      MM2.Funcs[Opt.currentFunction()].Name + " s" +
                      std::to_string(*S2);
        break;
      }
      RO = Expected.resume();
      continue;
    }

    StopObservation Stop;
    Stop.Func = Expected.currentFunction();
    Stop.Stmt = *SO;

    std::vector<VarReport> ScopeO = Expected.reportScope();
    std::vector<VarReport> Scope2 = Opt.reportScope();
    if (ScopeO.size() != Scope2.size()) {
      R.PairError = "scope size mismatch at s" + std::to_string(*SO);
      break;
    }

    const MachineFunction &MF2 = MM2.Funcs[Stop.Func];
    std::unique_ptr<AllPathsInit> &FuncInit = Init[Stop.Func];
    if (!FuncInit)
      FuncInit = std::make_unique<AllPathsInit>(MMO.Funcs[Stop.Func],
                                                *MMO.Info);
    FuncInit->seek(Expected.machine().pc().Local);
    std::uint32_t Addr2 = Opt.machine().pc().Local;

    Stop.Vars.reserve(Scope2.size());
    for (std::size_t I = 0; I < Scope2.size(); ++I) {
      const VarId V = Scope2[I].Var;
      if (ScopeO[I].Var != V) {
        R.PairError = "scope variable mismatch at s" + std::to_string(*SO);
        break;
      }
      VarObservation &VO = Stop.Vars.emplace_back();
      VO.OptTableResident = tableResident(MF2, *MM2.Info, Addr2, V);
      VO.ExpectedInitAllPaths = FuncInit->initialized(V);
      VO.RawValid =
          Opt.peekStorage(V, VO.RawIsDouble, VO.RawInt, VO.RawDouble);
      VO.IsPtr = MM2.Info->var(V).Ty.Kind == TypeKind::Ptr;
      VO.Expected = std::move(ScopeO[I]);
      VO.Opt = std::move(Scope2[I]);
    }
    if (!R.PairError.empty())
      break;
    R.Stops.push_back(std::move(Stop));

    RO = Expected.resume();
    R2 = Opt.resume();
  }

  // Drain to completion so the end states compare program behavior, not
  // the observation cap.  (A run still at a breakpoint after the drain
  // bound is reported as-is.)
  for (unsigned G = 0; RO == StopReason::Breakpoint && G < 200000; ++G)
    RO = Expected.resume();
  for (unsigned G = 0; R2 == StopReason::Breakpoint && G < 200000; ++G)
    R2 = Opt.resume();

  R.ExpectedEnd = RO;
  R.OptEnd = R2;
  R.ExpectedExit = Expected.machine().exitValue();
  R.OptExit = Opt.machine().exitValue();
  R.ExpectedOutput = Expected.machine().outputText();
  R.OptOutput = Opt.machine().outputText();
  return R;
}
