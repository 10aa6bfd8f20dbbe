//===- fuzz/Oracle.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/Dataflow.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"

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
    // The solver reads the blocks' own edge lists; a forward problem
    // needs no exit list.
    DataflowResult R;
    solveDataflowGeneric(
        NumBlocks,
        [&](unsigned B) -> const auto & { return MF.Blocks[B].Preds; },
        [&](unsigned B) -> const auto & { return MF.Blocks[B].Succs; },
        /*Exits=*/{}, P, R);
    In = std::move(R.In);
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

/// SharedBuilds' modules, with the firing counts when \p Firings is
/// given and the reference's error prefixed.
IRWithReference compileShared(std::string_view Src, const OptOptions &Opts,
                              std::vector<PassFiring> *Firings) {
  PipelineStats Stats;
  IRWithReference B = compileWithReference(
      Src, Opts, {/*PromoteVars=*/false, /*Schedule=*/false},
      Firings ? &Stats : nullptr);
  if (Firings)
    for (const PassSlotStats &Slot : Stats.Slots)
      Firings->push_back({Slot.Name, Slot.Changed});
  if (B.OptIR && !B.Ref)
    B.Ref = Status::error(B.Ref.status().code(),
                          "oracle build: " + B.Ref.status().message());
  return B;
}

} // namespace

ReferenceRecording::ReferenceRecording(const MachineModule &Ref,
                                       std::uint64_t Fuel, unsigned MaxStops)
    : Ref(Ref), Fuel(Fuel), MaxStops(MaxStops) {
  static StatCounter &Runs = Stats::counter("lockstep.reference_runs");
  Runs.add();
  // A pairing reads at most this many stops (runLockstep's iteration
  // bound), and its drain ends at most DrainResumes stops later.
  const std::size_t Reads = std::size_t(MaxStops) * 4 + 64;
  const std::size_t Last = Reads - 1 + DrainResumes;

  FaultInjector::suspend();
  {
    Debugger D(Ref, Fuel);
    D.breakEverywhere();
    std::vector<std::unique_ptr<AllPathsInit>> Init(Ref.Funcs.size());
    const std::vector<std::string> &Lines = D.machine().output();
    std::size_t OutputBytes = 0, OutputLines = 0;
    StopReason S = D.run();
    std::size_t J = 0;
    for (; S == StopReason::Breakpoint; ++J) {
      if (J < Reads) {
        Stop &St = Stops.emplace_back();
        St.Func = D.currentFunction();
        St.FirstReport = static_cast<std::uint32_t>(Reports.size());
        if (std::optional<StmtId> Stmt = D.currentStmt()) {
          St.Stmt = *Stmt;
          std::unique_ptr<AllPathsInit> &FuncInit = Init[St.Func];
          if (!FuncInit)
            FuncInit =
                std::make_unique<AllPathsInit>(Ref.Funcs[St.Func], *Ref.Info);
          FuncInit->seek(D.machine().pc().Local);
          for (const VarReport &R : D.reportScope()) {
            Reports.push_back(R);
            InitAllPaths.push_back(FuncInit->initialized(R.Var));
          }
          St.NumReports =
              static_cast<std::uint32_t>(Reports.size()) - St.FirstReport;
        }
      }
      if (J >= DrainResumes) {
        for (; OutputLines < Lines.size(); ++OutputLines)
          OutputBytes += Lines[OutputLines].size() + 1;
        Cuts.push_back({OutputBytes, D.machine().exitValue()});
      }
      if (J == Last)
        break;
      S = D.resume();
    }
    Ended = S != StopReason::Breakpoint;
    NumStops = J;
    EndState = S;
    EndExit = D.machine().exitValue();
    Output = D.machine().outputText();
  }
  FaultInjector::resume();
}

void ReferenceRecording::end(std::size_t K, LockstepResult &R) const {
  if (Ended && K + DrainResumes >= NumStops) {
    R.ExpectedEnd = EndState;
    R.ExpectedExit = EndExit;
    R.ExpectedOutput = Output;
    return;
  }
  R.ExpectedEnd = StopReason::Breakpoint;
  R.ExpectedExit = Cuts[K].Exit;
  R.ExpectedOutput = Output.substr(0, Cuts[K].OutputBytes);
}

SharedBuilds::SharedBuilds(std::string_view Src, const OptOptions &Opts,
                           bool Instrument)
    : Built(compileShared(Src, Opts, Instrument ? &Firings : nullptr)) {}

Expected<MachineModule> SharedBuilds::lower(bool Promote) const {
  if (!Built.OptIR)
    return Built.OptIR.status();
  Expected<MachineModule> Opt =
      lowerModule(*Built.OptIR.value(), {Promote, /*Schedule=*/false});
  if (Opt && !Built.Ref)
    return Built.Ref.status();
  return Opt;
}

const ReferenceRecording &
SharedBuilds::recording(const LockstepOptions &O) const {
  if (!Recorded || !Recorded->serves(O))
    Recorded.emplace(reference(), O.Fuel, O.MaxStops);
  return *Recorded;
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
  LockstepResult R = runLockstep(B.builds(*Opt, O), O);
  if (O.InstrumentPasses)
    R.Firings = B.firings();
  return R;
}

LockstepResult sldb::runLockstep(const LockstepBuilds &B,
                                 const LockstepOptions &O) {
  LockstepResult R;
  const ReferenceRecording &Ref = B.Ref;
  const MachineModule &MMO = Ref.module();
  const MachineModule &MM2 = B.Opt;
  R.Compiled = true;
  if (!Ref.serves(O)) {
    R.PairError = "the reference was recorded for another fuel or stop cap";
    return R;
  }
  R.VarNames.reserve(MM2.Info->Vars.size());
  for (const VarInfo &VI : MM2.Info->Vars)
    R.VarNames.push_back(VI.Name);

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

  Debugger Opt(MM2, O.Fuel);
  Opt.breakEverywhere();

  // K is the reference's stop: the number of times the pairing resumed
  // it.
  std::size_t K = 0;
  StopReason R2 = Opt.run();
  // The iteration bound also covers oracle-only stops (vanished
  // statements), which do not produce observations.
  unsigned Iter = 0, IterMax = O.MaxStops * 4 + 64;
  while (Ref.atBreakpoint(K) && R2 == StopReason::Breakpoint &&
         R.Stops.size() < O.MaxStops && ++Iter < IterMax) {
    const ReferenceRecording::Stop &SO = Ref.stop(K);
    auto S2 = Opt.currentStmt();
    if (SO.Stmt == InvalidStmt || !S2) {
      R.PairError = "breakpoint stop without a statement mapping";
      break;
    }
    if (SO.Func != Opt.currentFunction() || SO.Stmt != *S2) {
      // Statements whose code vanished entirely from the optimized build
      // (folded branches, merged blocks) stop only the oracle; skip them.
      const MachineFunction &OptF = MM2.Funcs[SO.Func];
      bool Vanished =
          SO.Stmt >= OptF.StmtAddr.size() || OptF.StmtAddr[SO.Stmt] < 0;
      if (!Vanished) {
        R.PairError = "stop sequences diverged: oracle at " +
                      MMO.Funcs[SO.Func].Name + " s" +
                      std::to_string(SO.Stmt) + ", optimized at " +
                      MM2.Funcs[Opt.currentFunction()].Name + " s" +
                      std::to_string(*S2);
        break;
      }
      ++K;
      continue;
    }

    StopObservation Stop;
    Stop.Func = SO.Func;
    Stop.Stmt = SO.Stmt;

    const VarReport *ScopeO = Ref.reports().data() + SO.FirstReport;
    std::vector<VarReport> Scope2 = Opt.reportScope();
    if (SO.NumReports != Scope2.size()) {
      R.PairError = "scope size mismatch at s" + std::to_string(SO.Stmt);
      break;
    }

    const MachineFunction &MF2 = MM2.Funcs[Stop.Func];
    std::uint32_t Addr2 = Opt.machine().pc().Local;

    Stop.Vars.reserve(Scope2.size());
    for (std::size_t I = 0; I < Scope2.size(); ++I) {
      const VarId V = Scope2[I].Var;
      if (ScopeO[I].Var != V) {
        R.PairError = "scope variable mismatch at s" + std::to_string(SO.Stmt);
        break;
      }
      VarObservation &VO = Stop.Vars.emplace_back();
      VO.OptTableResident = tableResident(MF2, *MM2.Info, Addr2, V);
      VO.ExpectedInitAllPaths = Ref.initAllPaths(SO.FirstReport + I);
      VO.RawValid =
          Opt.peekStorage(V, VO.RawIsDouble, VO.RawInt, VO.RawDouble);
      VO.IsPtr = MM2.Info->var(V).Ty.Kind == TypeKind::Ptr;
      VO.Expected = ScopeO[I];
      VO.Opt = Scope2[I];
    }
    if (!R.PairError.empty())
      break;
    R.Stops.push_back(std::move(Stop));

    ++K;
    R2 = Opt.resume();
  }

  // Drain to completion so the end states compare program behavior, not
  // the observation cap.  (A run still at a breakpoint after the drain
  // bound is reported as-is.)  The recording holds the reference's.
  Ref.end(K, R);
  for (std::size_t G = 0; R2 == StopReason::Breakpoint &&
                          G < ReferenceRecording::DrainResumes;
       ++G)
    R2 = Opt.resume();

  R.OptEnd = R2;
  R.OptExit = Opt.machine().exitValue();
  R.OptOutput = Opt.machine().outputText();
  return R;
}
