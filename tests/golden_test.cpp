//===- tests/golden_test.cpp -----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Refactor-safety goldens: the optimized IR of the eight eval programs
/// and the verdict digest of a fixed-seed differential-fuzzing campaign,
/// captured before the pass/analysis-manager refactor and checked in
/// under tests/golden/.  Any infrastructure change that alters what the
/// optimizer produces — not just whether it crashes — fails here with a
/// diff.  Regenerate deliberately (see tests/golden/README note in
/// DESIGN.md §7) only when an *optimization* change is intended.
///
/// The back-end digest pins what the register allocator, the scheduler
/// and the residence/recovery tables produce, at every pipeline level,
/// so a rewrite of the back end's inner loops must stay byte-identical.
/// The spill digest pins the same for two inputs that spill at every
/// level, since the back-end corpus never runs out of registers.
/// The classifier digest pins every verdict and path fact the classifier
/// explains over the same corpus, so a rewrite of its data flow must
/// stay byte-identical too.  The frontend digest pins the symbol tables
/// (every variable, function and statement with its location and scope
/// snapshot) and the full text of every frontend diagnostic, so a
/// rewrite of the lexer, parser or Sema must stay byte-identical.  The
/// lockstep digest pins every field of every lockstep result of the
/// differential and cross-level campaigns' runs and of the oracle's edges
/// (drain bound, traps, fuel, stop cap, oracle-only stops), so a rewrite
/// of how the oracle runs its reference must stay byte-identical.
///
//===----------------------------------------------------------------------===//

#include "BackendDigest.h"
#include "codegen/ISel.h"
#include "core/Classifier.h"
#include "eval/CrossLevel.h"
#include "eval/Levels.h"
#include "eval/Programs.h"
#include "fuzz/Campaign.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "opt/Pass.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef SLDB_INPUT_DIR
#error "SLDB_INPUT_DIR must point at tests/inputs"
#endif
#ifndef SLDB_CRASH_DIR
#error "SLDB_CRASH_DIR must point at tests/crashes"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(SLDB_GOLDEN_DIR) + "/" + Name;
}

std::string readGolden(const std::string &Name) {
  std::ifstream In(goldenPath(Name));
  EXPECT_TRUE(In) << "missing golden file " << goldenPath(Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(Golden, OptimizedIRofEvalPrograms) {
  for (const BenchProgram &P : benchmarkPrograms()) {
    DiagnosticEngine Diags;
    auto M = compileToIR(P.Source, Diags);
    ASSERT_TRUE(M) << P.Name << ": " << Diags.str();
    ASSERT_TRUE(runPipelineEx(*M, OptOptions::all(), PipelineConfig()).ok());
    std::string Got = printModule(*M);
    std::string Want = readGolden(std::string(P.Name) + ".ir");
    EXPECT_EQ(Got, Want)
        << "optimized IR of eval program '" << P.Name
        << "' changed; if the optimizer change is intentional, regenerate "
           "tests/golden/";
  }
}

TEST(Golden, FixedSeedCampaignDigest) {
  CampaignConfig C;
  C.Seed = 7;
  C.Count = 40;
  C.Shrink = false;
  C.WriteFailures = false;
  CampaignResult R = runCampaign(C);

  std::ostringstream Dig;
  Dig << "programs " << R.Programs << "\n"
      << "runs " << R.Runs << "\n"
      << "failed_compiles " << R.FailedCompiles << "\n"
      << "stops " << R.Stops << "\n"
      << "observations " << R.Observations << "\n"
      << "failures " << R.Failures.size() << "\n"
      << "with_hoisted " << R.Coverage.WithHoisted << "\n"
      << "with_sunk " << R.Coverage.WithSunk << "\n"
      << "with_dead_marks " << R.Coverage.WithDeadMarks << "\n"
      << "with_avail_marks " << R.Coverage.WithAvailMarks << "\n"
      << "with_sr_records " << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    Dig << "firing " << F.Name << " " << F.Changed << "\n";

  EXPECT_EQ(Dig.str(), readGolden("campaign_digest.txt"))
      << "fixed-seed campaign digest changed: the refactor altered "
         "optimizer decisions or debugger verdicts";
}

// Wider net for storage-layer refactors: 200 generated programs instead
// of 40, captured before the arena/instruction-pool rework.  The digest
// summarizes optimizer firings and debugger verdicts, so it is sensitive
// to any behavioral drift in IR storage, pass order, or classification —
// while staying byte-stable across pure memory-layout changes.
TEST(Golden, ArenaRefactorCampaignDigest200) {
  CampaignConfig C;
  C.Seed = 1;
  C.Count = 200;
  C.Shrink = false;
  C.WriteFailures = false;
  CampaignResult R = runCampaign(C);

  std::ostringstream Dig;
  Dig << "programs " << R.Programs << "\n"
      << "runs " << R.Runs << "\n"
      << "failed_compiles " << R.FailedCompiles << "\n"
      << "stops " << R.Stops << "\n"
      << "observations " << R.Observations << "\n"
      << "failures " << R.Failures.size() << "\n"
      << "with_hoisted " << R.Coverage.WithHoisted << "\n"
      << "with_sunk " << R.Coverage.WithSunk << "\n"
      << "with_dead_marks " << R.Coverage.WithDeadMarks << "\n"
      << "with_avail_marks " << R.Coverage.WithAvailMarks << "\n"
      << "with_sr_records " << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    Dig << "firing " << F.Name << " " << F.Changed << "\n";

  EXPECT_EQ(Dig.str(), readGolden("campaign_digest_200.txt"))
      << "200-seed campaign digest changed: the arena/instruction-pool "
         "refactor altered optimizer decisions or debugger verdicts";
}

/// One digest line: "<program> <level> <hash>".
std::string digestLine(const std::string &Name, const LevelSpec &Spec,
                       const Fnv1a &H) {
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(H.H));
  return Name + " " + Spec.Name + " " + Hex + "\n";
}

/// Compares \p Dig with golden \p Name, or rewrites the golden when
/// SLDB_UPDATE_GOLDENS is set.
void checkDigest(const std::string &Dig, const std::string &Name,
                 const char *Changed) {
  const std::string Path = goldenPath(Name);
  const char *Update = std::getenv("SLDB_UPDATE_GOLDENS");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Dig;
    return;
  }
  EXPECT_EQ(Dig, readGolden(Name)) << Changed;
}

// Back-end identity: one FNV-1a line per (program, level) over every
// function's machine code, frame size, statement map, storage, residence
// and recovery-validity tables, with scheduling on and off folded into
// the one hash.  Every build must also run to the unoptimized IR's
// output and exit value.
TEST(Golden, BackendDigest) {
  std::string Dig;
  for (const auto &[Name, Src] : digestCorpus()) {
    DiagnosticEngine Diags;
    auto Ref = compileToIR(Src, Diags);
    ASSERT_TRUE(Ref) << Name << ": " << Diags.str();
    ExecResult Oracle = interpretIR(*Ref);
    ASSERT_FALSE(Oracle.Trapped) << Name << ": " << Oracle.TrapMsg;
    for (const LevelSpec &Spec : pipelineLevels()) {
      SCOPED_TRACE(Name + " at " + Spec.Name);
      auto M = compileToIR(Src, Diags);
      ASSERT_TRUE(M);
      ASSERT_TRUE(runPipelineEx(*M, Spec.Opts, PipelineConfig()).ok());
      Fnv1a H;
      for (bool Sched : {true, false}) {
        CodegenOptions CG;
        CG.PromoteVars = Spec.Promote;
        CG.Schedule = Sched;
        Expected<MachineModule> MM = compileToMachineE(*M, CG);
        ASSERT_TRUE(MM) << MM.status().str();
        for (const MachineFunction &MF : MM->Funcs)
          hashFunction(H, MF, MM->Info);
        Machine VM(*MM);
        EXPECT_EQ(VM.run(), StopReason::Exited)
            << "sched=" << Sched << ": " << VM.trapMessage();
        EXPECT_EQ(VM.outputText(), Oracle.outputText()) << "sched=" << Sched;
        EXPECT_EQ(VM.exitValue(), Oracle.ExitValue) << "sched=" << Sched;
      }
      Dig += digestLine(Name, Spec, H);
    }
  }
  checkDigest(Dig, "backend_digest.txt",
              "back-end output changed: machine code, frame, statement map, "
              "storage, residence or recovery validity differs from the "
              "checked-in digest");
}

// Spill identity: the back-end digest's corpus never runs out of
// registers, so the two spill inputs (36 locals live across one body)
// are hashed at every level with the level's promote setting, one line
// per program and level.  Every build must still run to the
// unoptimized IR's output and exit value.
TEST(Golden, SpillDigest) {
  std::string Dig;
  for (const char *Name : {"spill_rounds_2.mc", "spill_rounds_14.mc"}) {
    std::ifstream In(std::string(SLDB_INPUT_DIR) + "/" + Name);
    ASSERT_TRUE(In) << Name;
    std::stringstream Src;
    Src << In.rdbuf();
    DiagnosticEngine Diags;
    auto Ref = compileToIR(Src.str(), Diags);
    ASSERT_TRUE(Ref) << Name << ": " << Diags.str();
    ExecResult Oracle = interpretIR(*Ref);
    ASSERT_FALSE(Oracle.Trapped) << Name << ": " << Oracle.TrapMsg;
    for (const LevelSpec &Spec : pipelineLevels()) {
      SCOPED_TRACE(std::string(Name) + " at " + Spec.Name);
      auto M = compileToIR(Src.str(), Diags);
      ASSERT_TRUE(M);
      ASSERT_TRUE(runPipelineEx(*M, Spec.Opts, PipelineConfig()).ok());
      CodegenOptions CG;
      CG.PromoteVars = Spec.Promote;
      Expected<MachineModule> MM = compileToMachineE(*M, CG);
      ASSERT_TRUE(MM) << MM.status().str();
      Fnv1a H;
      for (const MachineFunction &MF : MM->Funcs)
        hashFunction(H, MF, MM->Info);
      Machine VM(*MM);
      EXPECT_EQ(VM.run(), StopReason::Exited) << VM.trapMessage();
      EXPECT_EQ(VM.outputText(), Oracle.outputText());
      EXPECT_EQ(VM.exitValue(), Oracle.ExitValue);
      Dig += digestLine(Name, Spec, H);
    }
  }
  checkDigest(Dig, "spill_digest.txt",
              "spilled back-end output changed: spill code, spill slots, "
              "frame, statement map or debug tables differ from the "
              "checked-in digest");
}

/// Folds the verdict and every path fact of \p E into \p H (the rendered
/// strings other than the rule are left out: explain goldens pin them).
void hashExplanation(Fnv1a &H, const Explanation &E) {
  const Classification &C = E.Result;
  const MRecovery &R = C.Recovery;
  for (std::int64_t V :
       {std::int64_t(C.Kind), std::int64_t(C.Cause),
        std::int64_t(C.CulpritStmt), std::int64_t(C.Recoverable),
        std::int64_t(R.K), R.Imm, std::int64_t(R.R.Cls),
        std::int64_t(R.R.N), std::int64_t(R.Frame), R.Scale,
        std::int64_t(R.IsIV), std::int64_t(R.SrcVreg.Cls),
        std::int64_t(R.SrcVreg.N), std::int64_t(R.SrcVar),
        std::int64_t(C.Degraded), std::int64_t(E.InitTracked),
        std::int64_t(E.InitReached)})
    H.num(V);
  H.bytes(&R.FImm, sizeof R.FImm);
  for (const Explanation::HoistFact &F : E.Hoists)
    for (std::int64_t V : {std::int64_t(F.Key), std::int64_t(F.SomePath),
                           std::int64_t(F.AllPath)})
      H.num(V);
  H.str("|");
  for (const Explanation::DeadFact &F : E.Deads)
    for (std::int64_t V :
         {std::int64_t(F.Marker), std::int64_t(F.MarkerAddr),
          std::int64_t(F.SomePath), std::int64_t(F.AllPath),
          std::int64_t(F.RecoveryValidHere)})
      H.num(V);
  H.num(E.RecoveryAttempted);
  H.num(E.Resident);
  H.str(E.Rule);
}

// Classifier identity: one FNV-1a line per (program, level) over the
// explanation of every local and global of every function at every
// address, the past-the-end one included, with scheduling on and off
// folded into the one hash.
TEST(Golden, ClassifierDigest) {
  std::string Dig;
  for (const auto &[Name, Src] : digestCorpus()) {
    DiagnosticEngine Diags;
    for (const LevelSpec &Spec : pipelineLevels()) {
      SCOPED_TRACE(Name + " at " + Spec.Name);
      auto M = compileToIR(Src, Diags);
      ASSERT_TRUE(M) << Diags.str();
      ASSERT_TRUE(runPipelineEx(*M, Spec.Opts, PipelineConfig()).ok());
      Fnv1a H;
      for (bool Sched : {true, false}) {
        CodegenOptions CG;
        CG.PromoteVars = Spec.Promote;
        CG.Schedule = Sched;
        Expected<MachineModule> MM = compileToMachineE(*M, CG);
        ASSERT_TRUE(MM) << MM.status().str();
        const ProgramInfo &Info = *MM->Info;
        for (const MachineFunction &MF : MM->Funcs) {
          Classifier C(MF, Info);
          std::vector<VarId> Vars = Info.func(MF.Id).Locals;
          Vars.insert(Vars.end(), Info.Globals.begin(), Info.Globals.end());
          for (std::uint32_t A = 0; A <= MF.numInstrs(); ++A)
            for (VarId V : Vars)
              hashExplanation(H, C.explain(A, V));
        }
      }
      Dig += digestLine(Name, Spec, H);
    }
  }
  checkDigest(Dig, "classifier_digest.txt",
              "classifier output changed: a verdict, recovery, or init, "
              "hoist or dead path fact differs from the checked-in digest");
}

/// Folds every field of \p Info into \p H: each variable, each function
/// with its parameter, local and statement tables (locations and scope
/// snapshots included), and the global list.
void hashProgramInfo(Fnv1a &H, const ProgramInfo &Info) {
  auto Str = [&H](const std::string &S) {
    H.num(static_cast<std::int64_t>(S.size()));
    H.str(S);
  };
  auto Loc = [&H](SourceLoc L) {
    H.num(L.Line);
    H.num(L.Col);
  };
  auto Type = [&H](QualType T) {
    H.num(static_cast<int>(T.Kind));
    H.num(static_cast<int>(T.Pointee));
  };
  auto Ids = [&H](const std::vector<VarId> &Vs) {
    H.num(static_cast<std::int64_t>(Vs.size()));
    for (VarId V : Vs)
      H.num(V);
  };
  H.num(static_cast<std::int64_t>(Info.Vars.size()));
  for (const VarInfo &V : Info.Vars) {
    Str(V.Name);
    Type(V.Ty);
    H.num(V.ArraySize);
    H.num(static_cast<int>(V.Storage));
    H.num(V.Owner);
    H.num(V.AddressTaken);
    Loc(V.Loc);
  }
  H.num(static_cast<std::int64_t>(Info.Funcs.size()));
  for (const FuncInfo &F : Info.Funcs) {
    Str(F.Name);
    Type(F.RetTy);
    Ids(F.Params);
    Ids(F.Locals);
    H.num(static_cast<std::int64_t>(F.Stmts.size()));
    for (const StmtInfo &S : F.Stmts) {
      Loc(S.Loc);
      Ids(S.ScopeVars);
    }
    Loc(F.Loc);
  }
  Ids(Info.Globals);
}

/// (name, source) pairs of every file in \p Dir with extension \p Ext,
/// sorted by name and prefixed with \p Prefix.
std::vector<std::pair<std::string, std::string>>
sourcesIn(const std::string &Dir, const std::string &Ext,
          const std::string &Prefix) {
  std::vector<std::pair<std::string, std::string>> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != Ext)
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    Files.emplace_back(Prefix + Entry.path().filename().string(), Buf.str());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Folds \p S into \p H with its length, so adjacent strings cannot
/// trade characters.
void hashText(Fnv1a &H, const std::string &S) {
  H.num(static_cast<std::int64_t>(S.size()));
  H.str(S);
}

/// Folds every field of a scope report into \p H: the verdict, its
/// recovery and the value (doubles by their bits).
void hashReport(Fnv1a &H, const VarReport &R) {
  const Classification &C = R.Class;
  const MRecovery &Q = C.Recovery;
  for (std::int64_t V :
       {std::int64_t(R.Var), std::int64_t(C.Kind), std::int64_t(C.Cause),
        std::int64_t(C.CulpritStmt), std::int64_t(C.Recoverable),
        std::int64_t(Q.K), Q.Imm, std::int64_t(Q.R.Cls), std::int64_t(Q.R.N),
        std::int64_t(Q.Frame), Q.Scale, std::int64_t(Q.IsIV),
        std::int64_t(Q.SrcVreg.Cls), std::int64_t(Q.SrcVreg.N),
        std::int64_t(Q.SrcVar), std::int64_t(C.Degraded),
        std::int64_t(R.HasValue), std::int64_t(R.IsDouble), R.IntValue})
    H.num(V);
  H.bytes(&Q.FImm, sizeof Q.FImm);
  H.bytes(&R.DoubleValue, sizeof R.DoubleValue);
}

/// One lockstep digest line: "<key> stops=N end=E/O <hash>", the hash
/// over every field of \p R (each observation's two reports, table,
/// init, raw-storage and pointer facts, the pairing error, both end
/// states, exit values and outputs, the name table, the firings and the
/// evidence counts).
std::string lockstepLine(const std::string &Key, const LockstepResult &R) {
  Fnv1a H;
  H.num(R.Compiled);
  hashText(H, R.CompileError);
  hashText(H, R.PairError);
  H.num(static_cast<std::int64_t>(R.Stops.size()));
  for (const StopObservation &S : R.Stops) {
    H.num(S.Func);
    H.num(S.Stmt);
    H.num(static_cast<std::int64_t>(S.Vars.size()));
    for (const VarObservation &V : S.Vars) {
      hashReport(H, V.Expected);
      hashReport(H, V.Opt);
      for (bool B : {V.OptTableResident, V.ExpectedInitAllPaths, V.RawValid,
                     V.RawIsDouble, V.IsPtr})
        H.num(B);
      H.num(V.RawInt);
      H.bytes(&V.RawDouble, sizeof V.RawDouble);
    }
  }
  H.num(static_cast<std::int64_t>(R.VarNames.size()));
  for (const std::string &N : R.VarNames)
    hashText(H, N);
  H.num(static_cast<int>(R.ExpectedEnd));
  H.num(static_cast<int>(R.OptEnd));
  H.num(R.ExpectedExit);
  H.num(R.OptExit);
  hashText(H, R.ExpectedOutput);
  hashText(H, R.OptOutput);
  H.num(static_cast<std::int64_t>(R.Firings.size()));
  for (const PassFiring &F : R.Firings) {
    hashText(H, F.Name);
    H.num(F.Changed);
  }
  for (unsigned N : {R.NumHoisted, R.NumSunk, R.NumDeadMarks,
                     R.NumAvailMarks, R.NumSRRecords})
    H.num(N);
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(H.H));
  return Key + " stops=" + std::to_string(R.Stops.size()) +
         " end=" + std::to_string(static_cast<int>(R.ExpectedEnd)) + "/" +
         std::to_string(static_cast<int>(R.OptEnd)) + " " + Hex + "\n";
}

/// The lockstep edges the campaigns rarely reach, as (name, source,
/// stop cap, fuel).  "long-run" outlasts the 200000-resume drain, so
/// both builds end still stopped, with part of the output printed;
/// "chatty-run" prints every few hundred stops, so that part differs
/// from the output a few thousand stops later.
/// "vanish" folds a branch whose statement then has no code in the
/// optimized build, so the reference stops there alone.
struct LockstepEdge {
  std::string Name;
  std::string Src;
  unsigned MaxStops;
  std::uint64_t Fuel;
};

const char *LongRunSrc = R"(int main() {
  int s = 0;
  for (int i = 0; i < 100000; i = i + 1) {
    s = s + i;
    if (i % 25000 == 0) print(s);
  }
  print(s);
  return 0;
}
)";

const char *ChattyRunSrc = R"(int main() {
  int s = 0;
  for (int i = 0; i < 100000; i = i + 1) {
    s = s + i;
    if (i % 500 == 0) print(s);
  }
  return 0;
}
)";

const char *VanishSrc = R"(int main() {
  int x = 4;
  int y = 0;
  if (x > 3) {
    y = x + 1;
  } else {
    y = x - 1;
  }
  while (x > 9) {
    x = x - 1;
  }
  print(y);
  return y;
}
)";

std::vector<LockstepEdge> lockstepEdges() {
  std::ifstream In(std::string(SLDB_CRASH_DIR) + "/deep-recursion.minic");
  std::stringstream Deep;
  Deep << In.rdbuf();
  const std::string Seed1 = generateProgram(1), Seed3 = generateProgram(3);
  const std::uint64_t Fuel = LockstepOptions().Fuel;
  return {{"long-run", LongRunSrc, 4000, Fuel},
          {"long-run-cap-1000", LongRunSrc, 1000, Fuel},
          {"chatty-run", ChattyRunSrc, 4000, Fuel},
          {"deep-recursion", Deep.str(), 4000, Fuel},
          {"fuel-300", Seed1, 4000, 300},
          {"fuel-long-run-5000", LongRunSrc, 4000, 5000},
          {"max-stops-5", Seed3, 5, Fuel},
          {"max-stops-5-long-run", LongRunSrc, 5, Fuel},
          {"vanish", VanishSrc, 4000, Fuel}};
}

// Lockstep identity: one FNV-1a line per lockstep run over every field
// of its LockstepResult (lockstepLine).  The runs are the differential
// campaign's (seeds 1-200, with and without the aliasing grammar, both
// promote modes from one SharedBuilds), the cross-level campaign's
// (seeds 1-10, every judgeable level against the sweep's O0 row, at
// most 1000 stops), and the edges of lockstepEdges().
TEST(Golden, LockstepDigest) {
  std::string Dig;
  auto Diff = [&Dig](const std::string &Key, const std::string &Src,
                     LockstepOptions LO) {
    SharedBuilds Builds(Src, LO.Opts, /*Instrument=*/true);
    LO.InstrumentPasses = true;
    for (bool Promote : {true, false}) {
      LO.Promote = Promote;
      Dig += lockstepLine(Key + (Promote ? " promote" : " frame"),
                          runLockstep(Builds, LO));
    }
  };
  for (bool Alias : {false, true})
    for (std::uint32_t Seed = 1; Seed <= 200; ++Seed) {
      GenOptions GO;
      GO.Alias = Alias;
      Diff("diff " + std::to_string(Seed) + (Alias ? " alias" : " plain"),
           generateProgram(Seed, GO), LockstepOptions());
    }

  for (std::uint32_t Seed = 1; Seed <= 10; ++Seed) {
    const std::string Name = "seed-" + std::to_string(Seed);
    ProgramSweep PS = sweepProgram(Name, generateProgram(Seed));
    ASSERT_TRUE(PS.Compiled) << PS.CompileError;
    LockstepOptions LO;
    LO.MaxStops = 1000;
    const ReferenceRecording Ref(
        PS.Builds[static_cast<std::size_t>(PipelineLevel::O0)].MM, LO.Fuel,
        LO.MaxStops);
    const auto &Table = pipelineLevels();
    for (std::size_t L = 0; L < Table.size(); ++L) {
      if (!judgeable(Table[L]))
        continue;
      Dig += lockstepLine(
          "xl " + std::to_string(Seed) + " " + Table[L].Name,
          runLockstep({Ref, PS.Builds[L].MM, *PS.Builds[L].IR}, LO));
    }
  }

  // The vanish edge must really have an oracle-only stop: a statement
  // with code in the reference and none in the optimized build.
  {
    Expected<CompiledModule> Ref =
        compileModule(VanishSrc, OptOptions::none(), {false, false});
    Expected<CompiledModule> Opt = compileModule(
        VanishSrc, LockstepOptions::lockstepOpts(), {true, false});
    ASSERT_TRUE(Ref && Opt);
    const MachineFunction &RF = Ref->MM.Funcs[0], &OF = Opt->MM.Funcs[0];
    bool Vanished = false;
    for (std::size_t S = 0; S < RF.StmtAddr.size(); ++S)
      Vanished |= RF.StmtAddr[S] >= 0 &&
                  (S >= OF.StmtAddr.size() || OF.StmtAddr[S] < 0);
    EXPECT_TRUE(Vanished) << "the vanish edge lost its oracle-only stop";
  }
  for (const LockstepEdge &E : lockstepEdges()) {
    LockstepOptions LO;
    LO.MaxStops = E.MaxStops;
    LO.Fuel = E.Fuel;
    Diff("edge " + E.Name, E.Src, LO);
  }
  checkDigest(Dig, "lockstep_digest.txt",
              "lockstep results changed: an observation, pairing error, end "
              "state, output, firing or evidence count differs from the "
              "checked-in digest");
}

/// One malformed program per distinct frontend diagnostic (and a few
/// contexts of the shared ones), in lexer, parser, Sema order.
std::vector<std::pair<std::string, std::string>> malformedSnippets() {
  return {
      {"lex-unterminated-comment", "int main() { return 0; } /* open"},
      {"lex-bad-character", "int main() { return 0 $ 1; }"},
      {"lex-integer-too-large",
       "int main() { print(99999999999999999999); return 0; }"},
      {"lex-int64-min-literal",
       "int main() { int a = -9223372036854775808; return 0; }"},
      {"int64-min-subtraction",
       "int main() { int a = -9223372036854775807 - 1; return 0; }"},
      {"parse-expected-token", "int main() { return 0 }"},
      {"parse-expected-close-block", "int main() { return 0;"},
      {"parse-expected-paren", "int main() { if (1 return 0; }"},
      {"parse-nesting-too-deep",
       "int main() { return " + std::string(300, '(') + "1" +
           std::string(300, ')') + "; }"},
      {"parse-type-name", "int main() { return 0; } x"},
      {"parse-void-pointer", "void* p; int main() { return 0; }"},
      {"parse-multi-level-pointer", "int** p; int main() { return 0; }"},
      {"parse-identifier-after-type", "int 3;"},
      {"parse-array-size", "int a[n]; int main() { return 0; }"},
      {"parse-local-array-size", "int main() { int a[n]; return 0; }"},
      {"parse-array-size-zero", "int a[0]; int main() { return 0; }"},
      {"parse-local-array-size-zero",
       "int main() { int a[0]; a = 5; return 0; }"},
      {"parse-array-size-too-large",
       "int a[4294967298]; int main() { return 0; }"},
      {"parse-local-array-size-too-large",
       "int main() { int a[4294967296]; return 0; }"},
      {"array-size-largest", "int a[4294967295]; int main() { return 0; }"},
      {"parse-parameter-name", "int f(int) { return 0; }"},
      {"parse-function-body", "int f() return 0;"},
      {"parse-variable-name", "int main() { int 3 = 4; return 0; }"},
      {"parse-void-variable", "int main() { void v; return 0; }"},
      {"parse-expected-expression", "int main() { return +; }"},
      {"sema-redefinition", "int main() { int x = 1; int x = 2; return x; }"},
      {"sema-param-redefinition", "int f(int a) { int a = 1; return a; }"},
      {"sema-global-initializer", "int g = h; int main() { return g; }"},
      {"sema-function-redefinition",
       "int f() { return 0; } int f() { return 1; } int main() { return 0; }"},
      {"sema-condition-type",
       "int main() { double d = 1.0; if (d) return 1; while (d) d = 0.0; "
       "do d = 0.0; while (d); for (; d;) d = 0.0; return d ? 1 : 0; }"},
      {"sema-void-return-value",
       "void f() { return 3; } int main() { return 0; }"},
      {"sema-missing-return-value", "int main() { return; }"},
      {"sema-break-outside-loop", "int main() { break; return 0; }"},
      {"sema-continue-outside-loop", "int main() { continue; return 0; }"},
      {"sema-cannot-convert", "int main() { int* p = 1.5; return 0; }"},
      {"sema-undeclared-identifier", "int main() { return missing; }"},
      {"sema-unary-minus",
       "int main() { int a[2]; int* p = a; p = -p; return 0; }"},
      {"sema-logical-not", "int main() { double d = 1.0; return !d; }"},
      {"sema-bitwise-not", "int main() { double d = 1.0; return ~d; }"},
      {"sema-dereference", "int main() { int x = 1; return *x; }"},
      {"sema-address-of",
       "int main() { int x = 1; int* p = &(x + 1); return 0; }"},
      {"sema-increment-lvalue", "int main() { int x = 1; (x + 1)++; return 0; }"},
      {"sema-increment-type",
       "int main() { double d = 1.0; d++; return 0; }"},
      {"sema-arithmetic-operands",
       "int main() { int a[2]; int* p = a; int* q = a; p = p * q; "
       "return 0; }"},
      {"sema-int-operands", "int main() { double d = 1.0; return d % 2; }"},
      {"sema-comparison-operands",
       "int main() { int a[2]; int* p = a; return p < 1; }"},
      {"sema-not-lvalue", "int main() { 3 = 4; return 0; }"},
      {"sema-pointer-compound-assign",
       "int main() { int a[2]; int* p = a; p *= 2; return 0; }"},
      {"sema-remainder-assign",
       "int main() { double d = 1.0; d %= 2; return 0; }"},
      {"sema-subscript-base", "int main() { int x = 1; return x[0]; }"},
      {"sema-subscript-index",
       "int main() { int a[2]; double d = 0.0; return a[d]; }"},
      {"sema-print-arity", "int main() { print(1, 2); return 0; }"},
      {"sema-undeclared-function", "int main() { return nosuch(1); }"},
      {"sema-argument-count",
       "int f(int a) { return a; } int main() { return f(1, 2); }"},
      {"sema-conditional-branches",
       "int main() { int a[2]; int* p = a; int x = 1 ? p : 2; return 0; }"},
      {"sema-several-errors",
       "int g = 1; int f(int a) { return b; }\n"
       "int f(int c) { return c; }\n"
       "int main() { int x = 1; int x = 2; { int y = z; } break; "
       "return f(1, 2) + nosuch(); }"},
  };
}

// Frontend identity: one line per accepted program with an FNV-1a hash
// over every field of its symbol tables, and the full diagnostics text
// of every rejected one.  Covers the back-end digest corpus, the
// checked-in inputs, the crash corpus and one malformed snippet per
// frontend diagnostic.
TEST(Golden, FrontendDigest) {
  std::vector<std::pair<std::string, std::string>> Inputs = digestCorpus();
  for (const auto &List : {sourcesIn(SLDB_INPUT_DIR, ".mc", "inputs/"),
                           sourcesIn(SLDB_CRASH_DIR, ".minic", "crashes/"),
                           malformedSnippets()})
    Inputs.insert(Inputs.end(), List.begin(), List.end());
  std::string Dig;
  for (const auto &[Name, Src] : Inputs) {
    DiagnosticEngine Diags;
    FrontendResult FR = runFrontend(Src, Diags);
    EXPECT_EQ(FR.Info == nullptr, FR.TU == nullptr) << Name;
    if (FR.Info) {
      Fnv1a H;
      hashProgramInfo(H, *FR.Info);
      char Hex[17];
      std::snprintf(Hex, sizeof Hex, "%016llx",
                    static_cast<unsigned long long>(H.H));
      Dig += Name + " " + Hex + "\n";
    }
    std::istringstream Lines(Diags.str());
    for (std::string Line; std::getline(Lines, Line);)
      Dig += Name + " | " + Line + "\n";
  }
  checkDigest(Dig, "frontend_digest.txt",
              "frontend output changed: a symbol table, location, scope "
              "snapshot or diagnostic differs from the checked-in digest");
}

} // namespace
