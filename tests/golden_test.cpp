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
/// The classifier digest pins every verdict and path fact the classifier
/// explains over the same corpus, so a rewrite of its data flow must
/// stay byte-identical too.
///
//===----------------------------------------------------------------------===//

#include "BackendDigest.h"
#include "codegen/ISel.h"
#include "core/Classifier.h"
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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
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

} // namespace
