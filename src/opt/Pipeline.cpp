//===- opt/Pipeline.cpp - cmcc-like pass pipeline ---------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/Verifier.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace sldb;

bool Pass::run(IRFunction &F, IRModule &M) {
  AnalysisManager AM(*M.Info);
  return run(F, M, AM).Changed;
}

namespace {

/// Builds the pipeline in execution order.
std::vector<std::unique_ptr<Pass>> buildPipeline(const OptOptions &O) {
  std::vector<std::unique_ptr<Pass>> P;
  auto Add = [&](bool Enabled, std::unique_ptr<Pass> Pass) {
    if (Enabled)
      P.push_back(std::move(Pass));
  };

  // Inlining first: it rewrites call sites into straight-line code, so
  // everything downstream (including the SSA bracket) sees the flattened
  // function.
  Add(O.Inline, createInlinePass());

  // Cleanup + early simplification (the first propagate→simplify round).
  Add(O.BranchOpt, createBranchOptPass());
  Add(O.ConstProp, createLocalSimplifyPass());
  Add(O.ConstProp, createConstantPropagationPass());
  Add(O.ConstProp, createLocalSimplifyPass());
  Add(O.CopyProp, createCopyPropagationPass());
  Add(O.BranchOpt, createBranchOptPass());

  // Loop restructuring first: peeling exposes redundancy to PRE.
  Add(O.LoopPeel, createLoopPeelPass());
  Add(O.LoopUnroll, createLoopUnrollPass());

  // Redundancy removal: CSE, then the hoisting transformations.
  Add(O.CSE, createGlobalCSEPass());
  Add(O.PRE, createPartialRedundancyElimPass());
  Add(O.LICM, createLoopInvariantCodeMotionPass());
  Add(O.IVOpt, createInductionVariableOptPass());

  // Second propagation round feeds dead-code elimination (and builds the
  // recovery chains of paper §2.5 / Figure 4).
  Add(O.ConstProp, createConstantPropagationPass());
  Add(O.ConstProp, createLocalSimplifyPass());
  Add(O.CopyProp, createCopyPropagationPass());

  // SSA bracket: construct, run the SSA-form passes, destruct.  Placed
  // after the propagation round (so GVN sees canonical operands) and
  // before PDE/DCE (so the copies SSA destruction leaves behind are
  // cleaned up by the existing dead-code sweep).
  const bool WantSsa = O.Ssa || O.GVN || O.SparseProp;
  Add(WantSsa, createSsaConstructPass());
  Add(O.GVN, createGVNPass());
  Add(O.SparseProp, createSparsePropPass());
  Add(WantSsa, createSsaDestructPass());

  // Sinking after hoisting (paper §4: hoisted assignments that are
  // partially dead get sunk back down), then full dead-code elimination.
  Add(O.PDE, createPartialDeadCodeElimPass());
  Add(O.DCE, createDeadCodeEliminationPass());
  Add(O.BranchOpt, createBranchOptPass());
  return P;
}

/// SLDB_VERIFY_EACH=1 turns on PipelineConfig::VerifyEach for every
/// pipeline run, so a test re-registration (or a user) can verify
/// without plumbing a flag through every caller.  Read once per process.
bool verifyEachFromEnvironment() {
  static const bool On = [] {
    const char *V = std::getenv("SLDB_VERIFY_EACH");
    return V && *V && std::strcmp(V, "0") != 0;
  }();
  return On;
}

Status verifyAfterPass(IRFunction &F, IRModule &M, const char *PassName) {
  std::vector<std::string> Errors;
  if (verifyFunction(F, *M.Info, Errors))
    return Status::success();
  std::string Msg = "IR verification failed after pass '";
  Msg += PassName;
  Msg += "' on '" + F.Name + "'";
  for (const std::string &E : Errors) {
    Msg += "\n  ";
    Msg += E;
  }
  return Status::error(ErrorCode::VerifyFailure, std::move(Msg));
}

} // namespace

Status sldb::runPipelineEx(IRModule &M, const OptOptions &Opts,
                           const PipelineConfig &Config,
                           PipelineStats *Stats) {
  using Clock = std::chrono::steady_clock;
  TraceSpan PipeSpan("runPipeline", "pipeline");
  auto Pipeline = buildPipeline(Opts);
  AnalysisManager AM(*M.Info);

  if (Stats) {
    Stats->Slots.clear();
    for (const auto &P : Pipeline)
      Stats->Slots.push_back({P->name(), 0, 0, 0});
  }

  const bool VerifyEach = Config.VerifyEach || verifyEachFromEnvironment();
  const bool Timing = Config.TimePasses && Stats;
  auto RunStart = Timing ? Clock::now() : Clock::time_point();

  Status Err;
  // Function-major order: each function runs the whole pipeline before
  // the next one starts.
  for (auto &F : M.Funcs) {
    for (std::size_t I = 0; I < Pipeline.size() && Err.ok(); ++I) {
      auto T0 = Timing ? Clock::now() : Clock::time_point();
      TraceSpan Span(Pipeline[I]->name(), "pass");
      Span.arg("function", F->Name);
      PassResult R = Pipeline[I]->run(*F, M, AM);
      Span.arg("changed", R.Changed ? "true" : "false");
      static StatCounter &Runs = Stats::counter("pipeline.pass.runs");
      static StatCounter &Changed = Stats::counter("pipeline.pass.changed");
      Runs.add();
      if (R.Changed)
        Changed.add();
      AM.invalidate(*F, R.Preserved);
      if (Config.DisableAnalysisCache)
        AM.invalidateAll(*F);
      if (VerifyEach)
        Err = verifyAfterPass(*F, M, Pipeline[I]->name());
      if (Config.AfterPass) {
        // Recompute the debug-bookkeeping findings from scratch: damage
        // is structural, so whatever is still broken after the latest
        // pass is rediscovered, and the list cannot grow without bound.
        // Without an AfterPass observer nothing reads the intermediate
        // findings, so they are computed once, after the last pass.
        F->AnnotationFindings.clear();
        verifyFunctionAnnotations(*F, *M.Info, F->AnnotationFindings);
        Config.AfterPass(*F, M, AM, Pipeline[I]->name());
      }
      if (Stats) {
        PassSlotStats &S = Stats->Slots[I];
        ++S.Runs;
        S.Changed += R.Changed;
        if (Timing)
          S.WallMs +=
              std::chrono::duration<double, std::milli>(Clock::now() - T0)
                  .count();
      }
    }
    if (!Err.ok())
      break;
    if (!Config.AfterPass) {
      // Final-state findings only; identical to verifying after every
      // pass since each verification starts from scratch.
      F->AnnotationFindings.clear();
      verifyFunctionAnnotations(*F, *M.Info, F->AnnotationFindings);
    }
  }

  if (Timing)
    Stats->TotalMs =
        std::chrono::duration<double, std::milli>(Clock::now() - RunStart)
            .count();
  return Err;
}

std::vector<std::string> sldb::pipelinePassNames(const OptOptions &Opts) {
  std::vector<std::string> Names;
  for (auto &P : buildPipeline(Opts))
    Names.emplace_back(P->name());
  return Names;
}
