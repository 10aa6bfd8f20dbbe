//===- eval/Levels.cpp ----------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Levels.h"

#include "support/Casting.h"

using namespace sldb;

namespace {

OptOptions onePass(bool OptOptions::*Field) {
  OptOptions O = OptOptions::none();
  O.*Field = true;
  return O;
}

/// Everything but loop peeling and unrolling, which duplicate statements:
/// the heaviest set whose statements the lockstep oracle can still pair
/// one-to-one (LockstepOptions::lockstepOpts reads it from the O2nl row).
OptOptions lockstepSet() {
  OptOptions O = OptOptions::all();
  O.LoopPeel = false;
  O.LoopUnroll = false;
  return O;
}

/// The SSA tier on top of a base selection (GVN/SparseProp imply the
/// construct/destruct bracket via the pipeline, but the level table
/// states the bracket explicitly so subset tests see it).
OptOptions withSsa(OptOptions O, bool GVN, bool Sparse) {
  O.Ssa = true;
  O.GVN = GVN;
  O.SparseProp = Sparse;
  return O;
}

/// Everything: the historical O2 set plus the SSA tier and inlining.
OptOptions allSsa() {
  OptOptions O = withSsa(OptOptions::all(), true, true);
  O.Inline = true;
  return O;
}

std::vector<LevelSpec> buildTable() {
  // Canonical order; must stay aligned with the PipelineLevel enum
  // (pipelineLevels checks the alignment).
  return {
      {PipelineLevel::O0, "O0", OptOptions::none(), false},
      {PipelineLevel::ConstProp, "constprop",
       onePass(&OptOptions::ConstProp), false},
      {PipelineLevel::CopyProp, "copyprop", onePass(&OptOptions::CopyProp),
       false},
      {PipelineLevel::CSE, "cse", onePass(&OptOptions::CSE), false},
      {PipelineLevel::PRE, "pre", onePass(&OptOptions::PRE), false},
      {PipelineLevel::LICM, "licm", onePass(&OptOptions::LICM), false},
      {PipelineLevel::PDE, "pde", onePass(&OptOptions::PDE), false},
      {PipelineLevel::DCE, "dce", onePass(&OptOptions::DCE), false},
      {PipelineLevel::BranchOpt, "branchopt",
       onePass(&OptOptions::BranchOpt), false},
      {PipelineLevel::IVOpt, "ivopt", onePass(&OptOptions::IVOpt), false},
      {PipelineLevel::LoopPeel, "peel", onePass(&OptOptions::LoopPeel),
       false},
      {PipelineLevel::LoopUnroll, "unroll",
       onePass(&OptOptions::LoopUnroll), false},
      {PipelineLevel::O2nlFrame, "O2nl-frame", lockstepSet(), false},
      {PipelineLevel::O2nl, "O2nl", lockstepSet(), true},
      {PipelineLevel::O2Frame, "O2-frame", OptOptions::all(), false},
      {PipelineLevel::O2, "O2", OptOptions::all(), true},
      {PipelineLevel::Ssa, "ssa", onePass(&OptOptions::Ssa), false},
      {PipelineLevel::Gvn, "gvn", withSsa(OptOptions::none(), true, false),
       false},
      {PipelineLevel::SparseProp, "sparse",
       withSsa(OptOptions::none(), false, true), false},
      {PipelineLevel::InlineLevel, "inline", onePass(&OptOptions::Inline),
       false},
      {PipelineLevel::O2nlSsa, "O2nl-ssa", withSsa(lockstepSet(), true, true),
       true},
      {PipelineLevel::O2Ssa, "O2ssa", allSsa(), true},
  };
}

/// The pass-selection booleans as an iterable list, so subset tests and
/// table construction cannot fall out of sync with OptOptions.
const bool OptOptions::*const PassFields[] = {
    &OptOptions::ConstProp, &OptOptions::CopyProp,   &OptOptions::CSE,
    &OptOptions::PRE,       &OptOptions::LICM,       &OptOptions::PDE,
    &OptOptions::DCE,       &OptOptions::BranchOpt,  &OptOptions::LoopPeel,
    &OptOptions::LoopUnroll, &OptOptions::IVOpt,     &OptOptions::Ssa,
    &OptOptions::GVN,       &OptOptions::SparseProp, &OptOptions::Inline,
};

bool passSuperset(const OptOptions &A, const OptOptions &B) {
  for (auto Field : PassFields)
    if (B.*Field && !(A.*Field))
      return false;
  return true;
}

bool samePasses(const OptOptions &A, const OptOptions &B) {
  return passSuperset(A, B) && passSuperset(B, A);
}

} // namespace

const std::vector<LevelSpec> &sldb::pipelineLevels() {
  static const std::vector<LevelSpec> Table = buildTable();
  if (Table.size() != static_cast<std::size_t>(PipelineLevel::O2Ssa) + 1)
    sldb_unreachable("level table out of sync with the PipelineLevel enum");
  return Table;
}

const LevelSpec &sldb::levelSpec(PipelineLevel L) {
  const auto &Table = pipelineLevels();
  std::size_t I = static_cast<std::size_t>(L);
  if (I >= Table.size() || Table[I].Level != L)
    sldb_unreachable("level table out of canonical order");
  return Table[I];
}

const LevelSpec *sldb::findLevel(std::string_view Name) {
  for (const LevelSpec &S : pipelineLevels())
    if (Name == S.Name)
      return &S;
  return nullptr;
}

bool sldb::moreOptimized(const LevelSpec &A, const LevelSpec &B) {
  if (!passSuperset(A.Opts, B.Opts))
    return false;
  if (B.Promote && !A.Promote)
    return false;
  // Strictness: equal pass sets and equal promotion is not "more".
  return !(samePasses(A.Opts, B.Opts) && A.Promote == B.Promote);
}

bool sldb::judgeable(const LevelSpec &S) {
  return !S.Opts.LoopPeel && !S.Opts.LoopUnroll && !S.Opts.Inline;
}
