//===- support/FaultInjector.cpp ------------------------------------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

namespace sldb {

thread_local FaultId FaultInjector::Cur = FaultId::None;
thread_local FaultId FaultInjector::Suspended = FaultId::None;
thread_local std::uint64_t FaultInjector::Rng = 0;

const std::vector<FaultPoint> &FaultInjector::points() {
  static const std::vector<FaultPoint> Points = {
      {FaultId::ClassifierSuppressHoistGen, "classifier-suppress-hoist-gen",
       /*Defended=*/false,
       "hoist-reach dataflow loses its gen sets (oracle must catch)"},
      {FaultId::ClassifierSuppressDeadAssignKill,
       "classifier-suppress-dead-assign-kill", /*Defended=*/false,
       "dead-reach dataflow loses assignment kills (oracle must catch)"},
      {FaultId::DropDeadMarker, "drop-dead-marker", /*Defended=*/true,
       "one MDEAD marker demoted to MNOP after codegen"},
      {FaultId::CorruptMarkerVar, "corrupt-marker-var", /*Defended=*/true,
       "one marker's MarkVar pointed at a bogus variable id"},
      {FaultId::CorruptMarkerStmt, "corrupt-marker-stmt", /*Defended=*/true,
       "one marker's MarkStmt pushed out of statement range"},
      {FaultId::CorruptHoistKey, "corrupt-hoist-key", /*Defended=*/true,
       "one hoisted instruction's HoistKey made dangling"},
      {FaultId::TruncateStmtMap, "truncate-stmt-map", /*Defended=*/true,
       "the StmtAddr location table truncated to half length"},
      {FaultId::CorruptRecoveryReg, "corrupt-recovery-reg",
       /*Defended=*/true,
       "one InReg recovery fact retargeted to an out-of-range register"},
      {FaultId::TruncateResidentAt, "truncate-resident-at",
       /*Defended=*/true,
       "one variable's residence bit-vector truncated"},
      {FaultId::TrapVMMidRun, "trap-vm-mid-run", /*Defended=*/true,
       "the VM traps after a seed-chosen number of steps"},
  };
  return Points;
}

const FaultPoint *FaultInjector::findPoint(std::string_view Name) {
  for (const FaultPoint &P : points())
    if (Name == P.Name)
      return &P;
  return nullptr;
}

void FaultInjector::arm(FaultId Id, std::uint32_t Seed) {
  Cur = Id;
  Suspended = FaultId::None;
  // splitmix64-style scramble so nearby seeds give unrelated streams.
  Rng = (static_cast<std::uint64_t>(Seed) << 17) ^ 0x9e3779b97f4a7c15ull ^
        (static_cast<std::uint64_t>(Id) << 40);
}

void FaultInjector::disarm() {
  Cur = FaultId::None;
  Suspended = FaultId::None;
}

std::uint32_t FaultInjector::rand() {
  Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::uint32_t>(Rng >> 33);
}

void FaultInjector::suspend() {
  if (Cur == FaultId::None)
    return;
  Suspended = Cur;
  Cur = FaultId::None;
}

void FaultInjector::resume() {
  if (Suspended == FaultId::None)
    return;
  Cur = Suspended;
  Suspended = FaultId::None;
}

} // namespace sldb
