//===- fuzz/DiffCheck.cpp -------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/DiffCheck.h"

using namespace sldb;

const char *sldb::violationKindName(ViolationKind K) {
  switch (K) {
  case ViolationKind::UnsoundCurrent:
    return "unsound-current";
  case ViolationKind::WrongRecovery:
    return "wrong-recovery";
  case ViolationKind::SpuriousUninitialized:
    return "spurious-uninitialized";
  case ViolationKind::MissedUninitialized:
    return "missed-uninitialized";
  case ViolationKind::NonresidentInconsistent:
    return "nonresident-inconsistent";
  case ViolationKind::LockstepDiverged:
    return "lockstep-diverged";
  case ViolationKind::BehaviorMismatch:
    return "behavior-mismatch";
  case ViolationKind::ProcessCrash:
    return "process-crash";
  case ViolationKind::ProcessHang:
    return "process-hang";
  case ViolationKind::PhantomStop:
    return "phantom-stop";
  case ViolationKind::VanishedStop:
    return "vanished-stop";
  }
  return "?";
}

std::string Violation::str() const {
  std::string S = violationKindName(Kind);
  if (Stmt != InvalidStmt)
    S += " at s" + std::to_string(Stmt);
  if (!Var.empty())
    S += " var '" + Var + "'";
  if (!Detail.empty())
    S += ": " + Detail;
  return S;
}

namespace {

std::string valueStr(const VarReport &R) {
  if (!R.HasValue)
    return "<no value>";
  return R.IsDouble ? std::to_string(R.DoubleValue)
                    : std::to_string(R.IntValue);
}

bool valuesDiffer(const VarReport &A, const VarReport &B) {
  if (A.IsDouble != B.IsDouble)
    return true;
  return A.IsDouble ? A.DoubleValue != B.DoubleValue
                    : A.IntValue != B.IntValue;
}

} // namespace

std::vector<Violation> sldb::checkSoundness(const LockstepResult &R) {
  std::vector<Violation> Out;
  if (!R.Compiled)
    return Out;

  if (!R.PairError.empty())
    Out.push_back(
        {ViolationKind::LockstepDiverged, InvalidFunc, InvalidStmt, "",
         R.PairError});

  for (const StopObservation &Stop : R.Stops) {
    for (const VarObservation &V : Stop.Vars) {
      const VarReport &E = V.Expected;
      const VarReport &Opt = V.Opt;
      auto Add = [&](ViolationKind K, std::string Detail) {
        Out.push_back({K, Stop.Func, Stop.Stmt, R.VarNames[Opt.Var],
                       std::move(Detail)});
      };

      // --- Initialization agreement -----------------------------------
      bool ExpectedUninit = E.Class.Kind == VarClass::Uninitialized;
      if (Opt.Class.Kind == VarClass::Uninitialized) {
        // Conservative disagreement (some-path init removed by branch
        // folding) is fine; definite initialization is not negotiable.
        if (V.ExpectedInitAllPaths)
          Add(ViolationKind::SpuriousUninitialized,
              "initialized on every unoptimized path, expected value " +
                  valueStr(E));
        continue; // No value checks for an uninitialized verdict.
      }
      if (ExpectedUninit) {
        // The optimized build may legitimately *know more* (a hoisted
        // instance already assigned the future value) — every such case
        // carries a warning verdict.  A clean Current means the debugger
        // presents garbage as truth.
        if (Opt.Class.Kind == VarClass::Current && !Opt.Class.Recoverable)
          Add(ViolationKind::MissedUninitialized,
              "no unoptimized path initializes it, yet it reads as "
              "current (" +
                  valueStr(Opt) + ")");
        continue; // Expected value is garbage: nothing to compare.
      }

      // --- Residence table agreement ----------------------------------
      if (Opt.Class.Kind == VarClass::Nonresident) {
        if (V.OptTableResident)
          Add(ViolationKind::NonresidentInconsistent,
              "verdict nonresident but the storage tables locate it");
        if (Opt.HasValue)
          Add(ViolationKind::NonresidentInconsistent,
              "verdict nonresident but a value was displayed");
        continue;
      }
      // Any remaining verdict displays the runtime location's content —
      // except a recovery, which displays the recovered expression.
      if (!Opt.Class.Recoverable && !V.OptTableResident)
        Add(ViolationKind::NonresidentInconsistent,
            std::string("verdict ") + varClassName(Opt.Class.Kind) +
                " displays storage the tables say is dead");

      // --- Value truthfulness (the core of the contract) --------------
      if (!E.HasValue || !Opt.HasValue)
        continue;
      // Pointers hold frame addresses, and the two builds lay out their
      // frames differently: a differing pointer value says nothing about
      // soundness.  The verdict-level checks above still applied.
      if (V.IsPtr)
        continue;
      bool Differ = valuesDiffer(E, Opt);
      if (Opt.Class.Recoverable) {
        // A recovered value claims to BE the expected value (§2.5).
        if (Differ)
          Add(ViolationKind::WrongRecovery,
              "recovered " + valueStr(Opt) + " but expected " +
                  valueStr(E));
        continue;
      }
      if (Opt.Class.Kind == VarClass::Current && Differ)
        Add(ViolationKind::UnsoundCurrent,
            "shown without warning as " + valueStr(Opt) +
                " but expected " + valueStr(E));
      // Suspect/Noncurrent with a differing value: honest warning,
      // exactly what the paper allows.  Nothing to report.
    }
  }

  // --- Behavioral equivalence of the two builds -----------------------
  if (R.ExpectedEnd != R.OptEnd)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "",
                   "end states differ (oracle " +
                       std::to_string(static_cast<int>(R.ExpectedEnd)) +
                       " vs optimized " +
                       std::to_string(static_cast<int>(R.OptEnd)) + ")"});
  else if (R.ExpectedEnd == StopReason::Exited &&
           R.ExpectedExit != R.OptExit)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "",
                   "exit values differ (" +
                       std::to_string(R.ExpectedExit) + " vs " +
                       std::to_string(R.OptExit) + ")"});
  if (R.ExpectedOutput != R.OptOutput)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "", "program outputs differ"});
  return Out;
}
