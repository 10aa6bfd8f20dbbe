//===- support/FaultInjector.h - Seeded fault injection ---------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of *named* fault-injection points used to test
/// the failure model (DESIGN.md "Failure model").  Generalizes the ad-hoc
/// `ClassifierFaults` booleans of the first fuzzing PR: each point has a
/// stable name (for `sldb-fuzz --inject`), a seeded PRNG for victim
/// selection, and a `Defended` flag:
///
///  * Defended points simulate corrupted debug bookkeeping (a dropped
///    marker, a dangling hoist key, a truncated location table...).  The
///    AnnotationVerifier must detect the damage and the Classifier must
///    degrade to conservative answers — the inject campaign asserts no
///    crash and no unsound CURRENT verdict while one is armed.
///
///  * Undefended points ("teeth" faults) break the classifier's own
///    dataflow; the differential oracle must *catch* the resulting
///    unsoundness.  They prove the fuzzer can see, and are excluded from
///    the inject campaign.
///
/// At most one fault is armed *per thread* at a time; arming is
/// deterministic (seeded), so a failing (seed, fault) pair replays
/// exactly.  Code under test queries `armed(Id)` at its injection site
/// and uses `rand()` to pick victims.  All hooks are zero-cost when
/// nothing is armed beyond a TLS load and an enum compare.
///
/// Thread-ownership rule (parallel campaigns): all armed-fault state —
/// the current fault, the suspended fault and the PRNG stream — is
/// `thread_local`.  The thread that arms a fault
/// owns it: only that thread sees `armed()` return true, only that
/// thread's `suspend()/resume()` window affects it, and the compile/run
/// work for a (seed, fault) unit must therefore stay on the arming
/// thread from `arm()` to `disarm()`.  A worker building its pristine
/// oracle under `suspend()` can never observe a sibling worker's armed
/// fault, and two workers' victim-selection PRNG streams never
/// interleave.  Handing armed work between threads is not supported.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_FAULTINJECTOR_H
#define SLDB_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace sldb {

/// Every injection point in the system.
enum class FaultId : std::uint8_t {
  None = 0,
  // Teeth faults (undefended; the oracle must catch the unsoundness).
  ClassifierSuppressHoistGen,      ///< Hoist reach loses its gen sets.
  ClassifierSuppressDeadAssignKill,///< Dead reach loses assignment kills.
  // Defended faults (the verifier must detect; classifier must degrade).
  DropDeadMarker,     ///< One MDEAD marker demoted to MNOP after codegen.
  CorruptMarkerVar,   ///< One marker's MarkVar pointed at a bogus id.
  CorruptMarkerStmt,  ///< One marker's MarkStmt pushed out of range.
  CorruptHoistKey,    ///< One hoisted instruction's key made dangling.
  TruncateStmtMap,    ///< StmtAddr location table truncated.
  CorruptRecoveryReg, ///< One InReg recovery retargeted to a bogus reg.
  TruncateResidentAt, ///< One variable's residence bit-vector truncated.
  TrapVMMidRun,       ///< VM traps after a random number of steps.
};

struct FaultPoint {
  FaultId Id;
  const char *Name; ///< Stable CLI name (sldb-fuzz --inject).
  bool Defended;
  const char *Desc;
};

/// Per-thread arm/disarm interface (see the thread-ownership rule in the
/// file comment).  Forked children inherit the forking thread's state.
class FaultInjector {
public:
  /// All registered points, in FaultId order (None excluded).
  static const std::vector<FaultPoint> &points();

  /// Looks a point up by CLI name; null if unknown.
  static const FaultPoint *findPoint(std::string_view Name);

  /// Arms \p Id on the calling thread with a deterministic PRNG stream
  /// derived from \p Seed.  Replaces any fault previously armed here.
  static void arm(FaultId Id, std::uint32_t Seed);

  /// Disarms everything armed on the calling thread.
  static void disarm();

  static bool armed(FaultId Id) { return Cur == Id; }
  static FaultId current() { return Cur; }

  /// Next value of the armed fault's PRNG stream (victim selection).
  static std::uint32_t rand();

  /// Temporarily disarms on the calling thread (e.g. while compiling the
  /// oracle build in lockstep, which must stay pristine); resume()
  /// restores.  A suspend window never touches other threads' faults.
  static void suspend();
  static void resume();

private:
  static thread_local FaultId Cur;
  static thread_local FaultId Suspended;
  static thread_local std::uint64_t Rng;
};

} // namespace sldb

#endif // SLDB_SUPPORT_FAULTINJECTOR_H
