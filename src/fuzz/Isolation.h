//===- fuzz/Isolation.h - Fork-based crash isolation ------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash containment for fuzzing campaigns: runs one check in a forked
/// child process under a wall-clock watchdog, so a seed that crashes the
/// compiler (or hangs it) is *recorded* instead of killing the whole
/// campaign.  The child reports back over a pipe; the parent classifies
/// the outcome as Ok / Violation / Crash (fatal signal or unexpected
/// exit) / Timeout (watchdog SIGKILL).
///
/// POSIX-only (fork/pipe/waitpid), like the rest of the harness's
/// process plumbing.  The child must not return from the callback by
/// throwing — the project builds with -fno-exceptions — and must treat
/// the callback as its entire remaining life: it exits immediately
/// afterwards without running parent-side destructors twice.
///
/// Safe to call concurrently from a worker pool (parallel campaigns run
/// one forked child per worker): the watchdog polls with exponential
/// backoff instead of spinning a core per child, children are reaped on
/// every exit path (no zombies), and the report drain is non-blocking so
/// a sibling worker's child holding an inherited copy of our pipe's
/// write end cannot stall us.  Children fork from a multithreaded parent
/// and only run the calling thread; post-fork allocation in the child
/// relies on glibc's fork() taking the malloc locks (true since 2.24).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_ISOLATION_H
#define SLDB_FUZZ_ISOLATION_H

#include <functional>
#include <string>

namespace sldb {

/// How an isolated check ended.
enum class IsolatedStatus : std::uint8_t {
  Ok,        ///< Child exited 0: the check passed.
  Violation, ///< Child exited 1: the check failed cleanly (report set).
  Crash,     ///< Child died on a signal or exited with another code.
  Timeout    ///< Watchdog expired; child was SIGKILLed.
};

struct IsolatedOutcome {
  IsolatedStatus Status = IsolatedStatus::Ok;
  int Signal = 0;     ///< Fatal signal number (Crash only; 0 otherwise).
  std::string Report; ///< Whatever the child wrote (capped at ~60 KB).
};

/// Forks and runs \p Check in the child.  The callback returns
/// (passed, report): `passed` selects exit status 0 vs 1 and `report`
/// is sent to the parent over a pipe.  The parent waits at most
/// \p TimeoutMs wall-clock milliseconds, then SIGKILLs the child and
/// reports Timeout.  Never throws and never propagates the child's
/// death to the caller.
IsolatedOutcome
runIsolated(unsigned TimeoutMs,
            const std::function<std::pair<bool, std::string>()> &Check);

} // namespace sldb

#endif // SLDB_FUZZ_ISOLATION_H
