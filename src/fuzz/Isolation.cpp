//===- fuzz/Isolation.cpp -------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Isolation.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sldb;

namespace {

/// Cap on the child's report so it always fits the pipe's kernel buffer:
/// the parent only reads after the child exits, and a child blocked on a
/// full pipe would read as a hang.
constexpr std::size_t MaxReportBytes = 60'000;

void writeAll(int Fd, const char *Data, std::size_t N) {
  while (N > 0) {
    ssize_t W = ::write(Fd, Data, N);
    if (W <= 0) {
      if (W < 0 && errno == EINTR)
        continue;
      return;
    }
    Data += W;
    N -= static_cast<std::size_t>(W);
  }
}

/// Reaps \p Child with a blocking waitpid, retrying on EINTR so no exit
/// path can leave a zombie behind (a pool of workers each leaking one
/// per unit would exhaust the process table mid-campaign).
void reapBlocking(pid_t Child, int &WStatus) {
  for (;;) {
    pid_t W = ::waitpid(Child, &WStatus, 0);
    if (W == Child || (W < 0 && errno != EINTR))
      return;
  }
}

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

IsolatedOutcome sldb::runIsolated(
    unsigned TimeoutMs,
    const std::function<std::pair<bool, std::string>()> &Check) {
  IsolatedOutcome Out;

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    // No pipe: degrade to running in-process (a crash then kills the
    // campaign, but the alternative is not running the check at all).
    auto [Passed, Report] = Check();
    Out.Status = Passed ? IsolatedStatus::Ok : IsolatedStatus::Violation;
    Out.Report = std::move(Report);
    return Out;
  }

  pid_t Child = ::fork();
  if (Child < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    auto [Passed, Report] = Check();
    Out.Status = Passed ? IsolatedStatus::Ok : IsolatedStatus::Violation;
    Out.Report = std::move(Report);
    return Out;
  }

  if (Child == 0) {
    ::close(Pipe[0]);
    auto [Passed, Report] = Check();
    if (Report.size() > MaxReportBytes)
      Report.resize(MaxReportBytes);
    writeAll(Pipe[1], Report.data(), Report.size());
    ::close(Pipe[1]);
    ::_exit(Passed ? 0 : 1);
  }

  ::close(Pipe[1]);
  // Non-blocking read end: when runIsolated runs from a worker pool, a
  // sibling worker's child forked inside our pipe's lifetime inherits a
  // copy of our write end, so draining "to EOF" could block until that
  // unrelated child exits.  With O_NONBLOCK the post-reap drain stops at
  // EAGAIN instead — everything our own child wrote before _exit is
  // already in the kernel buffer (the report cap keeps it under one
  // pipe buffer), so nothing is lost.
  ::fcntl(Pipe[0], F_SETFL, O_NONBLOCK);

  // Watchdog: wall-clock deadline, so a child spinning in an
  // interpreter loop (or wedged in a syscall) is caught either way.
  // Poll with exponential backoff — a pool runs one watchdog per
  // worker, and a tight poll per child would burn a core each; backoff
  // keeps wakeups negligible while still catching a fast child within
  // a few hundred microseconds.
  const std::uint64_t DeadlineUs =
      nowUs() + static_cast<std::uint64_t>(TimeoutMs) * 1000;
  unsigned SleepUs = 200;
  constexpr unsigned MaxSleepUs = 20'000;
  int WStatus = 0;
  bool Exited = false;
  for (;;) {
    pid_t W = ::waitpid(Child, &WStatus, WNOHANG);
    if (W == Child) {
      Exited = true;
      break;
    }
    if (W < 0 && errno != EINTR) {
      // waitpid refused (should not happen for our own child): reap
      // defensively below rather than risk a zombie.
      break;
    }
    if (nowUs() >= DeadlineUs)
      break;
    ::usleep(SleepUs);
    SleepUs = std::min(SleepUs * 2, MaxSleepUs);
  }
  if (!Exited) {
    ::kill(Child, SIGKILL);
    reapBlocking(Child, WStatus);
    Out.Status = IsolatedStatus::Timeout;
  }

  // Drain the child's buffered report (child already reaped, so all of
  // its writes are visible; EAGAIN/EOF both mean done).
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    if (Out.Report.size() < MaxReportBytes)
      Out.Report.append(Buf, Buf + N);
  }
  ::close(Pipe[0]);

  if (!Exited)
    return Out;
  if (WIFEXITED(WStatus)) {
    int Code = WEXITSTATUS(WStatus);
    Out.Status = Code == 0   ? IsolatedStatus::Ok
                 : Code == 1 ? IsolatedStatus::Violation
                             : IsolatedStatus::Crash;
  } else if (WIFSIGNALED(WStatus)) {
    Out.Status = IsolatedStatus::Crash;
    Out.Signal = WTERMSIG(WStatus);
  } else {
    Out.Status = IsolatedStatus::Crash;
  }
  return Out;
}
