//===- tools/sldb-load.cpp - Load generator / soak driver -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sldb-load` — replays deterministic query streams (fuzz/QueryGen.h)
/// against an `sldbd`, either spawned over pipes (`--spawn`) or reached
/// through its unix socket (`--socket`, with `--concurrency` client
/// threads each on its own connection and session range).
///
/// The robustness-envelope contract is exercised end to end: shed
/// responses are retried with exponential backoff seeded from the
/// daemon's retry-after hint; a response that takes longer than
/// `--hang-timeout-ms` is a *hang* (exit 3); `--expect-sound` fails the
/// run (exit 1) on any malformed response or a nonzero `unsound`
/// counter in the daemon's final `stats` answer.  `--duration N` turns
/// one replay into an N-second soak, iterating fresh streams.
///
/// Reports a latency histogram (per-batch round trips) plus response
/// counts.
///
//===----------------------------------------------------------------------===//

#include "fuzz/QueryGen.h"
#include "support/Interrupt.h"
#include "support/ParseDecimal.h"
#include "support/Percentiles.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sldb;

namespace {

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string Spawn;      ///< Path to sldbd (pipe mode).
  std::string Socket;     ///< Daemon socket path (socket mode).
  std::vector<std::string> DaemonArgs; ///< Forwarded after --spawn.
  unsigned Sessions = 4;
  unsigned Modules = 2;
  unsigned Queries = 100;
  std::uint32_t Seed = 1;
  std::uint64_t ShuffleSeed = 0;
  unsigned Concurrency = 1;
  unsigned Qps = 0;           ///< Requests/sec pacing; 0 = full speed.
  unsigned DurationSec = 0;   ///< Soak; 0 = one stream.
  unsigned HangTimeoutMs = 30'000;
  bool ExpectSound = false;
  bool Quiet = false;
};

/// Counts and latency samples for one client; merged for the report.
struct ClientStats {
  std::uint64_t Ok = 0, Err = 0, Shed = 0, Retries = 0, Malformed = 0;
  std::uint64_t Batches = 0;
  std::vector<std::uint64_t> LatencyUs; ///< One sample per batch.
  bool Hang = false;
  std::uint64_t Unsound = 0; ///< From the final stats response.
};

/// A line-framed bidirectional channel (pipe pair or connected socket).
struct Channel {
  int RdFd = -1, WrFd = -1;
  std::string Buf;

  bool writeAll(const std::string &S) {
    std::size_t Off = 0;
    while (Off < S.size()) {
      ssize_t W = ::write(WrFd, S.data() + Off, S.size() - Off);
      if (W <= 0) {
        if (W < 0 && errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<std::size_t>(W);
    }
    return true;
  }

  /// Reads lines until the blank batch terminator.  Returns false on
  /// EOF/error; sets \p TimedOut when the hang timeout expires first.
  bool readBatch(std::vector<std::string> &Lines, unsigned TimeoutMs,
                 bool &TimedOut) {
    TimedOut = false;
    const std::uint64_t Deadline = nowUs() + std::uint64_t(TimeoutMs) * 1000;
    for (;;) {
      // Drain complete lines already buffered.
      std::size_t Pos;
      while ((Pos = Buf.find('\n')) != std::string::npos) {
        std::string Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        if (Line.empty())
          return true; // Batch terminator.
        Lines.push_back(std::move(Line));
      }
      std::uint64_t Now = nowUs();
      if (TimeoutMs && Now >= Deadline) {
        TimedOut = true;
        return false;
      }
      pollfd P = {RdFd, POLLIN, 0};
      int Timeout =
          TimeoutMs ? static_cast<int>((Deadline - Now) / 1000 + 1) : -1;
      int N = ::poll(&P, 1, Timeout);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      if (N == 0) {
        TimedOut = true;
        return false;
      }
      char Tmp[4096];
      ssize_t R = ::read(RdFd, Tmp, sizeof(Tmp));
      if (R <= 0)
        return false;
      Buf.append(Tmp, static_cast<std::size_t>(R));
    }
  }
};

/// Classifies a response line; returns false when malformed.
bool classifyResponse(const std::string &Line, ClientStats &CS,
                      std::string *Payload = nullptr) {
  std::string_view S = Line;
  if (!S.empty() && S[0] == '@') {
    std::size_t Sp = S.find(' ');
    if (Sp == std::string_view::npos) {
      ++CS.Malformed;
      return false;
    }
    S.remove_prefix(Sp + 1);
  }
  if (S.rfind("ok", 0) == 0 && (S.size() == 2 || S[2] == ' ')) {
    ++CS.Ok;
    if (Payload)
      *Payload = std::string(S.size() > 3 ? S.substr(3) : "");
    return true;
  }
  if (S.rfind("err ", 0) == 0) {
    ++CS.Err;
    return true;
  }
  if (S.rfind("shed retry-after-ms=", 0) == 0) {
    ++CS.Shed;
    return true;
  }
  ++CS.Malformed;
  return false;
}

std::uint32_t shedRetryAfterMs(const std::string &Line) {
  std::size_t Pos = Line.find("retry-after-ms=");
  if (Pos == std::string::npos)
    return 50;
  return static_cast<std::uint32_t>(
      std::strtoul(Line.c_str() + Pos + 15, nullptr, 10));
}

/// Sends one batch, awaits its responses, retries shed requests with
/// exponential backoff.  Returns false on hang/EOF.
bool runBatch(Channel &Ch, std::vector<std::string> Lines, const Options &O,
              ClientStats &CS) {
  for (unsigned Attempt = 0; !Lines.empty() && Attempt < 8; ++Attempt) {
    std::string Out;
    for (const std::string &L : Lines) {
      Out += L;
      Out += '\n';
    }
    Out += '\n';
    const std::uint64_t T0 = nowUs();
    if (!Ch.writeAll(Out))
      return false;
    std::vector<std::string> Resp;
    bool TimedOut = false;
    if (!Ch.readBatch(Resp, O.HangTimeoutMs, TimedOut)) {
      CS.Hang = TimedOut;
      return false;
    }
    CS.LatencyUs.push_back(nowUs() - T0);
    ++CS.Batches;

    // Pair responses to requests by index; collect shed ones to retry.
    std::vector<std::string> Retry;
    std::uint32_t RetryAfter = 0;
    for (std::size_t I = 0; I < Resp.size(); ++I) {
      classifyResponse(Resp[I], CS);
      if (Resp[I].find("shed retry-after-ms=") != std::string::npos &&
          I < Lines.size()) {
        Retry.push_back(Lines[I]);
        RetryAfter = std::max(RetryAfter, shedRetryAfterMs(Resp[I]));
      }
    }
    if (Resp.size() != Lines.size())
      ++CS.Malformed; // Response-count mismatch is a protocol break.
    if (Retry.empty())
      return true;
    // Honor the hint with exponential backoff: hint * 2^attempt.
    CS.Retries += Retry.size();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::uint64_t(RetryAfter) << Attempt));
    Lines = std::move(Retry);
  }
  return true;
}

/// Drives one full stream (loads + queries [+ stats]) over a channel.
bool runStream(Channel &Ch, const QueryStream &Stream, const Options &O,
               ClientStats &CS) {
  for (const auto &Batch : Stream.Batches) {
    if (interruptRequested())
      return true;
    if (!runBatch(Ch, Batch, O, CS))
      return false;
    if (O.Qps) {
      // Pace: this batch's share of a second at the target rate.
      std::uint64_t DelayUs =
          std::uint64_t(Batch.size()) * 1'000'000 / O.Qps;
      std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
    }
  }
  return true;
}

/// Final `stats` round-trip: extracts the daemon's unsound counter.
bool fetchStats(Channel &Ch, const Options &O, ClientStats &CS) {
  if (!Ch.writeAll("stats\n\n"))
    return false;
  std::vector<std::string> Resp;
  bool TimedOut = false;
  if (!Ch.readBatch(Resp, O.HangTimeoutMs, TimedOut)) {
    CS.Hang = TimedOut;
    return false;
  }
  for (const std::string &L : Resp) {
    std::size_t Pos = L.find("unsound=");
    if (Pos != std::string::npos)
      CS.Unsound += std::strtoull(L.c_str() + Pos + 8, nullptr, 10);
  }
  return true;
}

int connectSocket(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  // The daemon may still be binding; retry briefly.
  for (int Try = 0; Try < 50; ++Try) {
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::close(Fd);
  return -1;
}

/// The most client threads --concurrency may start.
constexpr unsigned MaxConcurrency = 256;

void usage() {
  std::fprintf(
      stderr,
      "usage: sldb-load (--spawn SLDBD [daemon args...] | --socket PATH)\n"
      "                 [options]\n"
      "  --sessions N        concurrent debug sessions in the stream (4)\n"
      "  --modules N         modules per session (2)\n"
      "  --queries N         queries per session (100)\n"
      "  --seed N            first module seed (1)\n"
      "  --shuffle-seed N    session-interleave shuffle (0 = round-robin)\n"
      "  --concurrency N     client threads, socket mode only (1..256, 1)\n"
      "  --qps N             request pacing (0 = full speed)\n"
      "  --duration SECS     soak: iterate fresh streams for SECS\n"
      "  --hang-timeout-ms N no-response hang threshold (30000)\n"
      "  --expect-sound      fail on malformed responses or unsound>0\n"
      "  --quiet             suppress the report\n"
      "Integer values are decimal digits only.  Everything after --spawn\n"
      "SLDBD up to the next --option is passed to the spawned daemon.\n");
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *Arg = nullptr;
    auto number = [&](auto &Out, auto... Range) {
      return (Arg = next()) && parseDecimal(Arg, Out, Range...);
    };
    bool Ok = true;
    if (A == "--spawn" && (Arg = next())) {
      O.Spawn = Arg;
      // Slurp daemon args until the next --option of ours.
      while (I + 1 < argc) {
        std::string Peek = argv[I + 1];
        if (Peek.rfind("--sessions", 0) == 0 || Peek.rfind("--modules", 0) == 0 ||
            Peek.rfind("--queries", 0) == 0 || Peek.rfind("--seed", 0) == 0 ||
            Peek.rfind("--shuffle-seed", 0) == 0 ||
            Peek.rfind("--concurrency", 0) == 0 || Peek.rfind("--qps", 0) == 0 ||
            Peek.rfind("--duration", 0) == 0 ||
            Peek.rfind("--hang-timeout-ms", 0) == 0 ||
            Peek.rfind("--expect-sound", 0) == 0 ||
            Peek.rfind("--quiet", 0) == 0 || Peek.rfind("--socket", 0) == 0)
          break;
        O.DaemonArgs.push_back(argv[++I]);
      }
    } else if (A == "--socket" && (Arg = next()))
      O.Socket = Arg;
    else if (A == "--sessions")
      Ok = number(O.Sessions);
    else if (A == "--modules")
      Ok = number(O.Modules);
    else if (A == "--queries")
      Ok = number(O.Queries);
    else if (A == "--seed")
      Ok = number(O.Seed);
    else if (A == "--shuffle-seed")
      Ok = number(O.ShuffleSeed);
    else if (A == "--concurrency")
      Ok = number(O.Concurrency, 1u, MaxConcurrency);
    else if (A == "--qps")
      Ok = number(O.Qps);
    else if (A == "--duration")
      Ok = number(O.DurationSec);
    else if (A == "--hang-timeout-ms")
      Ok = number(O.HangTimeoutMs);
    else if (A == "--expect-sound")
      O.ExpectSound = true;
    else if (A == "--quiet")
      O.Quiet = true;
    else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "sldb-load: bad argument: %s%s%s\n", A.c_str(),
                   Arg ? " " : "", Arg ? Arg : "");
      usage();
      return 2;
    }
  }
  if (O.Spawn.empty() == O.Socket.empty()) {
    std::fprintf(stderr,
                 "sldb-load: exactly one of --spawn / --socket required\n");
    usage();
    return 2;
  }

  installInterruptHandlers();
  // A daemon that dies mid-stream must surface as a diagnosed CRASH
  // (exit 1), not kill us with SIGPIPE on the next batch write.
  ::signal(SIGPIPE, SIG_IGN);

  // Spawn the daemon (pipe mode).
  pid_t Child = -1;
  Channel Pipe;
  if (!O.Spawn.empty()) {
    if (O.Concurrency > 1) {
      std::fprintf(stderr,
                   "sldb-load: --concurrency needs --socket; forcing 1\n");
      O.Concurrency = 1;
    }
    int In[2], Out[2]; // In: us -> daemon stdin; Out: daemon stdout -> us.
    if (::pipe(In) != 0 || ::pipe(Out) != 0) {
      std::perror("sldb-load: pipe");
      return 2;
    }
    Child = ::fork();
    if (Child < 0) {
      std::perror("sldb-load: fork");
      return 2;
    }
    if (Child == 0) {
      ::dup2(In[0], 0);
      ::dup2(Out[1], 1);
      ::close(In[0]);
      ::close(In[1]);
      ::close(Out[0]);
      ::close(Out[1]);
      std::vector<char *> Argv;
      Argv.push_back(const_cast<char *>(O.Spawn.c_str()));
      for (const std::string &S : O.DaemonArgs)
        Argv.push_back(const_cast<char *>(S.c_str()));
      Argv.push_back(nullptr);
      ::execv(O.Spawn.c_str(), Argv.data());
      std::perror("sldb-load: execv");
      ::_exit(127);
    }
    ::close(In[0]);
    ::close(Out[1]);
    Pipe.WrFd = In[1];
    Pipe.RdFd = Out[0];
  }

  const std::uint64_t StartUs = nowUs();
  const std::uint64_t SoakUs = std::uint64_t(O.DurationSec) * 1'000'000;
  std::vector<ClientStats> Stats(O.Concurrency);
  std::atomic<bool> Failed{false};

  auto clientBody = [&](unsigned C) {
    ClientStats &CS = Stats[C];
    Channel Ch;
    int SockFd = -1;
    if (!O.Socket.empty()) {
      SockFd = connectSocket(O.Socket);
      if (SockFd < 0) {
        std::fprintf(stderr, "sldb-load: cannot connect to %s\n",
                     O.Socket.c_str());
        Failed.store(true);
        return;
      }
      Ch.RdFd = Ch.WrFd = SockFd;
    } else {
      Ch = Pipe;
    }

    QueryStreamOptions QO;
    QO.Sessions = O.Sessions;
    QO.ModulesPerSession = O.Modules;
    QO.QueriesPerSession = O.Queries;
    // Distinct seed block and name prefix per client so modules and
    // sessions never collide across connections.
    QO.BaseSeed = O.Seed + C * 1000;
    QO.ShuffleSeed = O.ShuffleSeed ? O.ShuffleSeed + C : 0;
    if (C > 0)
      QO.NamePrefix = "c" + std::to_string(C) + ".";
    QueryStream Stream = generateQueryStream(QO);

    // Soak replays the same stream: iteration 2's loads answer with
    // cheap duplicate-name errors while the queries keep hammering the
    // modules (and any quarantine state) from iteration 1.
    do {
      if (!runStream(Ch, Stream, O, CS)) {
        Failed.store(true);
        break;
      }
    } while (!interruptRequested() && SoakUs && nowUs() - StartUs < SoakUs);

    if (!CS.Hang)
      fetchStats(Ch, O, CS);
    if (SockFd >= 0)
      ::close(SockFd);
  };

  if (O.Concurrency <= 1) {
    clientBody(0);
  } else {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < O.Concurrency; ++C)
      Threads.emplace_back(clientBody, C);
    for (std::thread &T : Threads)
      T.join();
  }

  // Shut the spawned daemon down and reap it.
  int DaemonStatus = 0;
  bool DaemonCrashed = false;
  if (Child > 0) {
    Pipe.writeAll("shutdown\n\n");
    ::close(Pipe.WrFd);
    // Give it a moment; then escalate.
    for (int Try = 0; Try < 100; ++Try) {
      pid_t W = ::waitpid(Child, &DaemonStatus, WNOHANG);
      if (W == Child) {
        Child = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (Child > 0) {
      ::kill(Child, SIGKILL);
      ::waitpid(Child, &DaemonStatus, 0);
      DaemonCrashed = true; // Would not exit: counts as a hang.
    } else if (WIFSIGNALED(DaemonStatus)) {
      DaemonCrashed = true;
    } else if (WIFEXITED(DaemonStatus) && WEXITSTATUS(DaemonStatus) != 0) {
      DaemonCrashed = true; // Includes the watchdog's exit 87.
    }
    ::close(Pipe.RdFd);
  }

  // Merge and report.
  ClientStats Total;
  bool Hang = false;
  for (ClientStats &CS : Stats) {
    Total.Ok += CS.Ok;
    Total.Err += CS.Err;
    Total.Shed += CS.Shed;
    Total.Retries += CS.Retries;
    Total.Malformed += CS.Malformed;
    Total.Batches += CS.Batches;
    Total.Unsound += CS.Unsound;
    Hang |= CS.Hang;
    Total.LatencyUs.insert(Total.LatencyUs.end(), CS.LatencyUs.begin(),
                           CS.LatencyUs.end());
  }
  if (!O.Quiet) {
    std::printf("batches:   %llu\n",
                static_cast<unsigned long long>(Total.Batches));
    std::printf("ok:        %llu\n", static_cast<unsigned long long>(Total.Ok));
    std::printf("err:       %llu\n",
                static_cast<unsigned long long>(Total.Err));
    std::printf("shed:      %llu (retried %llu)\n",
                static_cast<unsigned long long>(Total.Shed),
                static_cast<unsigned long long>(Total.Retries));
    std::printf("malformed: %llu\n",
                static_cast<unsigned long long>(Total.Malformed));
    std::printf("unsound:   %llu\n",
                static_cast<unsigned long long>(Total.Unsound));
    // An all-shed stream has no completed round trips: the summary says
    // n/a rather than a fabricated zero (support/Percentiles.h).
    std::printf("%s\n", latencyReportLine(Total.LatencyUs).c_str());
    if (Hang)
      std::printf("HANG: daemon stopped answering\n");
    if (DaemonCrashed)
      std::printf("CRASH: daemon did not exit cleanly\n");
  }

  if (Hang)
    return 3;
  if (DaemonCrashed || Failed.load())
    return 1;
  if (O.ExpectSound && (Total.Malformed || Total.Unsound))
    return 1;
  return 0;
}
