//===- perfbench/src/Service.cpp - The service workload -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `service`: a spawned `sldbd --jobs 1` on pipes, driven by one client in
/// a closed loop, one request per round trip (each request is its own
/// batch).  The requests come from generateQueryStream with no invalid
/// requests: 128 loads first, then 2000 classify / classify-all /
/// explain / step queries.  Each round replays the same stream against a
/// fresh daemon, so every round must answer byte-identically.
///
/// `load` compiles, builds classifiers eagerly, audits and charges the
/// arena; queries read the cached classifiers.  The round trip also
/// covers the protocol and the pipe transport.
///
/// Correctness: every response must be `ok`, the closing `stats` must
/// show `unsound=0`, a hang (no answer within 30 s) or a malformed
/// response fails the run, and the digest of all responses must repeat
/// on every round (run.py also compares it across runs).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "fuzz/QueryGen.h"
#include "service/ServiceCore.h"

#include <cerrno>
#include <csignal>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sldb;

namespace perfbench {
namespace {

constexpr int HangMs = 30'000;

/// One sldbd child process on a pair of pipes.  Owns the process: the
/// destructor kills and reaps it if finish() was not called.
class Daemon {
public:
  Daemon(const Options &O) {
    int ToChild[2], FromChild[2];
    if (pipe(ToChild) != 0)
      return;
    if (pipe(FromChild) != 0) {
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      return;
    }
    Pid = fork();
    if (Pid == 0) {
      dup2(ToChild[0], 0);
      dup2(FromChild[1], 1);
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      ::close(FromChild[1]);
      const char *Argv[] = {O.Sldbd.c_str(), "--jobs",        "1",
                            "--max-modules", "256",           nullptr};
      execv(O.Sldbd.c_str(), const_cast<char *const *>(Argv));
      _exit(127);
    }
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    In = ToChild[1];
    Out = FromChild[0];
    if (Pid < 0) {
      ::close(In);
      ::close(Out);
      In = Out = -1;
    }
  }

  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
    if (In >= 0)
      ::close(In);
    if (Out >= 0)
      ::close(Out);
  }

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool started() const { return Pid > 0; }

  /// Sends \p Line as a one-request batch and reads its one response.
  /// Returns false on a broken pipe, a hang or a malformed answer.
  bool request(const std::string &Line, std::string &Response) {
    std::string Msg = Line + "\n\n";
    for (std::size_t Off = 0; Off < Msg.size();) {
      ssize_t N = write(In, Msg.data() + Off, Msg.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    std::string Blank;
    return readLine(Response) && readLine(Blank) && Blank.empty() &&
           !Response.empty();
  }

  /// Closes the request pipe, waits for the daemon to exit, and returns
  /// its peak resident set in MB (negative when it did not exit cleanly).
  double finish() {
    ::close(In);
    In = -1;
    int Status = 0;
    struct rusage RU;
    pid_t P = wait4(Pid, &Status, 0, &RU);
    Pid = -1;
    if (P < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return -1;
    return static_cast<double>(RU.ru_maxrss) / 1024.0;
  }

private:
  bool readLine(std::string &Line) {
    for (;;) {
      std::size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return true;
      }
      struct pollfd P = {Out, POLLIN, 0};
      int R = poll(&P, 1, HangMs);
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        return false;
      char Chunk[65536];
      ssize_t N = read(Out, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<std::size_t>(N));
    }
  }

  pid_t Pid = -1;
  int In = -1, Out = -1;
  std::string Buf;
};

/// The request verb of a protocol line ("@s0 classify ..." -> classify).
std::string verbOf(const std::string &Line) {
  std::size_t B = 0;
  if (!Line.empty() && Line[0] == '@')
    B = Line.find(' ') + 1;
  std::size_t E = Line.find(' ', B);
  return Line.substr(B, E == std::string::npos ? E : E - B);
}

/// Whether \p Resp (with its "@session " prefix) is an ok response.
bool isOk(const std::string &Resp) {
  std::size_t B = 0;
  if (!Resp.empty() && Resp[0] == '@') {
    B = Resp.find(' ');
    if (B == std::string::npos)
      return false;
    ++B;
  }
  return Resp.compare(B, std::string::npos, "ok") == 0 ||
         Resp.compare(B, 3, "ok ") == 0;
}

std::vector<std::string> makeStream(std::uint64_t Seed) {
  QueryStreamOptions Q;
  Q.Sessions = 4;
  Q.ModulesPerSession = 32;
  Q.QueriesPerSession = 500;
  Q.BaseSeed = static_cast<std::uint32_t>(1 + (Seed % 100000) * 1000);
  Q.InvalidPct = 0;
  Q.BatchLines = 1;
  Q.ShuffleSeed = Seed + 1;
  std::vector<std::string> Lines;
  for (const auto &Batch : generateQueryStream(Q).Batches)
    Lines.insert(Lines.end(), Batch.begin(), Batch.end());
  return Lines;
}

/// One round: a fresh daemon answers the whole stream, then `stats`.
struct Round {
  std::vector<double> RtUs; ///< Per request, stream order.
  std::uint64_t Digest = 0;
  double PeakRssMb = -1;
  bool Ok = false;
};

/// \p G (untraced rounds) scales each round trip to reference ms.
Round runRound(const Options &O, const std::vector<std::string> &Lines,
               Report &R, bool Traced, SpeedGauge *G) {
  Round Rd;
  Daemon D(O);
  if (!D.started()) {
    R.fail("cannot start " + O.Sldbd);
    return Rd;
  }
  Rd.RtUs.reserve(Lines.size());
  Rd.Digest = fnv1a("");
  std::string Resp;
  for (const std::string &Line : Lines) {
    R.attempt();
    if (G)
      G->tick();
    bool Answered;
    const Clock::time_point T0 = Clock::now();
    if (Traced) {
      const std::string Name = "service.rt." + verbOf(Line);
      TraceSpan S(Name.c_str(), "perfbench");
      Answered = D.request(Line, Resp);
    } else {
      Answered = D.request(Line, Resp);
    }
    Rd.RtUs.push_back(msSince(T0) * 1000 * (G ? G->scale() : 1));
    if (!Answered) {
      R.fail("no well-formed answer to: " + Line);
      return Rd;
    }
    if (!isOk(Resp))
      R.fail("not ok: " + Line + " -> " + Resp);
    Rd.Digest = fnv1a(Resp + "\n", Rd.Digest);
  }
  R.attempt();
  if (!D.request("stats", Resp) || !isOk(Resp) ||
      Resp.find(" unsound=0") == std::string::npos) {
    R.fail("closing stats: " + Resp);
    return Rd;
  }
  Rd.Digest = fnv1a(Resp + "\n", Rd.Digest);
  Rd.PeakRssMb = D.finish();
  if (Rd.PeakRssMb < 0)
    R.fail("sldbd did not exit cleanly");
  Rd.Ok = true;
  return Rd;
}

/// The same request lines through an in-process ServiceCore, one batch
/// per request, each timed by the steady clock and added to \p HandlerUs
/// under its verb.  Traced passes also wrap each batch in a
/// "service.handler.<verb>" span, so the program's own spans of a load
/// nest in it.
void replayInProcess(const std::vector<std::string> &Lines, Report &R,
                     bool Traced, std::map<std::string, double> &HandlerUs) {
  ServiceLimits Limits;
  Limits.MaxModules = 256;
  ServiceCore Core(Limits, 1);
  for (const std::string &Line : Lines) {
    const std::string Verb = verbOf(Line);
    std::vector<std::string> Resp;
    const Clock::time_point T0 = Clock::now();
    if (Traced) {
      const std::string Name = "service.handler." + Verb;
      TraceSpan S(Name.c_str(), "perfbench");
      Resp = Core.processBatch({Line});
    } else {
      Resp = Core.processBatch({Line});
    }
    HandlerUs[Verb] += msSince(T0) * 1000;
    if (Resp.size() != 1 || !isOk(Resp[0]))
      R.fail("in-process handler: " + Line);
  }
}

const char *const Verbs[] = {"load", "classify", "classify-all", "explain",
                             "step"};

} // namespace

void runServiceWorkload(const Options &O, Report &R) {
  signal(SIGPIPE, SIG_IGN);
  // Set-up: generate the stream, start a daemon and see it answer
  // `health`, and stop it again before the first timed round.
  std::vector<std::string> Lines;
  bool Healthy = true;
  const double SetupS = measureSetup(R, [&] {
    Lines = makeStream(O.Seed);
    Daemon D(O);
    std::string Resp;
    Healthy = Healthy && D.started() && D.request("health", Resp) &&
              isOk(Resp) && D.finish() >= 0;
  });
  if (!Healthy)
    return R.fail("sldbd did not answer health: " + O.Sldbd);
  SpeedGauge G;

  if (O.Traced) {
    LayerLedger L;
    std::map<std::string, double> Out;
    // Round trips and handler times per verb, summed over the untraced
    // passes, so both are measured without the cost of tracing.
    std::map<std::string, double> RtUs, HandlerUs, Unused;
    std::map<std::string, std::uint64_t> PerVerb;
    for (const std::string &Line : Lines)
      ++PerVerb[verbOf(Line)];
    double PlainPasses = 0;
    double Passes = runTracedPasses(O, R, L, [&](bool Traced) {
      Round Rd = runRound(O, Lines, R, Traced, nullptr);
      if (Traced) {
        L.fold();
        replayInProcess(Lines, R, true, Unused);
        L.fold();
      } else if (Rd.Ok) {
        for (std::size_t I = 0; I < Lines.size(); ++I)
          RtUs[verbOf(Lines[I])] += Rd.RtUs[I];
        replayInProcess(Lines, R, false, HandlerUs);
        ++PlainPasses;
      }
      PassOutcome P;
      for (double Us : Rd.RtUs)
        P.OpMs += Us / 1000;
      P.Counts = {{"service.response_digest", Rd.Digest},
                  {"service.requests", Rd.RtUs.size()}};
      return P;
    }, Out);
    emitCompileLayers(L, Passes, Out);
    // Transport share of the queries: a load's round trip is nearly all
    // compile, so over all requests the share would mostly say how many
    // loads the stream has.
    double QueryRt = 0, QueryHandler = 0;
    for (const char *V : Verbs) {
      const double Calls = PerVerb[V] * PlainPasses;
      Out[std::string("service.rt.") + V + "_us"] =
          Calls ? RtUs[V] / Calls : 0;
      Out[std::string("service.handler.") + V + "_us"] =
          Calls ? HandlerUs[V] / Calls : 0;
      if (std::string(V) != "load") {
        QueryRt += RtUs[V];
        QueryHandler += HandlerUs[V];
      }
    }
    Out["service.transport_share"] =
        QueryRt > 0 ? 1 - QueryHandler / QueryRt : 0;
    R.note("service.transport_share of loads = " +
           fmt(RtUs["load"] > 0 ? 1 - HandlerUs["load"] / RtUs["load"] : 0));
    double Hits = L.get("classifier.cache.hits"),
           Misses = L.get("classifier.cache.misses");
    Out["classifier.cache_hit_ratio"] = Hits + Misses ? Hits / (Hits + Misses) : 0;
    Out["classifier.cache_lookups"] = (Hits + Misses) / Passes;
    emitPerLayer(R, Out);
    return;
  }

  // Timed rounds; each request's latency is its median over the rounds
  // (the rounds replay one stream, so request i is the same work every
  // round).
  std::vector<Round> Rounds;
  const Clock::time_point Start = Clock::now();
  while (Rounds.empty() || msSince(Start) < O.Seconds * 1000) {
    Rounds.push_back(runRound(O, Lines, R, false, &G));
    if (!Rounds.back().Ok)
      return;
    if (Rounds.back().Digest != Rounds.front().Digest)
      R.fail("determinism: round " + std::to_string(Rounds.size() - 1) +
             " answered differently from round 0");
  }
  std::vector<double> Loads, Queries, Rss;
  double StreamMs = 0; ///< Sum of the per-request medians.
  for (std::size_t I = 0; I < Lines.size(); ++I) {
    std::vector<double> Samples;
    for (const Round &Rd : Rounds)
      Samples.push_back(Rd.RtUs[I]);
    const double Ms = median(Samples) / 1000;
    (verbOf(Lines[I]) == "load" ? Loads : Queries).push_back(Ms);
    StreamMs += Ms;
  }
  for (const Round &Rd : Rounds)
    Rss.push_back(Rd.PeakRssMb);
  Latency LoadLat = summarize(Loads), QueryLat = summarize(Queries);
  const double ReqPerS = Lines.size() / (StreamMs / 1000);
  R.note("service: " + std::to_string(Rounds.size()) + " rounds of " +
         std::to_string(Lines.size()) + " requests (" +
         std::to_string(Loads.size()) + " loads), digest " +
         std::to_string(Rounds.front().Digest));
  R.note("service.requests_per_s = " + fmt(ReqPerS) + " 1/s");
  R.note("service.load_ms_p50 = " + fmt(LoadLat.P50) + " ms, tail = " +
         fmt(LoadLat.Tail) + " ms (" + LoadLat.TailName + ", " +
         std::to_string(LoadLat.Beyond) + " of " +
         std::to_string(LoadLat.N) + " loads beyond)");
  R.note("service.query_us_p50 = " + fmt(QueryLat.P50 * 1000) +
         " us, tail = " + fmt(QueryLat.Tail * 1000) + " us (" +
         QueryLat.TailName + ", " + std::to_string(QueryLat.Beyond) + " of " +
         std::to_string(QueryLat.N) + " queries beyond)");
  R.count("service.response_digest", Rounds.front().Digest);

  Quality Q = measureQuality(R);
  reportEndToEnd(R, SetupS, median(Rss), ReqPerS, QueryLat,
                 "query round trip");
  reportQuality(R, Q);
}

} // namespace perfbench
