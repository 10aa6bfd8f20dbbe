//===- tools/sldbd.cpp - The classification daemon --------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sldbd` — a long-lived server that loads compiled-module corpora and
/// answers classify / classify-all / explain / step queries for
/// concurrent debug sessions over the line protocol of
/// service/Protocol.h (stdin/stdout by default, a unix socket with
/// `--socket`).  Every request runs inside the robustness envelope:
/// fuel + wall deadlines, arena/session byte budgets, batch admission
/// control with retry-after shedding, and first-failure module
/// quarantine (DESIGN.md "Service robustness model").
///
///   sldbd                         # serve stdin/stdout
///   sldbd --socket /tmp/sldbd.sock --jobs 8
///   sldbd --replay stream.txt     # batch mode: process a file, exit
///   sldbd --inject truncate-stmt-map --inject-seed 7   # soak target
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/FaultInjector.h"
#include "support/Interrupt.h"
#include "support/ParseDecimal.h"
#include "support/Stats.h"

#include <cstdio>
#include <string>

using namespace sldb;

namespace {

/// The most --jobs may ask for: the pool starts a thread per request of
/// a batch, up to --jobs of them.
constexpr unsigned MaxJobs = 256;

void usage() {
  std::fprintf(
      stderr,
      "usage: sldbd [options]\n"
      "  --jobs N              worker threads for query batches (1..256,\n"
      "                        default 1)\n"
      "  --socket PATH         serve a unix-domain socket instead of stdio\n"
      "  --replay FILE         process FILE as protocol batches, then exit\n"
      "  --fuel N              VM fuel per request (default 2000000)\n"
      "  --wall-ms N           cooperative per-request wall deadline\n"
      "  --hard-wall-ms N      watchdog: _exit(87) if one batch exceeds N\n"
      "  --arena-limit BYTES   per-load arena budget (0 = unlimited)\n"
      "  --session-limit BYTES per-session arena budget (0 = unlimited)\n"
      "  --queue-depth N       admitted requests per batch (0 = unlimited)\n"
      "  --retry-after-ms N    hint carried by shed responses\n"
      "  --max-modules N       registry capacity\n"
      "  --inject FAULT        arm a FaultInjector point for loads\n"
      "  --inject-seed N       victim-selection seed (default 1)\n"
      "  --stats               dump the stats registry on exit\n"
      "Integer values are decimal digits only.\n");
}

} // namespace

int main(int argc, char **argv) {
  ServiceLimits Limits;
  unsigned Jobs = 1;
  std::string SocketPath, ReplayPath, InjectName;
  std::uint32_t InjectSeed = 1;
  std::uint32_t HardWallMs = 60'000;
  bool DumpStats = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *Arg = nullptr;
    auto text = [&](std::string &Out) {
      return (Arg = next()) && (Out = Arg, true);
    };
    auto number = [&](auto &Out, auto... Range) {
      return (Arg = next()) && parseDecimal(Arg, Out, Range...);
    };
    bool Ok = true;
    if (A == "--jobs")
      Ok = number(Jobs, 1u, MaxJobs);
    else if (A == "--socket")
      Ok = text(SocketPath);
    else if (A == "--replay")
      Ok = text(ReplayPath);
    else if (A == "--fuel")
      Ok = number(Limits.RequestFuel);
    else if (A == "--wall-ms")
      Ok = number(Limits.RequestWallMs);
    else if (A == "--hard-wall-ms")
      Ok = number(HardWallMs);
    else if (A == "--arena-limit")
      Ok = number(Limits.LoadArenaBytes);
    else if (A == "--session-limit")
      Ok = number(Limits.SessionArenaBytes);
    else if (A == "--queue-depth")
      Ok = number(Limits.QueueDepth);
    else if (A == "--retry-after-ms")
      Ok = number(Limits.RetryAfterMs);
    else if (A == "--max-modules")
      Ok = number(Limits.MaxModules);
    else if (A == "--inject")
      Ok = text(InjectName);
    else if (A == "--inject-seed")
      Ok = number(InjectSeed);
    else if (A == "--stats")
      DumpStats = true;
    else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "sldbd: bad argument: %s%s%s\n", A.c_str(),
                   Arg ? " " : "", Arg ? Arg : "");
      usage();
      return 2;
    }
  }

  installInterruptHandlers();

  if (!InjectName.empty()) {
    const FaultPoint *P = FaultInjector::findPoint(InjectName);
    if (!P) {
      std::fprintf(stderr, "sldbd: unknown fault point '%s'\n",
                   InjectName.c_str());
      return 2;
    }
    // Armed on the main thread: loads (barrier verbs) run here, so the
    // injected corruption lands in the compiled tables; the classifier
    // build inside load runs under suspend() and judges the damage.
    FaultInjector::arm(P->Id, InjectSeed);
  }

  ServiceCore Core(Limits, Jobs);
  int Ret = 0;
  {
    Server Srv(Core, HardWallMs);
    if (!ReplayPath.empty()) {
      std::FILE *F = std::fopen(ReplayPath.c_str(), "rb");
      if (!F) {
        std::fprintf(stderr, "sldbd: cannot open %s\n", ReplayPath.c_str());
        return 2;
      }
      Ret = Srv.runStdio(F, stdout);
      std::fclose(F);
    } else if (!SocketPath.empty()) {
      Ret = Srv.runSocket(SocketPath);
    } else {
      Ret = Srv.runStdio(stdin, stdout);
    }
  }

  if (DumpStats)
    std::fputs(Stats::report().c_str(), stderr);
  return Ret;
}
