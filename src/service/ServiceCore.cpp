//===- service/ServiceCore.cpp --------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceCore.h"

#include "core/Debugger.h"
#include "eval/Levels.h"
#include "fuzz/ProgramGen.h"
#include "support/FaultInjector.h"
#include "support/ParseDecimal.h"
#include "support/Stats.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

using namespace sldb;

namespace {

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The `service.latency_us.<verb>` histogram of \p V, bound once per
/// verb so a request pays no name building or registry lookup.
StatHistogram &latencyHistogram(Verb V) {
  constexpr std::size_t NumVerbs = static_cast<std::size_t>(Verb::Shutdown) + 1;
  static const std::array<StatHistogram *, NumVerbs> Table = [] {
    std::array<StatHistogram *, NumVerbs> T{};
    for (std::size_t I = 0; I < NumVerbs; ++I)
      T[I] = &Stats::histogram(std::string("service.latency_us.") +
                               verbName(static_cast<Verb>(I)));
    return T;
  }();
  return *Table[static_cast<std::size_t>(V)];
}

/// Reads a whole file; nullopt on error or when larger than \p MaxBytes.
std::optional<std::string> readFileCapped(const std::string &Path,
                                          std::size_t MaxBytes,
                                          std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  std::string Text;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0) {
    Text.append(Buf, N);
    if (MaxBytes && Text.size() > MaxBytes) {
      std::fclose(F);
      Err = "'" + Path + "' exceeds " + std::to_string(MaxBytes) + " bytes";
      return std::nullopt;
    }
  }
  bool ReadErr = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadErr) {
    Err = "read error on '" + Path + "'";
    return std::nullopt;
  }
  return Text;
}

const char *varClassToken(VarClass C) {
  switch (C) {
  case VarClass::Uninitialized:
    return "uninitialized";
  case VarClass::Nonresident:
    return "nonresident";
  case VarClass::Noncurrent:
    return "noncurrent";
  case VarClass::Suspect:
    return "suspect";
  case VarClass::Current:
    return "current";
  }
  return "?";
}

} // namespace

std::size_t ServiceCore::numQuarantined() const {
  std::size_t N = 0;
  for (const auto &KV : Modules)
    N += KV.second->Quarantined ? 1 : 0;
  return N;
}

std::string ServiceCore::renderClass(const Classification &C) {
  std::string S = varClassToken(C.Kind);
  if (C.Recoverable)
    S += ",rec";
  if (C.Degraded)
    S += ",deg";
  return S;
}

void ServiceCore::auditContainment(const LoadedModule &Mod,
                                   const Classification &C) {
  if (Mod.Quarantined &&
      (C.Kind == VarClass::Current || C.Recoverable)) {
    // The containment promise is broken: a quarantined module produced a
    // trusting verdict.  Diagnostic only — nothing branches on it — but
    // the soak harness asserts it stays zero.
    static StatCounter &Unsound = Stats::counter("service.unsound");
    Unsound.add(1);
    Counters.Unsound.fetch_add(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// load
//===----------------------------------------------------------------------===//

std::string ServiceCore::doLoad(const Request &R) {
  static StatCounter &Loads = Stats::counter("service.loads");
  static StatCounter &LoadFails = Stats::counter("service.load_failures");
  const std::string &Name = R.Args[0];
  const std::string &Spec = R.Args[1];

  if (Modules.count(Name))
    return renderErr(R.Session, ErrorCode::InvalidRequest,
                     "module '" + Name + "' already loaded");
  if (Limits.MaxModules && Modules.size() >= Limits.MaxModules) {
    LoadFails.add(1);
    return renderErr(R.Session, ErrorCode::ResourceExhausted,
                     "module registry full (" +
                         std::to_string(Limits.MaxModules) + " modules)");
  }

  // Optional pipeline level (eval/Levels.h), resolved before any
  // compilation: a request naming an unknown or future level gets a
  // structured refusal and the registry stays untouched — a bad level
  // name must never quarantine anything.
  const LevelSpec *Lvl = nullptr;
  if (R.Args.size() > 2) {
    Lvl = findLevel(R.Args[2]);
    if (!Lvl) {
      LoadFails.add(1);
      return renderErr(R.Session, ErrorCode::UnknownLevel,
                       "unknown pipeline level '" + R.Args[2] + "'");
    }
  }

  // Resolve the source text.
  std::string Source;
  if (Spec.rfind("seed:", 0) == 0) {
    std::uint64_t Seed = 0;
    if (!parseDecimal(Spec.substr(5), Seed))
      return renderErr(R.Session, ErrorCode::InvalidRequest,
                       "bad seed in '" + Spec + "'");
    GenOptions GO;
    GO.TopStmts = Limits.GenTopStmts;
    Source = generateProgram(static_cast<std::uint32_t>(Seed), GO);
  } else if (Spec.rfind("file:", 0) == 0) {
    std::string Err;
    std::optional<std::string> Text = readFileCapped(
        Spec.substr(5), Limits.LoadArenaBytes ? Limits.LoadArenaBytes : 0,
        Err);
    if (!Text) {
      LoadFails.add(1);
      return renderErr(R.Session, ErrorCode::InvalidRequest, Err);
    }
    Source = std::move(*Text);
  } else {
    return renderErr(R.Session, ErrorCode::InvalidRequest,
                     "load spec must be seed:<N> or file:<path>");
  }

  // Compile into a fresh budgeted arena — the batch lifecycle of `sldbc
  // --batch`, one arena per module, kept alive for the module's lifetime.
  auto Mod = std::make_unique<LoadedModule>();
  Mod->Name = Name;
  Mod->Session = R.Session;
  Mod->A = std::make_unique<Arena>(1 << 16);
  Mod->A->setLimit(Limits.LoadArenaBytes);

  Expected<CompiledModule> Build =
      compileModule(Source, Lvl ? Lvl->Opts : OptOptions::all(),
                    {Lvl ? Lvl->Promote : true}, Mod->A.get());
  if (!Build) {
    LoadFails.add(1);
    const Status &S = Build.status();
    if (S.code() == ErrorCode::ResourceExhausted) {
      static StatCounter &Exhausted =
          Stats::counter("service.budget_refusals");
      Exhausted.add(1);
    }
    // A frontend failure carries the whole diagnostics text; the reply
    // is one line.
    std::string Msg = S.message();
    if (S.code() == ErrorCode::InvalidIR)
      Msg = Msg.substr(0, Msg.find('\n'));
    return renderErr(R.Session, S.code(), Msg);
  }
  Mod->Build = std::move(*Build);
  const MachineModule &MM = Mod->Build.MM;

  // Per-session memory budget across loads.
  std::size_t Bytes = Mod->A->bytesAllocated();
  if (Limits.SessionArenaBytes &&
      SessionBytes[R.Session] + Bytes > Limits.SessionArenaBytes) {
    LoadFails.add(1);
    static StatCounter &Exhausted = Stats::counter("service.budget_refusals");
    Exhausted.add(1);
    return renderErr(R.Session, ErrorCode::ResourceExhausted,
                     "session arena budget exceeded (limit " +
                         std::to_string(Limits.SessionArenaBytes) +
                         " bytes)");
  }

  // Eagerly build every function's classifier so quarantine is decided
  // here, once, deterministically — not by whichever query arrives first.
  // The classifier build runs pristine (an armed injected fault belongs
  // to the *compile*, which is over), so the verifier judges exactly the
  // tables the module will serve from.
  FaultInjector::suspend();
  bool Damaged = false;
  std::string FirstFinding;
  for (const MachineFunction &MF : MM.Funcs) {
    auto C = std::make_unique<Classifier>(MF, *MM.Info);
    if (!C->annotationFindings().empty() && !Damaged) {
      Damaged = true;
      FirstFinding = MF.Name + ": " + C->annotationFindings()[0].Message;
    }
    Mod->Classifiers.push_back(std::move(C));
  }
  FaultInjector::resume();

  if (Damaged) {
    // First Status failure of this module: the annotation verifier
    // rejected its debug bookkeeping.  Quarantine — every answer from
    // now on comes from the degraded fail-safe path.
    Mod->Quarantined = true;
    Mod->QuarantineReason = FirstFinding;
    for (auto &C : Mod->Classifiers)
      C->degradeAllVariables();
    static StatCounter &Quar = Stats::counter("service.quarantined_modules");
    Quar.add(1);
  }

  std::size_t Funcs = MM.Funcs.size();
  bool Quarantined = Mod->Quarantined;
  SessionBytes[R.Session] += Bytes;
  Modules[Name] = std::move(Mod);
  Loads.add(1);

  return renderOk(R.Session, "loaded " + Name +
                                 " funcs=" + std::to_string(Funcs) +
                                 " bytes=" + std::to_string(Bytes) +
                                 " quarantined=" +
                                 (Quarantined ? "1" : "0"));
}

//===----------------------------------------------------------------------===//
// Query resolution
//===----------------------------------------------------------------------===//

bool ServiceCore::resolve(const Request &R, ResolvedQuery &Q,
                          std::string &Err, bool NeedStmt) {
  auto It = Modules.find(R.Args[0]);
  if (It == Modules.end()) {
    Err = "unknown module '" + R.Args[0] + "'";
    return false;
  }
  Q.Mod = It->second.get();
  const ProgramInfo &Info = *Q.Mod->Build.MM.Info;
  Q.F = Info.findFunc(R.Args[1]);
  if (Q.F == InvalidFunc || Q.F >= Q.Mod->Build.MM.Funcs.size()) {
    Err = "unknown function '" + R.Args[1] + "'";
    return false;
  }
  Q.MF = &Q.Mod->Build.MM.Funcs[Q.F];
  Q.C = Q.Mod->Classifiers[Q.F].get();
  if (!NeedStmt)
    return true;
  std::uint64_t S = 0;
  if (!parseDecimal(R.Args[2], S) || S >= Info.func(Q.F).Stmts.size()) {
    Err = "function '" + R.Args[1] + "' has no statement " + R.Args[2];
    return false;
  }
  Q.S = static_cast<StmtId>(S);
  std::int32_t Addr = Q.MF->StmtAddr.size() > S ? Q.MF->StmtAddr[S] : -1;
  if (Addr < 0) {
    Err = "statement " + R.Args[2] + " emitted no code (optimized away)";
    return false;
  }
  Q.Addr = static_cast<std::uint32_t>(Addr);
  return true;
}

namespace {

/// Variable lookup at a statement: scope locals shadow globals, the
/// debugger's rule.
VarId findVarAt(const ProgramInfo &Info, FuncId F, StmtId S,
                const std::string &Name) {
  for (VarId V : Info.func(F).Stmts[S].ScopeVars)
    if (Info.var(V).Name == Name)
      return V;
  for (VarId V : Info.Globals)
    if (Info.var(V).Name == Name)
      return V;
  return InvalidVar;
}

} // namespace

//===----------------------------------------------------------------------===//
// classify / classify-all / explain
//===----------------------------------------------------------------------===//

std::string ServiceCore::doClassify(const Request &R, bool All) {
  ResolvedQuery Q;
  std::string Err;
  if (!resolve(R, Q, Err))
    return renderErr(R.Session, ErrorCode::InvalidRequest, Err);
  const ProgramInfo &Info = *Q.Mod->Build.MM.Info;
  if (Q.Mod->Quarantined)
    Counters.QuarantineHits.fetch_add(1, std::memory_order_relaxed);

  if (!All) {
    VarId V = findVarAt(Info, Q.F, Q.S, R.Args[3]);
    if (V == InvalidVar)
      return renderErr(R.Session, ErrorCode::InvalidRequest,
                       "no variable '" + R.Args[3] + "' in scope");
    Classification C = Q.C->classify(Q.Addr, V);
    auditContainment(*Q.Mod, C);
    std::string Payload = renderClass(C);
    if (C.Cause != EndangerCause::None)
      Payload += std::string(" cause=") + endangerCauseName(C.Cause);
    if (Q.Mod->Quarantined)
      Payload += " quarantined=1";
    return renderOk(R.Session, Payload);
  }

  // classify-all: every scope variable plus the globals, scope order.
  std::vector<VarId> Vars = Info.func(Q.F).Stmts[Q.S].ScopeVars;
  for (VarId G : Info.Globals)
    Vars.push_back(G);
  std::vector<Classification> Cs;
  Q.C->classifyAll(Q.Addr, Vars, Cs);
  std::string Payload = "n=" + std::to_string(Vars.size());
  for (std::size_t I = 0; I < Vars.size(); ++I) {
    auditContainment(*Q.Mod, Cs[I]);
    Payload += ' ';
    Payload += Info.var(Vars[I]).Name;
    Payload += '=';
    Payload += renderClass(Cs[I]);
  }
  if (Q.Mod->Quarantined)
    Payload += " quarantined=1";
  return renderOk(R.Session, Payload);
}

std::string ServiceCore::doExplain(const Request &R) {
  ResolvedQuery Q;
  std::string Err;
  if (!resolve(R, Q, Err))
    return renderErr(R.Session, ErrorCode::InvalidRequest, Err);
  const ProgramInfo &Info = *Q.Mod->Build.MM.Info;
  VarId V = findVarAt(Info, Q.F, Q.S, R.Args[3]);
  if (V == InvalidVar)
    return renderErr(R.Session, ErrorCode::InvalidRequest,
                     "no variable '" + R.Args[3] + "' in scope");
  if (Q.Mod->Quarantined)
    Counters.QuarantineHits.fetch_add(1, std::memory_order_relaxed);
  Explanation E = Q.C->explain(Q.Addr, V);
  auditContainment(*Q.Mod, E.Result);
  return renderOk(R.Session, Q.C->renderExplainJson(E));
}

//===----------------------------------------------------------------------===//
// step
//===----------------------------------------------------------------------===//

std::string ServiceCore::doStep(
    const Request &R,
    std::vector<std::pair<std::string, std::string>> &DeferredQuarantine) {
  // step needs only the module, not resolve's function and address.
  auto It = Modules.find(R.Args[0]);
  if (It == Modules.end())
    return renderErr(R.Session, ErrorCode::InvalidRequest,
                     "unknown module '" + R.Args[0] + "'");
  LoadedModule &Mod = *It->second;

  std::uint64_t N = 0;
  if (!parseDecimal(R.Args[1], N) || N == 0)
    return renderErr(R.Session, ErrorCode::InvalidRequest,
                     "bad step count '" + R.Args[1] + "'");
  if (Limits.MaxStepsPerRequest && N > Limits.MaxStepsPerRequest)
    return renderErr(R.Session, ErrorCode::ResourceExhausted,
                     "step count exceeds per-request cap (" +
                         std::to_string(Limits.MaxStepsPerRequest) + ")");

  // A fresh, self-contained session per request: deterministic, nothing
  // shared, fuel-bounded.  The VM only reads the module.
  Debugger D(Mod.Build.MM, Limits.RequestFuel);
  const std::uint64_t StartUs = nowUs();
  const std::uint64_t WallUs =
      static_cast<std::uint64_t>(Limits.RequestWallMs) * 1000;

  auto quarantine = [&](const std::string &Reason) {
    DeferredQuarantine.emplace_back(Mod.Name, Reason);
  };

  StopReason SR = D.startPaused();
  if (SR == StopReason::Trapped) {
    quarantine("vm setup trap: " + D.machine().trapMessage());
    return renderErr(R.Session, ErrorCode::InternalError,
                     "vm setup trap: " + D.machine().trapMessage());
  }

  std::string Trace;
  std::uint64_t Stops = 0;
  static constexpr std::uint64_t MaxTraceStops = 16;
  std::string End = "paused";
  for (std::uint64_t I = 0; I < N; ++I) {
    if (WallUs && nowUs() - StartUs > WallUs) {
      // Cooperative wall backstop.  Deterministic message (no timing
      // data), but reaching it at all is load-dependent — streams under
      // the determinism contract stay far below the wall.
      Counters.Timeouts.fetch_add(1, std::memory_order_relaxed);
      static StatCounter &TO = Stats::counter("service.wall_timeouts");
      TO.add(1);
      return renderErr(R.Session, ErrorCode::ResourceExhausted,
                       "wall deadline exceeded");
    }
    SR = D.stepStmt();
    if (SR == StopReason::Breakpoint) {
      ++Stops;
      if (Stops <= MaxTraceStops) {
        if (!Trace.empty())
          Trace += ',';
        FuncId F = D.currentFunction();
        std::optional<StmtId> St = D.currentStmt();
        Trace += Mod.Build.MM.Info->func(F).Name;
        Trace += ':';
        Trace += St ? std::to_string(*St) : "?";
      }
      continue;
    }
    if (SR == StopReason::Exited) {
      End = "exit:" + std::to_string(D.machine().exitValue());
      break;
    }
    if (SR == StopReason::StepLimit) {
      // The fuel deadline — deterministic by construction.
      Counters.Timeouts.fetch_add(1, std::memory_order_relaxed);
      static StatCounter &Fuel = Stats::counter("service.fuel_timeouts");
      Fuel.add(1);
      return renderErr(R.Session, ErrorCode::ResourceExhausted,
                       "fuel budget exhausted (" +
                           std::to_string(Limits.RequestFuel) +
                           " instructions)");
    }
    // Trapped: a runtime Status failure of this module — contain it.
    quarantine("vm trap: " + D.machine().trapMessage());
    return renderErr(R.Session, ErrorCode::InternalError,
                     "vm trap: " + D.machine().trapMessage());
  }

  std::string Payload = "steps=" + std::to_string(Stops);
  if (Stops > MaxTraceStops)
    Trace += ",+" + std::to_string(Stops - MaxTraceStops) + "more";
  if (!Trace.empty())
    Payload += " stops=" + Trace;
  Payload += " end=" + End;
  return renderOk(R.Session, Payload);
}

//===----------------------------------------------------------------------===//
// health / stats
//===----------------------------------------------------------------------===//

std::string ServiceCore::doHealth(const Request &R) {
  // Deterministic snapshot: registry shape and stream-determined
  // counters only (no wall-clock, no timeout counts).
  std::string P = "modules=" + std::to_string(Modules.size()) +
                  " quarantined=" + std::to_string(numQuarantined()) +
                  " sessions=" + std::to_string(SessionBytes.size()) +
                  " requests=" +
                  std::to_string(
                      Counters.Requests.load(std::memory_order_relaxed)) +
                  " shed=" +
                  std::to_string(Counters.Shed.load(std::memory_order_relaxed));
  return renderOk(R.Session, P);
}

std::string ServiceCore::doStats(const Request &R) {
  // Name-sorted key=value line.  Includes the nondeterministic envelope
  // counters (wall timeouts), so determinism-contract streams use
  // `health` instead.
  std::string P =
      "quarantine-hits=" +
      std::to_string(Counters.QuarantineHits.load(std::memory_order_relaxed)) +
      " quarantined=" + std::to_string(numQuarantined()) +
      " requests=" +
      std::to_string(Counters.Requests.load(std::memory_order_relaxed)) +
      " shed=" + std::to_string(Counters.Shed.load(std::memory_order_relaxed)) +
      " timeouts=" +
      std::to_string(Counters.Timeouts.load(std::memory_order_relaxed)) +
      " unsound=" +
      std::to_string(Counters.Unsound.load(std::memory_order_relaxed));
  return renderOk(R.Session, P);
}

//===----------------------------------------------------------------------===//
// Dispatch + batch engine
//===----------------------------------------------------------------------===//

std::string ServiceCore::execute(
    const Request &R,
    std::vector<std::pair<std::string, std::string>> &DeferredQuarantine) {
  Counters.Requests.fetch_add(1, std::memory_order_relaxed);
  static StatCounter &Reqs = Stats::counter("service.requests");
  Reqs.add(1);
  const std::uint64_t T0 = nowUs();
  std::string Resp;
  switch (R.V) {
  case Verb::Invalid:
    Resp = renderErr(R.Session, ErrorCode::InvalidRequest, R.Error);
    break;
  case Verb::Load:
    Resp = doLoad(R);
    break;
  case Verb::Classify:
    Resp = doClassify(R, /*All=*/false);
    break;
  case Verb::ClassifyAll:
    Resp = doClassify(R, /*All=*/true);
    break;
  case Verb::Explain:
    Resp = doExplain(R);
    break;
  case Verb::Step:
    Resp = doStep(R, DeferredQuarantine);
    break;
  case Verb::Health:
    Resp = doHealth(R);
    break;
  case Verb::StatsVerb:
    Resp = doStats(R);
    break;
  case Verb::Shutdown:
    ShutdownSeen = true;
    Resp = renderOk(R.Session, "bye");
    break;
  }
  // Per-verb latency histogram (diagnostic only; never in a response).
  latencyHistogram(R.V).record(nowUs() - T0);
  return Resp;
}

std::vector<std::string>
ServiceCore::processBatch(const std::vector<std::string> &Lines) {
  const std::size_t N = Lines.size();
  std::vector<std::string> Responses(N);
  std::vector<Request> Reqs(N);
  std::vector<bool> Shedded(N, false);

  // Admission control: the batch is the queue.  The first QueueDepth
  // non-bypass requests are admitted; the rest are shed with the
  // retry-after hint.  Batch composition comes from the stream (blank
  // line delimiters), so shedding is deterministic.
  std::size_t Admitted = 0;
  for (std::size_t I = 0; I < N; ++I) {
    Reqs[I] = parseRequest(Lines[I]);
    if (Reqs[I].bypassesAdmission())
      continue;
    if (Limits.QueueDepth && Admitted >= Limits.QueueDepth) {
      Shedded[I] = true;
      Responses[I] = renderShed(Reqs[I].Session, Limits.RetryAfterMs);
      Counters.Shed.fetch_add(1, std::memory_order_relaxed);
      static StatCounter &Shed = Stats::counter("service.shed");
      Shed.add(1);
    } else {
      ++Admitted;
    }
  }

  // Split into serial barriers and parallel query runs.
  std::size_t I = 0;
  while (I < N) {
    if (Shedded[I]) {
      ++I;
      continue;
    }
    if (Reqs[I].isBarrier()) {
      std::vector<std::pair<std::string, std::string>> DQ;
      Responses[I] = execute(Reqs[I], DQ);
      ++I;
      continue;
    }
    // Collect the run of non-barrier indices.
    std::vector<std::size_t> Run;
    while (I < N && (Shedded[I] || !Reqs[I].isBarrier())) {
      if (!Shedded[I])
        Run.push_back(I);
      ++I;
    }
    if (Run.empty())
      continue;
    // Execute the run on the pool.  Each request writes its own slot;
    // runtime quarantine transitions are deferred into per-slot lists
    // and applied below in request order, so every request in the run
    // sees the same registry snapshot at any Jobs.
    std::vector<std::vector<std::pair<std::string, std::string>>> DQ(
        Run.size());
    Pool.parallelFor(Run.size(), [&](std::size_t K, unsigned) {
      Responses[Run[K]] = execute(Reqs[Run[K]], DQ[K]);
    });
    for (std::size_t K = 0; K < Run.size(); ++K) {
      for (const auto &Q : DQ[K]) {
        auto It = Modules.find(Q.first);
        if (It == Modules.end() || It->second->Quarantined)
          continue;
        It->second->Quarantined = true;
        It->second->QuarantineReason = Q.second;
        for (auto &C : It->second->Classifiers)
          C->degradeAllVariables();
        static StatCounter &Quar =
            Stats::counter("service.quarantined_modules");
        Quar.add(1);
      }
    }
  }
  return Responses;
}
