//===- tools/sldbc.cpp - Compiler driver + debugger REPL --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// The command-line face of the library: compile MiniC with the cmcc-style
// optimizer, inspect the IR/machine code, run under the R3K simulator, or
// debug interactively with full endangered-variable classification.
//
//   sldbc prog.mc                     compile -O2 and run
//   sldbc --emit=ir prog.mc           dump IR as generated
//   sldbc --emit=ir-opt prog.mc       dump IR after optimization
//   sldbc --emit=asm prog.mc          dump annotated R3K machine code
//   sldbc --emit=stmts prog.mc        dump the statement (breakpoint) map
//   sldbc -O0 prog.mc                 disable the optimizer
//   sldbc --level=pre prog.mc         compile at one named pipeline level
//                                     (eval/Levels.h table: O0, constprop,
//                                     ..., O2nl, O2-frame, O2)
//   sldbc --sweep-levels prog.mc      classify every (breakpoint, var)
//                                     point at every pipeline level and
//                                     print the cross-level quality table
//                                     with availability regressions
//   sldbc --no-promote prog.mc        keep variables in memory (Fig 5a)
//   sldbc --batch DIR                 compile every .mc file under DIR in
//                                     one process, reusing one arena
//                                     (reset per module) across the corpus
//   sldbc --time-passes prog.mc       per-pass wall time report (stderr)
//   sldbc --pass-stats prog.mc        per-pass change counts + analysis
//                                     cache hit/miss report (stderr)
//   sldbc --verify-each prog.mc       run the IR verifier after every pass
//   sldbc --trace-json=FILE prog.mc   write a Chrome-trace-format profile
//                                     of the compile (+ debug session)
//   sldbc --debug-info=FILE prog.mc   write a DWARF-shaped JSON export of
//                                     the debug tables (line table,
//                                     per-var location lists and
//                                     availability ranges); FILE '-' means
//                                     stdout (and, under --emit=run, skip
//                                     execution so the JSON stands alone)
//   sldbc --stats prog.mc             print the Stats registry (stderr)
//   sldbc --debug prog.mc             interactive debugger (REPL)
//   sldbc --debug --degrade-all ...   force the fail-safe degraded path
//   sldbc --debug --cmd "b main 3" --cmd run --cmd scope prog.mc
//
// REPL commands:
//   b|break <func> <stmt>     set a breakpoint at a statement
//   run                       start the program
//   c|continue                resume after a breakpoint
//   s|step                    source-level step to the next statement
//                             boundary (starts paused if not running)
//   p|print <var>             classify + display one variable
//   explain <var>             provenance chain behind the classification
//   explainj <var>            the same, as one-line machine-readable JSON
//   scope                     classify + display all locals in scope
//   where                     current function / statement / address
//   stmts                     statement map of the current function
//   storage                   variable storage of the current function
//   out                       program output so far
//   q|quit                    exit
//
// The inspection commands (p, explain, explainj, scope, where, stmts,
// storage) need a stop: before the program starts and after it exits
// they print a message instead.
//
//===----------------------------------------------------------------------===//

#include "codegen/MachineIR.h"
#include "core/DebugInfo.h"
#include "core/Debugger.h"
#include "eval/Compile.h"
#include "eval/CrossLevel.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace sldb;

namespace {

struct Options {
  std::string InputFile;
  std::string BatchDir; ///< --batch: compile a whole corpus directory.
  std::string Emit = "run"; // run | ir | ir-opt | asm | stmts | debug.
  bool Optimize = true;
  bool Promote = true;
  bool Schedule = true;
  const LevelSpec *Level = nullptr; ///< --level=NAME overrides the above.
  bool SweepLevels = false;
  bool TimePasses = false;
  bool PassStats = false;
  bool VerifyEach = false;
  bool PrintStats = false;
  bool DegradeAll = false;
  std::string TraceJson;
  std::string DebugInfoFile; ///< --debug-info=FILE: DWARF-shaped export.
  std::uint64_t Fuel = 50'000'000;
  /// --batch input hardening: files larger than this are skipped, not
  /// compiled (a corpus directory is untrusted input).
  std::uint64_t MaxFileBytes = 1u << 20;
  /// --batch arena budget per module; 0 = unlimited.
  std::uint64_t ArenaLimit = 0;
  std::vector<std::string> ScriptedCommands;
};

void usage() {
  std::fprintf(stderr,
               "usage: sldbc [--emit=ir|ir-opt|asm|stmts|run] [-O0|-O2]\n"
               "             [--level=NAME] [--sweep-levels] [--batch DIR]\n"
               "             [--no-promote] [--no-schedule] [--debug]\n"
               "             [--time-passes] [--pass-stats] [--verify-each]\n"
               "             [--trace-json=FILE] [--debug-info=FILE|-]\n"
               "             [--stats] [--degrade-all]\n"
               "             [--fuel N] [--max-file-bytes N] [--arena-limit N]\n"
               "             [--cmd <repl-command>]... <file.mc>\n");
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--emit=", 0) == 0) {
      Opts.Emit = A.substr(7);
    } else if (A == "-O0") {
      Opts.Optimize = false;
    } else if (A == "-O2") {
      Opts.Optimize = true;
    } else if (A.rfind("--level=", 0) == 0) {
      Opts.Level = findLevel(A.substr(8));
      if (!Opts.Level) {
        std::fprintf(stderr, "unknown level '%s'; known levels:",
                     A.substr(8).c_str());
        for (const LevelSpec &S : pipelineLevels())
          std::fprintf(stderr, " %s", S.Name);
        std::fprintf(stderr, "\n");
        return false;
      }
    } else if (A == "--sweep-levels") {
      Opts.SweepLevels = true;
    } else if (A == "--batch") {
      if (++I >= Argc) {
        usage();
        return false;
      }
      Opts.BatchDir = Argv[I];
    } else if (A == "--no-promote") {
      Opts.Promote = false;
    } else if (A == "--no-schedule") {
      Opts.Schedule = false;
    } else if (A == "--time-passes") {
      Opts.TimePasses = true;
    } else if (A == "--pass-stats") {
      Opts.PassStats = true;
    } else if (A == "--verify-each") {
      Opts.VerifyEach = true;
    } else if (A.rfind("--trace-json=", 0) == 0) {
      Opts.TraceJson = A.substr(13);
      if (Opts.TraceJson.empty()) {
        std::fprintf(stderr, "--trace-json needs a file name\n");
        return false;
      }
    } else if (A.rfind("--debug-info=", 0) == 0) {
      Opts.DebugInfoFile = A.substr(13);
      if (Opts.DebugInfoFile.empty()) {
        std::fprintf(stderr, "--debug-info needs a file name\n");
        return false;
      }
    } else if (A == "--stats") {
      Opts.PrintStats = true;
    } else if (A == "--degrade-all") {
      Opts.DegradeAll = true;
    } else if (A == "--debug") {
      Opts.Emit = "debug";
    } else if (A == "--fuel") {
      if (++I >= Argc) {
        usage();
        return false;
      }
      char *End = nullptr;
      unsigned long long N = std::strtoull(Argv[I], &End, 10);
      if (!End || *End != '\0' || End == Argv[I] || N == 0) {
        std::fprintf(stderr, "--fuel needs a positive integer\n");
        return false;
      }
      Opts.Fuel = N;
    } else if (A == "--max-file-bytes" || A == "--arena-limit") {
      if (++I >= Argc) {
        usage();
        return false;
      }
      char *End = nullptr;
      unsigned long long N = std::strtoull(Argv[I], &End, 10);
      if (!End || *End != '\0' || End == Argv[I]) {
        std::fprintf(stderr, "%s needs an integer\n", A.c_str());
        return false;
      }
      (A == "--max-file-bytes" ? Opts.MaxFileBytes : Opts.ArenaLimit) = N;
    } else if (A == "--cmd") {
      if (++I >= Argc) {
        usage();
        return false;
      }
      Opts.ScriptedCommands.push_back(Argv[I]);
    } else if (A == "--help" || A == "-h") {
      usage();
      return false;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      usage();
      return false;
    } else {
      Opts.InputFile = A;
    }
  }
  if (Opts.InputFile.empty() && Opts.BatchDir.empty()) {
    usage();
    return false;
  }
  return true;
}

void printVarReport(const ProgramInfo &Info, const VarReport &R) {
  const std::string &Name = Info.var(R.Var).Name;
  std::printf("  %-10s %-11s", Name.c_str(), varClassName(R.Class.Kind));
  if (R.HasValue) {
    if (R.IsDouble)
      std::printf(" = %g", R.DoubleValue);
    else
      std::printf(" = %lld", static_cast<long long>(R.IntValue));
    if (R.Class.Recoverable)
      std::printf("  [recovered]");
  }
  std::printf("\n");
  const std::string Warning = warningText(R.Class, Name);
  if (!Warning.empty())
    std::printf("             %s\n", Warning.c_str());
}

void printStmtMap(const MachineModule &MM, const MachineFunction &MF) {
  std::printf("statements of %s():\n", MF.Name.c_str());
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
    const StmtInfo &SI = MM.Info->func(MF.Id).Stmts[S];
    if (MF.StmtAddr[S] >= 0)
      std::printf("  s%-3u line %-4u -> address %d\n", S, SI.Loc.Line,
                  MF.StmtAddr[S]);
    else
      std::printf("  s%-3u line %-4u -> (optimized away)\n", S,
                  SI.Loc.Line);
  }
}

void printStorage(const MachineModule &MM, const MachineFunction &MF) {
  std::printf("storage of %s():\n", MF.Name.c_str());
  for (VarId V : MM.Info->func(MF.Id).Locals) {
    auto It = MF.Storage.find(V);
    std::printf("  %-10s ", MM.Info->var(V).Name.c_str());
    if (It == MF.Storage.end() || It->second.K == VarStorage::Kind::None) {
      std::printf("no runtime storage\n");
      continue;
    }
    switch (It->second.K) {
    case VarStorage::Kind::InReg:
      std::printf("register %s\n", It->second.R.str().c_str());
      break;
    case VarStorage::Kind::Frame:
      std::printf("frame slot %d\n", It->second.Frame);
      break;
    default:
      std::printf("global memory\n");
    }
  }
}

int replLoop(Debugger &Dbg, const Options &Opts) {
  const MachineModule &MM = Dbg.module();
  std::printf("sldbc debugger — 'help' is the comment block at the top of "
              "tools/sldbc.cpp; 'q' quits\n");
  std::size_t ScriptPos = 0;
  bool Running = false;
  char Line[512];
  for (;;) {
    std::string Cmd;
    if (ScriptPos < Opts.ScriptedCommands.size()) {
      Cmd = Opts.ScriptedCommands[ScriptPos++];
      std::printf("(sldbc) %s\n", Cmd.c_str());
    } else {
      std::printf("(sldbc) ");
      std::fflush(stdout);
      if (!std::fgets(Line, sizeof(Line), stdin))
        return 0;
      Cmd = Line;
      while (!Cmd.empty() && (Cmd.back() == '\n' || Cmd.back() == '\r'))
        Cmd.pop_back();
    }
    std::istringstream In(Cmd);
    std::string Verb;
    In >> Verb;
    if (Verb.empty())
      continue;

    auto ReportStop = [&](StopReason R) {
      switch (R) {
      case StopReason::Breakpoint: {
        auto S = Dbg.currentStmt();
        std::printf("stopped in %s() at statement %d (address %u)\n",
                    MM.Funcs[Dbg.currentFunction()].Name.c_str(),
                    S ? static_cast<int>(*S) : -1,
                    Dbg.machine().pc().Local);
        break;
      }
      case StopReason::Exited:
        std::printf("program exited with value %lld\n",
                    static_cast<long long>(Dbg.machine().exitValue()));
        Running = false;
        break;
      case StopReason::Trapped:
        std::printf("program trapped: %s\n",
                    Dbg.machine().trapMessage().c_str());
        Running = false;
        break;
      case StopReason::StepLimit:
        std::printf("program stopped: %s\n",
                    Dbg.machine().trapMessage().c_str());
        Running = false;
        break;
      default:
        std::printf("stopped (%d)\n", static_cast<int>(R));
      }
    };

    // Inspection needs a stop: a current function, which exists only
    // once the program has started, and a program that has not exited.
    if (Verb == "p" || Verb == "print" || Verb == "explain" ||
        Verb == "explainj" || Verb == "scope" || Verb == "where" ||
        Verb == "stmts" || Verb == "storage") {
      if (!Dbg.started()) {
        std::printf("no program is running; use 'run' or 's'\n");
        continue;
      }
      if (Dbg.exited()) {
        std::printf("the program has exited; use 'run' or 's' to "
                    "start it again\n");
        continue;
      }
    }

    if (Verb == "q" || Verb == "quit")
      return 0;
    if (Verb == "b" || Verb == "break") {
      std::string Func;
      unsigned Stmt = 0;
      In >> Func >> Stmt;
      FuncId F = MM.Info->findFunc(Func);
      if (F == InvalidFunc) {
        std::printf("no function '%s'\n", Func.c_str());
        continue;
      }
      if (Dbg.setBreakpointAtStmt(F, Stmt))
        std::printf("breakpoint at %s() statement %u\n", Func.c_str(),
                    Stmt);
      else
        std::printf("statement %u of %s() emitted no code\n", Stmt,
                    Func.c_str());
      continue;
    }
    if (Verb == "run") {
      Running = true;
      ReportStop(Dbg.run());
      continue;
    }
    if (Verb == "c" || Verb == "continue") {
      if (!Running) {
        std::printf("not running; use 'run'\n");
        continue;
      }
      ReportStop(Dbg.resume());
      continue;
    }
    if (Verb == "s" || Verb == "step") {
      if (!Running) {
        Running = true;
        ReportStop(Dbg.startPaused());
        continue;
      }
      ReportStop(Dbg.stepStmt());
      continue;
    }
    if (Verb == "p" || Verb == "print") {
      std::string Var;
      In >> Var;
      auto R = Dbg.queryVariable(Var);
      if (!R)
        std::printf("no variable '%s' in scope\n", Var.c_str());
      else
        printVarReport(*MM.Info, *R);
      continue;
    }
    if (Verb == "explain" || Verb == "explainj") {
      std::string Var;
      In >> Var;
      auto E = Dbg.explainVariable(Var);
      if (!E)
        std::printf("no variable '%s' in scope\n", Var.c_str());
      else if (Verb == "explainj")
        std::printf("%s\n", Dbg.explainJson(*E).c_str());
      else
        std::printf("%s", Dbg.explainText(*E).c_str());
      continue;
    }
    if (Verb == "scope") {
      for (const VarReport &R : Dbg.reportScope())
        printVarReport(*MM.Info, R);
      continue;
    }
    if (Verb == "where") {
      auto S = Dbg.currentStmt();
      std::printf("%s() statement %d, address %u, frame depth %zu\n",
                  MM.Funcs[Dbg.currentFunction()].Name.c_str(),
                  S ? static_cast<int>(*S) : -1,
                  Dbg.machine().pc().Local,
                  Dbg.machine().frameDepth() + 1);
      continue;
    }
    if (Verb == "stmts") {
      printStmtMap(MM, MM.Funcs[Dbg.currentFunction()]);
      continue;
    }
    if (Verb == "storage") {
      printStorage(MM, MM.Funcs[Dbg.currentFunction()]);
      continue;
    }
    if (Verb == "out") {
      std::printf("%s", Dbg.machine().outputText().c_str());
      continue;
    }
    std::printf("unknown command '%s'\n", Verb.c_str());
  }
}

/// Flushes the observability outputs on every exit path past argument
/// parsing: the Stats report to stderr, the collected trace to
/// --trace-json.  Returns the final exit status.
int finish(int RC, const Options &Opts) {
  if (Opts.PrintStats)
    std::fprintf(stderr, "%s", Stats::report().c_str());
  if (!Opts.TraceJson.empty() && !Trace::writeJsonFile(Opts.TraceJson)) {
    std::fprintf(stderr, "cannot write trace file '%s'\n",
                 Opts.TraceJson.c_str());
    if (RC == 0)
      RC = 1;
  }
  return RC;
}

/// The optimizer's pass set: a named level's, else O2 or (-O0) none.
OptOptions passSet(const Options &Opts) {
  if (Opts.Level)
    return Opts.Level->Opts;
  return Opts.Optimize ? OptOptions::all() : OptOptions::none();
}

/// --time-passes / --pass-stats: the per-slot table and the analysis
/// cache summary (stderr).  -O0 runs no pass, so it prints nothing.
void printPassStats(const PipelineStats &Stats, const Options &Opts) {
  if (!Opts.Optimize && !Opts.Level)
    return;
  if (Opts.TimePasses || Opts.PassStats) {
    std::fprintf(stderr, "%-45s %6s %8s", "pass", "runs", "changed");
    if (Opts.TimePasses)
      std::fprintf(stderr, " %9s", "wall-ms");
    std::fprintf(stderr, "\n");
    for (const PassSlotStats &S : Stats.Slots) {
      std::fprintf(stderr, "%-45s %6u %8u", S.Name.c_str(), S.Runs,
                   S.Changed);
      if (Opts.TimePasses)
        std::fprintf(stderr, " %9.3f", S.WallMs);
      std::fprintf(stderr, "\n");
    }
    if (Opts.TimePasses)
      std::fprintf(stderr, "%-45s %6s %8s %9.3f\n", "total", "", "",
                   Stats.TotalMs);
  }
  if (Opts.PassStats) {
    std::fprintf(stderr, "analysis cache:\n");
    for (unsigned ID = 0; ID < NumAnalysisIDs; ++ID) {
      std::uint64_t H = Stats.Analyses.Hits[ID];
      std::uint64_t M = Stats.Analyses.Misses[ID];
      if (H + M == 0)
        continue;
      std::fprintf(stderr, "  %-14s %8llu hits %8llu misses (%.1f%%)\n",
                   analysisName(static_cast<AnalysisID>(ID)),
                   static_cast<unsigned long long>(H),
                   static_cast<unsigned long long>(M),
                   100.0 * static_cast<double>(H) /
                       static_cast<double>(H + M));
    }
  }
}

/// --batch DIR: compiles every .mc file under DIR in one process.  One
/// arena backs each module's IR *and* machine code; it is reset after the
/// module is destroyed, so a corpus compile reuses the same few slabs
/// instead of re-growing the heap per program (DESIGN.md "IR memory model
/// & batch compilation").
int runBatch(const Options &Opts) {
  namespace fs = std::filesystem;
  // A corpus directory is untrusted input: walk *everything* in it and
  // decide per file, so junk (editor backups, oversized blobs, files we
  // cannot read) is diagnosed and skipped instead of silently ignored
  // or aborting the whole batch.
  std::vector<std::string> Files;
  std::error_code EC;
  for (fs::directory_iterator It(Opts.BatchDir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_regular_file())
      Files.push_back(It->path().string());
  if (EC) {
    std::fprintf(stderr, "cannot read directory '%s': %s\n",
                 Opts.BatchDir.c_str(), EC.message().c_str());
    return 2;
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "no files under '%s'\n", Opts.BatchDir.c_str());
    return 2;
  }

  const OptOptions PassSet = passSet(Opts);
  const bool Promote = Opts.Level ? Opts.Level->Promote : Opts.Promote;

  Arena BatchArena(1 << 20);
  BatchArena.setLimit(Opts.ArenaLimit);
  unsigned Ok = 0, Failed = 0, Skipped = 0;
  for (const std::string &Path : Files) {
    if (fs::path(Path).extension() != ".mc") {
      std::printf("%s: skipped: not a .mc file\n", Path.c_str());
      ++Skipped;
      continue;
    }
    std::error_code SizeEC;
    std::uintmax_t Size = fs::file_size(Path, SizeEC);
    if (!SizeEC && Opts.MaxFileBytes && Size > Opts.MaxFileBytes) {
      std::printf("%s: skipped: %llu bytes exceeds --max-file-bytes %llu\n",
                  Path.c_str(), static_cast<unsigned long long>(Size),
                  static_cast<unsigned long long>(Opts.MaxFileBytes));
      ++Skipped;
      continue;
    }
    std::ifstream File(Path);
    std::stringstream Buf;
    Buf << File.rdbuf();
    if (!File) {
      std::printf("%s: skipped: cannot read\n", Path.c_str());
      ++Skipped;
      continue;
    }
    {
      DiagnosticEngine Diags;
      Expected<CompiledModule> Build =
          compileModule(Buf.str(), PassSet, {Promote, Opts.Schedule},
                        &BatchArena, {}, nullptr, &Diags);
      if (Build) {
        std::uint32_t Instrs = 0;
        for (const MachineFunction &F : Build->MM.Funcs)
          Instrs += F.numInstrs();
        std::printf("%s: ok (%u machine instrs)\n", Path.c_str(), Instrs);
        ++Ok;
      } else {
        // A rejected source prints its diagnostics; any later failure
        // (including a phase over --arena-limit) its Status.
        std::string Err = Diags.hasErrors() ? Build.status().message()
                                            : Build.status().str();
        std::printf("%s: error: %s\n", Path.c_str(), Err.c_str());
        ++Failed;
      }
      // The module dies here; the arena memory survives...
    }
    BatchArena.reset(); // ...and is recycled for the next program.
  }
  std::printf("batch: %u ok, %u failed, %u skipped, %zu KB arena reserved "
              "across %zu slabs\n",
              Ok, Failed, Skipped, BatchArena.bytesReserved() / 1024,
              BatchArena.numSlabs());
  // Skips are survivable but not silent: the exit code says "look at
  // the summary", while every file that could compile still did.
  return (Failed || Skipped) ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (!Opts.TraceJson.empty()) {
    if (!Trace::compiledIn())
      std::fprintf(stderr,
                   "note: tracing compiled out (SLDB_TRACE=OFF); '%s' will "
                   "hold an empty trace\n",
                   Opts.TraceJson.c_str());
    Trace::enable();
  }

  if (!Opts.BatchDir.empty())
    return finish(runBatch(Opts), Opts);

  std::ifstream File(Opts.InputFile);
  if (!File) {
    std::fprintf(stderr, "cannot open '%s'\n", Opts.InputFile.c_str());
    return finish(2, Opts);
  }
  std::stringstream Buf;
  Buf << File.rdbuf();
  std::string Source = Buf.str();

  if (Opts.SweepLevels) {
    ProgramSweep PS = sweepProgram(Opts.InputFile, Source);
    if (!PS.Compiled) {
      std::fprintf(stderr, "%s\n", PS.CompileError.c_str());
      return finish(1, Opts);
    }
    CrossLevelReport R;
    R.Levels = std::move(PS.Levels);
    R.Regressions = std::move(PS.Regressions);
    R.Programs = 1;
    std::printf("%s", renderSweepReport(R).c_str());
    return finish(0, Opts);
  }

  // A named level pins both the pass set and the promotion mode.
  const OptOptions PassSet = passSet(Opts);
  if (Opts.Level)
    Opts.Promote = Opts.Level->Promote;
  PipelineConfig Config;
  Config.TimePasses = Opts.TimePasses;
  Config.VerifyEach = Opts.VerifyEach;
  PipelineStats Stats;

  if (Opts.Emit == "ir" || Opts.Emit == "ir-opt") {
    DiagnosticEngine Diags;
    auto Module = compileToIR(Source, Diags);
    if (!Module) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return finish(1, Opts);
    }
    if (Opts.Emit == "ir-opt") {
      Status PS = runPipelineEx(*Module, PassSet, Config, &Stats);
      printPassStats(Stats, Opts);
      if (!PS.ok()) {
        std::fprintf(stderr, "error: %s\n", PS.str().c_str());
        return finish(1, Opts);
      }
    }
    std::printf("%s", printModule(*Module).c_str());
    return finish(0, Opts);
  }

  DiagnosticEngine Diags;
  Expected<CompiledModule> Build =
      compileModule(Source, PassSet, {Opts.Promote, Opts.Schedule}, nullptr,
                    Config, &Stats, &Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return finish(1, Opts);
  }
  // The pipeline ran; its stats print even when a later phase failed.
  printPassStats(Stats, Opts);
  if (!Build) {
    std::fprintf(stderr, "error: %s\n", Build.status().str().c_str());
    return finish(1, Opts);
  }
  MachineModule &MM = Build->MM;

  if (!Opts.DebugInfoFile.empty()) {
    if (Opts.DebugInfoFile == "-") {
      std::printf("%s", renderDebugInfo(MM).c_str());
      if (Opts.Emit == "run")
        return finish(0, Opts);
    } else if (!writeDebugInfoFile(MM, Opts.DebugInfoFile)) {
      std::fprintf(stderr, "cannot write debug info file '%s'\n",
                   Opts.DebugInfoFile.c_str());
      return finish(1, Opts);
    }
  }

  if (Opts.Emit == "asm") {
    for (const MachineFunction &F : MM.Funcs)
      std::printf("%s\n", printMachineFunction(F, MM.Info).c_str());
    return finish(0, Opts);
  }
  if (Opts.Emit == "stmts") {
    for (const MachineFunction &F : MM.Funcs)
      printStmtMap(MM, F);
    return finish(0, Opts);
  }

  if (Opts.Emit == "debug") {
    int RC;
    {
      // The session adds its counts to Stats when it ends, before --stats
      // prints them.
      Debugger Dbg(MM, Opts.Fuel);
      if (Opts.DegradeAll)
        Dbg.degradeAllVariables();
      RC = replLoop(Dbg, Opts);
    }
    return finish(RC, Opts);
  }

  // Default: run to completion.
  Machine VM(MM, Opts.Fuel);
  StopReason R = VM.run();
  std::printf("%s", VM.outputText().c_str());
  if (R == StopReason::Trapped || R == StopReason::StepLimit) {
    std::fprintf(stderr, "trap: %s\n", VM.trapMessage().c_str());
    return finish(1, Opts);
  }
  std::fprintf(stderr, "[%llu instructions, exit %lld]\n",
               static_cast<unsigned long long>(VM.instrCount()),
               static_cast<long long>(VM.exitValue()));
  return finish(static_cast<int>(VM.exitValue() & 0xff), Opts);
}
