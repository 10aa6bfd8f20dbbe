//===- examples/endangered_tour.cpp - All five classifications --*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// A guided tour of the paper's Figure 1 classifications at statement
// stops — uninitialized, nonresident, noncurrent (stale), suspect
// (premature and stale), current, and recovery — each with the program
// that triggers it and the debugger's report.  Premature noncurrent is
// not among them: PRE places the hoisted instance at the end of a join's
// predecessor, so no statement starts between it and the original, and
// the verdict appears only at an address past the hoisted instance
// (tests/golden/explain/fig2_noncurrent.txt).
//
// Build & run:  ./build/examples/endangered_tour
//
//===----------------------------------------------------------------------===//

#include "core/Debugger.h"
#include "eval/Compile.h"

#include <cstdio>
#include <cstdlib>

using namespace sldb;

namespace {

/// Compiles one tour stop.  The result owns the optimized IR that the
/// machine code borrows, so it must outlive the debugger.
CompiledModule build(const char *Source, const OptOptions &Opts,
                     bool Promote = true) {
  Expected<CompiledModule> Build = compileModule(Source, Opts, {Promote});
  if (!Build) {
    std::fprintf(stderr, "compile error: %s\n", Build.status().str().c_str());
    std::abort();
  }
  return std::move(*Build);
}

void show(Debugger &Dbg, const char *Var) {
  auto R = Dbg.queryVariable(Var);
  if (!R) {
    std::printf("    %s: <no such variable>\n", Var);
    return;
  }
  std::printf("    %-8s -> %-11s", Var, varClassName(R->Class.Kind));
  if (R->HasValue)
    std::printf(" (value %lld%s)", static_cast<long long>(R->IntValue),
                R->Class.Recoverable ? ", recovered" : "");
  std::printf("\n");
  const std::string Warning = warningText(R->Class, Var);
  if (!Warning.empty())
    std::printf("      %s\n", Warning.c_str());
}

void banner(const char *Title) {
  std::printf("\n=== %s\n", Title);
}

} // namespace

int main() {
  // ------------------------------------------------------------------
  banner("uninitialized: no assignment reaches the breakpoint");
  {
    auto [IR, MM] = build(R"(
      int main() {
        int pending;
        int base = 10;        // s1: break here; pending not yet assigned
        pending = base * 2;
        print(pending);
        return 0;
      }
    )",
                          OptOptions::none());
    Debugger Dbg(MM);
    Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 1);
    Dbg.run();
    show(Dbg, "pending");
  }

  // ------------------------------------------------------------------
  banner("suspect (premature): PRE hoisted the assignment on one path "
         "(Figure 2)");
  {
    OptOptions O = OptOptions::none();
    O.PRE = true;
    auto [IR, MM] = build(R"(
      int main() {
        int u = 7; int v = 3; int y = 2; int z = 4;
        int x = u - v;
        if (u > v) { x = y + z; } else { u = u + 1; }
        x = y + z;            // s8: redundant; breakpoint = marker
        print(x); print(u);
        return 0;
      }
    )",
                          O);
    Debugger Dbg(MM);
    Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 8);
    Dbg.run();
    std::printf("  at the deleted redundant assignment (join point):\n");
    show(Dbg, "x"); // Suspect here (hoisted on one path only).
  }

  // ------------------------------------------------------------------
  banner("noncurrent (stale) and suspect: PDE sank the assignment "
         "(Figure 3)");
  {
    OptOptions O = OptOptions::none();
    O.PDE = true;
    auto [IR, MM] = build(R"(
      int main() {
        int u = 5; int v = 2; int y = 3; int z = 4;
        int x = y + z;        // sunk into the else branch
        if (u > v) {          // s5: x is stale here
          u = u + 9;
        } else {
          print(x);
        }
        print(u);             // s8: join -> suspect
        x = u - v;
        print(x);
        return 0;
      }
    )",
                          O, /*Promote=*/false);
    Debugger Dbg(MM);
    FuncId Main = MM.Info->findFunc("main");
    Dbg.setBreakpointAtStmt(Main, 5);
    Dbg.setBreakpointAtStmt(Main, 8);
    Dbg.run();
    std::printf("  at the if (before the sunk copy executes):\n");
    show(Dbg, "x");
    Dbg.resume();
    std::printf("  at the join (stale on one path, fresh on the other):\n");
    show(Dbg, "x");
  }

  // ------------------------------------------------------------------
  banner("recovery: DCE'd variable reconstructed from an alias "
         "(Figure 4)");
  {
    auto [IR, MM] = build(R"(
      int main() {
        int a = 7;
        int c = a;            // dead; c aliases a
        print(a);             // s2
        return a;
      }
    )",
                          OptOptions::all());
    Debugger Dbg(MM);
    Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 2);
    Dbg.run();
    show(Dbg, "c");
  }

  // ------------------------------------------------------------------
  banner("nonresident: the register allocator reused the register");
  {
    std::string Src = "int main() {\n  int first = 77;\n  int acc = first;\n";
    for (int I = 0; I < 30; ++I)
      Src += "  int t" + std::to_string(I) + " = acc + " +
             std::to_string(I) + "; acc = t" + std::to_string(I) +
             " * 2 - acc;\n";
    Src += "  print(acc);\n  return 0;\n}\n"; // `first` long dead here.
    auto [IR, MM] = build(Src.c_str(), OptOptions::none());
    Debugger Dbg(MM);
    const MachineFunction *Main = MM.findFunc("main");
    StmtId Last = 0;
    for (StmtId S = 0; S < Main->StmtAddr.size(); ++S)
      if (Main->StmtAddr[S] >= 0)
        Last = S;
    Debugger Dbg2(MM);
    Dbg2.setBreakpointAtStmt(MM.Info->findFunc("main"), Last);
    Dbg2.run();
    std::printf("  at the final print (register pressure forced reuse):\n");
    show(Dbg2, "first");
    (void)Dbg;
  }

  // ------------------------------------------------------------------
  banner("current: shown without warnings");
  {
    auto [IR, MM] = build(R"(
      int main() {
        int a = 3;
        int b = a * 7;
        print(b);             // s2
        return 0;
      }
    )",
                          OptOptions::all());
    Debugger Dbg(MM);
    Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 2);
    Dbg.run();
    show(Dbg, "b");
  }

  std::printf("\nEvery endangered value above came with a warning — the "
              "debugger never misleads (paper Figure 1).\n");
  return 0;
}
