//===- tests/codegen_test.cpp - Back end + VM tests ------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "BackendDigest.h"
#include "TestCompile.h"
#include "codegen/MachineFlow.h"
#include "codegen/MachineVerifier.h"
#include "codegen/RegAlloc.h"
#include "codegen/Scheduler.h"
#include "eval/Levels.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "support/Stats.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>

using namespace sldb;

namespace {

CompiledModule compile(std::string_view Src, bool Optimize,
                       const CodegenOptions &CG = {}) {
  return compileOrAbort(Src, Optimize ? OptOptions::all() : OptOptions::none(),
                        CG);
}

/// Runs the source through the IR interpreter (oracle) and through the
/// full back end + VM in the given configuration; compares behavior.
void endToEnd(std::string_view Src, bool Optimize, CodegenOptions CG) {
  auto [M, MM] = compile(Src, Optimize, CG);
  ExecResult Oracle = interpretIR(*M);
  ASSERT_FALSE(Oracle.Trapped) << Oracle.TrapMsg;

  {
    std::vector<std::string> Errors;
    bool OK = verifyMachineModule(MM, Errors);
    std::string Joined;
    for (auto &E : Errors)
      Joined += E + "\n";
    ASSERT_TRUE(OK) << Joined;
  }
  Machine VM(MM);
  StopReason Stop = VM.run();
  std::string Code;
  for (const MachineFunction &F : MM.Funcs)
    Code += printMachineFunction(F, MM.Info);
  EXPECT_EQ(Stop, StopReason::Exited) << VM.trapMessage() << "\n" << Code;
  EXPECT_EQ(VM.outputText(), Oracle.outputText()) << Code;
  EXPECT_EQ(VM.exitValue(), Oracle.ExitValue) << Code;
}

void allConfigs(std::string_view Src) {
  for (bool Optimize : {false, true})
    for (bool Promote : {false, true})
      for (bool Sched : {false, true}) {
        SCOPED_TRACE(std::string("optimize=") + (Optimize ? "1" : "0") +
                     " promote=" + (Promote ? "1" : "0") +
                     " sched=" + (Sched ? "1" : "0"));
        CodegenOptions CG;
        CG.PromoteVars = Promote;
        CG.Schedule = Sched;
        endToEnd(Src, Optimize, CG);
      }
}

/// Reads a checked-in program from tests/inputs.
std::string readInput(const char *Name) {
  std::ifstream In(std::string(SLDB_INPUT_DIR) + "/" + Name);
  EXPECT_TRUE(In) << "missing input " << Name;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(VM, MinimalReturn) {
  allConfigs("int main() { return 42; }");
}

TEST(VM, ArithmeticAndPrint) {
  allConfigs(R"(
    int main() {
      int a = 6; int b = 7;
      print(a * b);
      print(a - b);
      print(a % 4);
      return a + b;
    }
  )");
}

TEST(VM, ControlFlow) {
  allConfigs(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 20; i = i + 1) {
        if (i % 3 == 0) continue;
        if (i > 15) break;
        s = s + i;
      }
      print(s);
      return s;
    }
  )");
}

TEST(VM, CallsAndRecursion) {
  allConfigs(R"(
    int ack(int m, int n) {
      if (m == 0) return n + 1;
      if (n == 0) return ack(m - 1, 1);
      return ack(m - 1, ack(m, n - 1));
    }
    int main() {
      print(ack(2, 3));
      return 0;
    }
  )");
}

TEST(VM, ArraysAndPointers) {
  allConfigs(R"(
    int sum(int* p, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) s = s + p[i];
      return s;
    }
    int main() {
      int a[12];
      for (int i = 0; i < 12; i = i + 1) a[i] = i * i;
      print(sum(a, 12));
      int* mid = &a[6];
      print(*mid);
      return 0;
    }
  )");
}

TEST(VM, GlobalsPersistAcrossCalls) {
  allConfigs(R"(
    int hits = 0;
    int tally[4];
    void record(int k) { hits = hits + 1; tally[k % 4] = tally[k % 4] + 1; }
    int main() {
      for (int i = 0; i < 10; i = i + 1) record(i);
      print(hits);
      print(tally[0]); print(tally[1]); print(tally[2]); print(tally[3]);
      return 0;
    }
  )");
}

TEST(VM, Doubles) {
  allConfigs(R"(
    double scale = 0.5;
    double mix(double a, double b) { return a * scale + b * (1.0 - scale); }
    int main() {
      double acc = 0.0;
      for (int i = 1; i <= 6; i = i + 1) {
        acc = mix(acc, i * 2.0);
        printd(acc);
      }
      print(acc > 5.0);
      return 0;
    }
  )");
}

TEST(VM, ManyLiveValuesForcesSpills) {
  // 30+ simultaneously live values exceed the 26 allocatable integer
  // registers and force spilling.
  std::string Src = "int main() {\n";
  for (int I = 0; I < 32; ++I)
    Src += "  int x" + std::to_string(I) + " = " + std::to_string(I * 3 + 1) +
           ";\n";
  Src += "  int s = 0;\n";
  for (int I = 0; I < 32; ++I)
    Src += "  s = s + x" + std::to_string(I) + ";\n";
  // Use everything again so all 32 are live across the first sum.
  for (int I = 0; I < 32; ++I)
    Src += "  s = s + x" + std::to_string(I) + " * 2;\n";
  Src += "  print(s);\n  return 0;\n}\n";
  allConfigs(Src);
}

TEST(VM, SpillRoundsKeepTempsDistinct) {
  // 36 locals spill over several allocation rounds.  Temps minted by a
  // later round once reused the numbers of an earlier round's temps still
  // in the code, merging two live values: seed 2 miscompiled with
  // scheduling off, seed 14 with it on.
  for (const char *Name : {"spill_rounds_2.mc", "spill_rounds_14.mc"}) {
    SCOPED_TRACE(Name);
    allConfigs(readInput(Name));
  }
}

TEST(RegAlloc, CountsRoundsInStats) {
  // The spill digest's first input spills at O2.  The counters are
  // bumped once per function; a spill path that stopped running would
  // show here before the digest silently pinned unspilled code.
  StatCounter &Functions = Stats::counter("regalloc.functions");
  StatCounter &Rounds = Stats::counter("regalloc.rounds");
  StatCounter &Coalesce = Stats::counter("regalloc.coalesce_rounds");
  StatCounter &Spills = Stats::counter("regalloc.spill_rounds");
  const std::uint64_t F0 = Functions.value(), R0 = Rounds.value(),
                      C0 = Coalesce.value(), S0 = Spills.value();
  const LevelSpec &O2 = *findLevel("O2");
  CodegenOptions CG;
  CG.PromoteVars = O2.Promote;
  CompiledModule C =
      compileOrAbort(readInput("spill_rounds_2.mc"), O2.Opts, CG);
  EXPECT_EQ(Functions.value() - F0, C.MM.Funcs.size());
  EXPECT_GE(Spills.value() - S0, 1u);
  // Every round ends in a coalescing restart, in spill code or in the
  // final coloring, and a function with spill code colored at the end.
  EXPECT_GT(Rounds.value() - R0,
            (Coalesce.value() - C0) + (Spills.value() - S0));
}

TEST(VM, DivisionByZeroTraps) {
  auto [IR, MM] = compile("int main() { int z = 0; return 7 / z; }", false);
  Machine VM(MM);
  EXPECT_EQ(VM.run(), StopReason::Trapped);
  EXPECT_NE(VM.trapMessage().find("division"), std::string::npos);
}

TEST(VM, BreakpointStopsAndResumes) {
  auto [IR, MM] = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 5; i = i + 1) s = s + i;
      print(s);
      return s;
    }
  )",
                          false);
  const MachineFunction *Main = MM.findFunc("main");
  ASSERT_NE(Main, nullptr);
  // Break at the `s = s + i` statement (id 2: s=0 is 0, i=0 is 1, for is
  // 2... statement ids: s=0 ->0, i=0 ->1, for ->2, s=s+i ->3, inc ->4,
  // print ->5, return ->6).
  ASSERT_GT(Main->StmtAddr.size(), 3u);
  std::int32_t Addr = Main->StmtAddr[3];
  ASSERT_GE(Addr, 0);
  Machine VM(MM);
  CodeAddr BP{static_cast<std::uint32_t>(Main - &MM.Funcs[0]),
              static_cast<std::uint32_t>(Addr)};
  VM.setBreakpoint(BP);
  unsigned Stops = 0;
  StopReason SR = VM.run();
  while (SR == StopReason::Breakpoint) {
    ++Stops;
    SR = VM.resume();
  }
  EXPECT_EQ(SR, StopReason::Exited);
  EXPECT_EQ(Stops, 5u); // Loop body executes 5 times.
  EXPECT_EQ(VM.exitValue(), 10);
}

TEST(VM, InstrCountLowerWithOptimization) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 50; i = i + 1) {
        int a = 3 + 4;
        int b = a * 2;
        s = s + b + i * 8;
      }
      return s;
    }
  )";
  auto [IR0, MM0] = compile(Src, false);
  auto [IR2, MM2] = compile(Src, true);
  Machine V0(MM0), V2(MM2);
  ASSERT_EQ(V0.run(), StopReason::Exited);
  ASSERT_EQ(V2.run(), StopReason::Exited);
  EXPECT_EQ(V0.exitValue(), V2.exitValue());
  EXPECT_LT(V2.instrCount(), V0.instrCount());
}

TEST(VM, NoPromotionMeansFrameStorage) {
  auto [IR, MM] =
      compile("int main() { int x = 3; int y = x + 1; return y; }", false,
              {.PromoteVars = false});
  const MachineFunction *Main = MM.findFunc("main");
  unsigned FrameVars = 0;
  for (const auto &[V, S] : Main->Storage)
    if (S.K == VarStorage::Kind::Frame)
      ++FrameVars;
  EXPECT_EQ(FrameVars, 2u);
}

TEST(VM, PromotionKeepsScalarsInRegisters) {
  auto [IR, MM] =
      compile("int main() { int x = 3; int y = x + 1; return y; }", false);
  const MachineFunction *Main = MM.findFunc("main");
  unsigned RegVars = 0;
  for (const auto &[V, S] : Main->Storage)
    if (S.K == VarStorage::Kind::InReg) {
      ++RegVars;
      EXPECT_FALSE(S.R.isVirtual());
    }
  EXPECT_EQ(RegVars, 2u);
}

TEST(VM, ResidenceBitsCoverLiveRange) {
  auto [IR, MM] = compile(R"(
    int main() {
      int x = 3;
      int y = x + 1;
      int z = y * 2;
      return z;
    }
  )",
                          false);
  const MachineFunction *Main = MM.findFunc("main");
  // x must be resident somewhere (between def and last use) and
  // nonresident at the final return.
  VarId X = InvalidVar;
  for (VarId V = 0; V < MM.Info->Vars.size(); ++V)
    if (MM.Info->var(V).Name == "x")
      X = V;
  ASSERT_NE(X, InvalidVar);
  auto It = Main->ResidentAt.find(X);
  ASSERT_NE(It, Main->ResidentAt.end());
  EXPECT_TRUE(It->second.any());
  // The last instruction (ret) is past x's live range.
  EXPECT_FALSE(It->second.test(It->second.size() - 1));
}

namespace {

/// The back-end digest of a whole build.
std::uint64_t digestOf(const MachineModule &MM) {
  Fnv1a H;
  for (const MachineFunction &MF : MM.Funcs)
    hashFunction(H, MF, MM.Info);
  return H.H;
}

} // namespace

// The lockstep oracles compile each program's optimized IR once and
// lower it promoted, then in frame slots.  Each lowering must equal a
// fresh compile of the source in its mode, by the back-end digest's hash
// (the pipeline never reads CodegenOptions; the back end reads the IR as
// const and leaves it as it was), in either order, at every judgeable
// level, over the back-end digest's corpus.
TEST(Lowering, SharedOptimizedModuleMatchesFreshCompiles) {
  for (const auto &[Name, Src] : digestCorpus())
    for (const LevelSpec &Spec : pipelineLevels()) {
      if (!judgeable(Spec))
        continue;
      SCOPED_TRACE(Name + " at " + Spec.Name);
      Expected<std::unique_ptr<IRModule>> IR =
          compileOptimizedIR(Src, Spec.Opts);
      ASSERT_TRUE(IR) << IR.status().str();
      const std::string Optimized = printModule(**IR);
      for (bool Promote : {true, false, true}) {
        const CodegenOptions CG{Promote, /*Schedule=*/false};
        Expected<MachineModule> Shared = lowerModule(**IR, CG);
        ASSERT_TRUE(Shared) << Shared.status().str();
        CompiledModule Fresh = compileOrAbort(Src, Spec.Opts, CG);
        ASSERT_EQ(digestOf(*Shared), digestOf(Fresh.MM))
            << "promote=" << Promote;
      }
      EXPECT_EQ(printModule(**IR), Optimized)
          << "lowering changed the optimized IR";
    }
}

TEST(Scheduler, PreservesSemantics) {
  const char *Src = R"(
    int main() {
      int a[8];
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { a[i] = i * 5; }
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i] * a[7 - i]; }
      print(s);
      return 0;
    }
  )";
  for (bool Sched : {false, true}) {
    auto [IR, MM] = compile(Src, true, {.Schedule = Sched});
    Machine VM(MM);
    ASSERT_EQ(VM.run(), StopReason::Exited);
    EXPECT_EQ(VM.outputText(), "1400\n");
  }
}

//===----------------------------------------------------------------------===//
// Randomized end-to-end differential tests
//===----------------------------------------------------------------------===//

namespace {

/// Same generator as in opt_test, reused for the machine pipeline.
class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    Src += "int main() {\n";
    for (int V = 0; V < 6; ++V)
      Src += "  int v" + std::to_string(V) + " = " +
             std::to_string(static_cast<int>(Rng() % 20) - 10) + ";\n";
    genStmts(2, 8);
    for (int V = 0; V < 6; ++V)
      Src += "  print(v" + std::to_string(V) + ");\n";
    Src += "  return 0;\n}\n";
    return Src;
  }

private:
  std::string var() { return "v" + std::to_string(Rng() % 6); }

  std::string expr(int Depth) {
    if (Depth <= 0 || Rng() % 3 == 0) {
      if (Rng() % 2)
        return var();
      return std::to_string(static_cast<int>(Rng() % 10) - 5);
    }
    static const char *Ops[] = {"+", "-", "*", "<", ">", "==", "&", "|"};
    return "(" + expr(Depth - 1) + " " + Ops[Rng() % 8] + " " +
           expr(Depth - 1) + ")";
  }

  void genStmts(int Depth, int Count) {
    for (int S = 0; S < Count; ++S) {
      switch (Rng() % 5) {
      case 0:
      case 1:
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 2:
        if (Depth > 0) {
          Src += "  if (" + expr(1) + ") {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  } else {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 3:
        if (Depth > 0) {
          std::string I = "i" + std::to_string(LoopId++);
          Src += "  for (int " + I + " = 0; " + I + " < " +
                 std::to_string(1 + Rng() % 5) + "; " + I + " = " + I +
                 " + 1) {\n";
          genStmts(Depth - 1, 1 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  print(" + var() + ");\n";
        break;
      case 4:
        Src += "  print(" + expr(1) + ");\n";
        break;
      }
    }
  }

  std::mt19937 Rng;
  std::string Src;
  int LoopId = 0;
};

class RandomizedVMTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomizedVMTest, MachinePipelinePreservesSemantics) {
  ProgramGenerator Gen(GetParam() + 1000);
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);
  allConfigs(Src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedVMTest, ::testing::Range(0u, 40u));

namespace {

/// A random laid-out machine CFG for the MachineFlow property test:
/// 1-9 blocks of 1-5 instructions (only their count matters), each with
/// up to two successors drawn from every block, so the graphs have
/// loops, joins, self-loops and blocks no path from the entry reaches.
MachineFunction randomMachineCFG(std::mt19937 &Rng) {
  MachineFunction MF;
  const unsigned NB = 1 + Rng() % 9;
  MF.Blocks.resize(NB);
  std::uint32_t Addr = 0;
  for (unsigned B = 0; B < NB; ++B) {
    MachineBlock &Blk = MF.Blocks[B];
    Blk.Id = B;
    Blk.Insts.resize(1 + Rng() % 5);
    MF.BlockAddr.push_back(Addr);
    Addr += Blk.Insts.size();
    for (unsigned E = Rng() % 3; E > 0; --E) {
      std::uint32_t S = Rng() % NB;
      if (std::find(Blk.Succs.begin(), Blk.Succs.end(), S) != Blk.Succs.end())
        continue;
      Blk.Succs.push_back(S);
      MF.Blocks[S].Preds.push_back(B);
    }
  }
  return MF;
}

/// Random decisions in address order over \p Universe facts, sometimes
/// several at one address (the last one about a fact wins), favouring
/// the facts at word boundaries.
std::vector<Decision> randomLog(std::mt19937 &Rng, std::uint32_t NumInstrs,
                                unsigned Universe) {
  std::vector<unsigned> Hot = {0, Universe - 1, Universe / 2};
  for (unsigned F : {63u, 64u, 127u, 128u})
    if (F < Universe)
      Hot.push_back(F);
  std::vector<Decision> Log;
  for (std::uint32_t A = 0; A < NumInstrs; ++A)
    for (unsigned K = Rng() % 5 < 2 ? 1 + Rng() % 3 : 0; K > 0; --K) {
      unsigned F = Rng() % 2 ? Rng() % Universe : Hot[Rng() % Hot.size()];
      Log.push_back({A, F, Rng() % 2 == 0});
    }
  return Log;
}

/// The same problem solved independently: one node per instruction,
/// std::vector<bool> sets, round-robin to the fixpoint from the meet's
/// top (all facts for intersection, none for union), nothing holding at
/// the function entry.  Returns the facts before each address, with the
/// state after the last instruction at numInstrs().
std::vector<std::vector<bool>>
perInstrFixpoint(const MachineFunction &MF, unsigned Universe,
                 const std::vector<Decision> &Log, FlowMeet Meet) {
  const bool Union = Meet == FlowMeet::Union;
  const std::uint32_t N = MF.numInstrs();
  std::vector<std::vector<std::uint32_t>> Preds(N);
  for (unsigned B = 0; B < MF.Blocks.size(); ++B) {
    const std::uint32_t First = MF.BlockAddr[B];
    for (std::uint32_t A = First + 1; A < First + MF.Blocks[B].Insts.size();
         ++A)
      Preds[A].push_back(A - 1);
    for (std::uint32_t P : MF.Blocks[B].Preds)
      Preds[First].push_back(MF.BlockAddr[P] + MF.Blocks[P].Insts.size() - 1);
  }
  std::vector<std::vector<bool>> In(N + 1, std::vector<bool>(Universe)),
      Out(N, std::vector<bool>(Universe, !Union));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (std::uint32_t A = 0; A < N; ++A) {
      // The meet's identity, or the empty entry boundary met in.
      std::vector<bool> S(Universe, !Union && A != 0);
      for (std::uint32_t P : Preds[A])
        for (unsigned F = 0; F < Universe; ++F)
          S[F] = Union ? S[F] || Out[P][F] : S[F] && Out[P][F];
      In[A] = S;
      for (const Decision &D : Log)
        if (D.Addr == A)
          S[D.Fact] = D.Set;
      if (S != Out[A]) {
        Out[A] = std::move(S);
        Changed = true;
      }
    }
  }
  In[N] = Out[N - 1];
  return In;
}

} // namespace

// MachineFlow against an independent per-instruction solve: at() at
// every address (the past-the-end one included) and every row of
// expand(), for universes at and around the word size, under both
// meets.
TEST(MachineFlow, MatchesPerInstructionFixpoint) {
  for (unsigned Universe : {1u, 63u, 64u, 65u, 200u})
    for (FlowMeet Meet : {FlowMeet::Union, FlowMeet::Intersect})
      for (unsigned Seed = 0; Seed < 40; ++Seed) {
        SCOPED_TRACE("universe " + std::to_string(Universe) + " meet " +
                     (Meet == FlowMeet::Union ? "union" : "intersect") +
                     " seed " + std::to_string(Seed));
        std::mt19937 Rng(Seed * 7919 + Universe);
        MachineFunction MF = randomMachineCFG(Rng);
        std::vector<Decision> Log = randomLog(Rng, MF.numInstrs(), Universe);
        std::vector<std::vector<bool>> Want =
            perInstrFixpoint(MF, Universe, Log, Meet);
        MachineFlow Flow(MF, Universe, Log, Meet);
        for (std::uint32_t A = 0; A <= MF.numInstrs(); ++A) {
          BitVector Got = Flow.at(A);
          ASSERT_EQ(Got.size(), Universe);
          for (unsigned F = 0; F < Universe; ++F)
            ASSERT_EQ(Got.test(F), Want[A][F]) << "at " << A << " fact " << F;
        }
        std::vector<BitVector> Rows = Flow.expand();
        ASSERT_EQ(Rows.size(), Universe);
        for (unsigned F = 0; F < Universe; ++F) {
          ASSERT_EQ(Rows[F].size(), MF.numInstrs());
          for (std::uint32_t A = 0; A < MF.numInstrs(); ++A)
            ASSERT_EQ(Rows[F].test(A), Want[A][F])
                << "expand fact " << F << " at " << A;
        }
      }
}
