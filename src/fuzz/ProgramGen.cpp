//===- fuzz/ProgramGen.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGen.h"

#include "eval/Programs.h"
#include "frontend/Lexer.h"
#include "support/Diagnostics.h"

#include <random>
#include <vector>

using namespace sldb;

//===----------------------------------------------------------------------===//
// Weights from the benchmark corpus
//===----------------------------------------------------------------------===//

const GenWeights &GenWeights::fromBenchmarks() {
  static const GenWeights W = [] {
    // Token frequencies across the eight Table-2 stand-in programs.
    std::uint64_t NIf = 0, NFor = 0, NWhile = 0, NAssign = 0, NPrint = 0,
                  NCall = 0, NAdd = 0, NSub = 0, NMul = 0, NDiv = 0,
                  NRem = 0, NCmp = 0;
    for (const BenchProgram &P : benchmarkPrograms()) {
      DiagnosticEngine Diags;
      Lexer L(P.Source, Diags);
      std::vector<Token> Toks = L.lexAll();
      for (std::size_t I = 0; I < Toks.size(); ++I) {
        switch (Toks[I].Kind) {
        case TokKind::KwIf:
          ++NIf;
          break;
        case TokKind::KwFor:
          ++NFor;
          break;
        case TokKind::KwWhile:
          ++NWhile;
          break;
        case TokKind::Assign:
          ++NAssign;
          break;
        case TokKind::Plus:
          ++NAdd;
          break;
        case TokKind::Minus:
          ++NSub;
          break;
        case TokKind::Star:
          ++NMul;
          break;
        case TokKind::Slash:
          ++NDiv;
          break;
        case TokKind::Percent:
          ++NRem;
          break;
        case TokKind::Less:
        case TokKind::Greater:
        case TokKind::EqEq:
        case TokKind::BangEq:
          ++NCmp;
          break;
        case TokKind::Identifier:
          if (I + 1 < Toks.size() && Toks[I + 1].Kind == TokKind::LParen) {
            if (Toks[I].Sym == SymbolTable::Print)
              ++NPrint;
            else
              ++NCall;
          }
          break;
        default:
          break;
        }
      }
    }
    // Normalize against the assignment count so the default statement mix
    // (assignment-dominated, as in the SPEC-style sources) is preserved.
    auto Scaled = [&](std::uint64_t N, double Base) {
      return NAssign ? Base * static_cast<double>(N) /
                           static_cast<double>(NAssign)
                     : 1.0;
    };
    GenWeights G;
    G.Assign = 6.0;
    G.If = std::max(0.5, Scaled(NIf, 6.0));
    G.For = std::max(0.5, Scaled(NFor, 6.0));
    G.While = std::max(0.25, Scaled(NWhile, 6.0));
    G.Print = std::max(0.25, Scaled(NPrint, 6.0));
    G.Call = std::max(0.25, Scaled(NCall, 6.0));
    std::uint64_t OpTotal = NAdd + NSub + NMul + NDiv + NRem + NCmp;
    auto OpW = [&](std::uint64_t N) {
      return OpTotal ? std::max(0.25, 12.0 * static_cast<double>(N) /
                                          static_cast<double>(OpTotal))
                     : 1.0;
    };
    G.Add = OpW(NAdd);
    G.Sub = OpW(NSub);
    G.Mul = OpW(NMul);
    G.Div = OpW(NDiv) * 0.5; // Constant-divisor only; keep rare.
    G.Rem = OpW(NRem) * 0.5;
    G.Cmp = OpW(NCmp);
    return G;
  }();
  return W;
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

namespace {

class Generator {
public:
  Generator(std::uint32_t Seed, const GenOptions &Opts)
      : Rng(Seed), Opts(Opts), W(Opts.Weights) {}

  std::string generate();

private:
  std::mt19937 Rng;
  GenOptions Opts;
  GenWeights W;
  std::string Out;

  std::vector<std::string> Vars;       ///< Assignable in-scope scalars.
  std::vector<std::string> ReadOnly;   ///< Loop counters etc.: read-only.
  std::vector<std::string> Helpers;    ///< Helper function names.
  std::vector<std::string> PtrHelpers; ///< Helpers taking (int*, int).
  unsigned NextLoop = 0;
  unsigned NextAlias = 0; ///< Unique suffix for arrays and pointers.
  int Indent = 1;

  unsigned pct() { return Rng() % 100; }
  bool chance(unsigned P) { return pct() < P; }
  unsigned range(unsigned Lo, unsigned Hi) { // Inclusive.
    return Lo + Rng() % (Hi - Lo + 1);
  }

  int smallConst() { return static_cast<int>(Rng() % 19) - 9; }

  void line(const std::string &S) {
    Out.append(static_cast<std::size_t>(Indent) * 2, ' ');
    Out += S;
    Out += '\n';
  }

  const std::string &pickVar() {
    return Vars[Rng() % Vars.size()];
  }

  /// Any readable name (assignable var or read-only counter).
  const std::string &pickReadable() {
    if (!ReadOnly.empty() && Rng() % 4 == 0)
      return ReadOnly[Rng() % ReadOnly.size()];
    return pickVar();
  }

  std::string atom() {
    if (Rng() % 3 == 0)
      return std::to_string(smallConst());
    return pickReadable();
  }

  enum class OpKind { Add, Sub, Mul, Div, Rem, Cmp };

  OpKind pickOp() {
    double Total = W.Add + W.Sub + W.Mul + W.Div + W.Rem + W.Cmp;
    double R = std::uniform_real_distribution<double>(0.0, Total)(Rng);
    if ((R -= W.Add) < 0)
      return OpKind::Add;
    if ((R -= W.Sub) < 0)
      return OpKind::Sub;
    if ((R -= W.Mul) < 0)
      return OpKind::Mul;
    if ((R -= W.Div) < 0)
      return OpKind::Div;
    if ((R -= W.Rem) < 0)
      return OpKind::Rem;
    return OpKind::Cmp;
  }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || Rng() % 3 == 0)
      return atom();
    switch (pickOp()) {
    case OpKind::Add:
      return "(" + expr(Depth - 1) + " + " + expr(Depth - 1) + ")";
    case OpKind::Sub:
      return "(" + expr(Depth - 1) + " - " + expr(Depth - 1) + ")";
    case OpKind::Mul:
      return "(" + expr(Depth - 1) + " * " + expr(Depth - 1) + ")";
    case OpKind::Div:
      // Non-zero constant divisor only: generated programs never trap.
      return "(" + expr(Depth - 1) + " / " +
             std::to_string(2 + Rng() % 7) + ")";
    case OpKind::Rem:
      return "(" + expr(Depth - 1) + " % " +
             std::to_string(2 + Rng() % 7) + ")";
    case OpKind::Cmp: {
      static const char *Cmps[] = {"<", ">", "<=", ">=", "==", "!="};
      return "(" + expr(Depth - 1) + " " + Cmps[Rng() % 6] + " " +
             expr(Depth - 1) + ")";
    }
    }
    return atom();
  }

  std::string cond() {
    static const char *Cmps[] = {"<", ">", "<=", ">=", "==", "!="};
    return "(" + expr(1) + " " + Cmps[Rng() % 6] + " " + expr(1) + ")";
  }

  //===--- Statement generation -------------------------------------------===//

  void stmts(unsigned Count, unsigned Depth) {
    for (unsigned I = 0; I < Count; ++I)
      stmt(Depth);
  }

  void stmt(unsigned Depth) {
    double Total = W.Assign + W.Print +
                   (Depth ? W.If + W.For + W.While : 0.0) +
                   (Helpers.empty() ? 0.0 : W.Call);
    double R = std::uniform_real_distribution<double>(0.0, Total)(Rng);
    if ((R -= W.Assign) < 0)
      return assignStmt();
    if ((R -= W.Print) < 0)
      return line("print(" + expr(1) + ");");
    if (!Helpers.empty() && (R -= W.Call) < 0)
      return line(pickVar() + " = " + Helpers[Rng() % Helpers.size()] +
                  "(" + expr(1) + ", " + expr(1) + ");");
    if (Depth && (R -= W.If) < 0)
      return ifStmt(Depth - 1);
    if (Depth && (R -= W.For) < 0)
      return forStmt(Depth - 1);
    if (Depth)
      return whileStmt(Depth - 1);
    assignStmt();
  }

  void assignStmt() { line(pickVar() + " = " + expr(2) + ";"); }

  void ifStmt(unsigned Depth) {
    line("if " + cond() + " {");
    ++Indent;
    stmts(range(1, 3), Depth);
    --Indent;
    if (chance(70)) {
      line("} else {");
      ++Indent;
      stmts(range(1, 3), Depth);
      --Indent;
    }
    line("}");
  }

  /// Bounded counting loop; the counter is read-only inside the body.
  void forStmt(unsigned Depth, bool WithIVIdiom = false) {
    std::string I = "i" + std::to_string(NextLoop++);
    unsigned Trip = range(2, Opts.MaxLoopTrip);
    line("for (int " + I + " = 0; " + I + " < " + std::to_string(Trip) +
         "; " + I + " = " + I + " + 1) {");
    ++Indent;
    ReadOnly.push_back(I);
    if (WithIVIdiom) {
      // Strength-reducible use: the only consumers of the counter are the
      // loop test and this multiply, so IV opt can strength-reduce and
      // LFTR can retire the counter (affine §2.5 recovery).
      const std::string &X = pickVar();
      const std::string &Acc = pickVar();
      line(X + " = " + I + " * " + std::to_string(2 + Rng() % 7) + ";");
      line(Acc + " = " + Acc + " + " + X + ";");
    }
    stmts(range(1, 2), Depth);
    ReadOnly.pop_back();
    --Indent;
    line("}");
  }

  /// While loop over a dedicated fresh counter: always terminates.
  void whileStmt(unsigned Depth) {
    std::string C = "w" + std::to_string(NextLoop++);
    line("int " + C + " = " + std::to_string(range(1, Opts.MaxLoopTrip)) +
         ";");
    line("while (" + C + " > 0) {");
    ++Indent;
    ReadOnly.push_back(C);
    stmts(range(1, 2), Depth);
    ReadOnly.pop_back();
    line(C + " = " + C + " - 1;");
    --Indent;
    line("}");
  }

  //===--- Optimization idioms (paper §2 shapes) --------------------------===//

  /// Partial redundancy: `x = a + b` computed on one branch and repeated
  /// after the join — PRE hoists the second instance into the other branch
  /// and leaves an avail marker at the join (Figure 2).
  void idiomPRE() {
    const std::string &X = pickVar();
    std::string A = pickReadable(), B = pickReadable();
    line("if " + cond() + " {");
    ++Indent;
    line(X + " = " + A + " + " + B + ";");
    --Indent;
    line("} else {");
    ++Indent;
    assignStmt();
    --Indent;
    line("}");
    line(X + " = " + A + " + " + B + ";");
  }

  /// Loop-invariant assignment inside a bounded loop (LICM hoists it to
  /// the preheader; the destination becomes endangered in the loop).
  void idiomLICM() {
    std::string X = pickVar();
    std::string A, B;
    do
      A = pickReadable();
    while (A == X);
    do
      B = pickReadable();
    while (B == X);
    std::string I = "i" + std::to_string(NextLoop++);
    unsigned Trip = range(2, Opts.MaxLoopTrip);
    line("for (int " + I + " = 0; " + I + " < " + std::to_string(Trip) +
         "; " + I + " = " + I + " + 1) {");
    ++Indent;
    line(X + " = " + A + " * " + B + ";");
    const std::string &Acc = pickVar();
    line(Acc + " = " + Acc + " + " + X + ";");
    --Indent;
    line("}");
  }

  /// Partially dead store: killed on the then-path, used on the else-path
  /// — PDE sinks it onto the else edge and leaves a dead marker at the
  /// original site (Figure 3).
  void idiomPDE() {
    const std::string &X = pickVar();
    line(X + " = " + expr(1) + ";");
    line("if " + cond() + " {");
    ++Indent;
    line(X + " = " + expr(1) + ";");
    --Indent;
    line("} else {");
    ++Indent;
    line("print(" + X + ");");
    --Indent;
    line("}");
  }

  /// Fully dead store whose right-hand side survives (a constant or
  /// another variable): DCE eliminates it and records a §2.5 recovery.
  void idiomDCE() {
    const std::string &X = pickVar();
    std::string RHS =
        chance(50) ? std::to_string(smallConst()) : pickReadable();
    line(X + " = " + RHS + ";");
    // Overwrite a couple of statements later without reading X, keeping
    // the store dead on every path.
    line("print(" + pickReadable() + ");");
    line(X + " = " + expr(1) + ";");
  }

  //===--- Aliasing idioms (arrays, pointers, address-taken locals) -------===//

  /// Declares a fresh int array and initializes every element with a
  /// constant.  Generated programs never read an uninitialized array
  /// element: each element is written here before any idiom reads it.
  std::string declArray(unsigned &SizeOut) {
    std::string A = "a" + std::to_string(NextAlias++);
    unsigned N = range(3, 5);
    line("int " + A + "[" + std::to_string(N) + "];");
    for (unsigned J = 0; J < N; ++J)
      line(A + "[" + std::to_string(J) + "] = " +
           std::to_string(smallConst()) + ";");
    SizeOut = N;
    return A;
  }

  /// Array overwrite + reduction: a counting loop rewrites every element
  /// (trip count equals the array size, so accesses are in bounds), then
  /// a second loop folds the elements into a scalar.  Exercises Load/
  /// Store with a loop-variant index against LICM/PRE/IV opt.
  void idiomArrayLoop() {
    unsigned N;
    std::string A = declArray(N);
    std::string I = "i" + std::to_string(NextLoop++);
    line("for (int " + I + " = 0; " + I + " < " + std::to_string(N) +
         "; " + I + " = " + I + " + 1) {");
    ++Indent;
    ReadOnly.push_back(I);
    line(A + "[" + I + "] = " + I + " * " +
         std::to_string(2 + Rng() % 5) + " + " + atom() + ";");
    ReadOnly.pop_back();
    --Indent;
    line("}");
    std::string J = "i" + std::to_string(NextLoop++);
    const std::string &Acc = pickVar();
    line("for (int " + J + " = 0; " + J + " < " + std::to_string(N) +
         "; " + J + " = " + J + " + 1) {");
    ++Indent;
    line(Acc + " = " + Acc + " + " + A + "[" + J + "];");
    --Indent;
    line("}");
  }

  /// Address-taken scalar with an indirect store: `p = &t; *p = e;` must
  /// kill any propagated facts about t, and t itself must stay
  /// unpromoted (frame-resident) through the whole pipeline.
  void idiomPtrScalar() {
    std::string P = "p" + std::to_string(NextAlias++);
    const std::string &T = pickVar();
    line("int* " + P + " = &" + T + ";");
    line(T + " = " + expr(1) + ";"); // Direct def a prop pass might forward.
    line("*" + P + " = " + expr(1) + ";"); // Indirect kill of T.
    const std::string &X = pickVar();
    line(X + " = *" + P + " + " + std::to_string(range(0, 4)) + ";");
    line("print(" + T + ");"); // Observes the indirectly stored value.
  }

  /// Pointer arithmetic over an array: the pointer starts at a constant
  /// element and is bumped by tracked constant deltas, so every access
  /// stays in [0, N) by construction.
  void idiomPtrArray() {
    unsigned N;
    std::string A = declArray(N);
    std::string P = "p" + std::to_string(NextAlias++);
    unsigned C1 = Rng() % N; // Current pointed-to index, tracked exactly.
    line("int* " + P + " = " + A + " + " + std::to_string(C1) + ";");
    unsigned C2 = Rng() % N;
    int Delta = static_cast<int>(C2) - static_cast<int>(C1);
    if (Delta > 0)
      line(P + " = " + P + " + " + std::to_string(Delta) + ";");
    else if (Delta < 0)
      line(P + " = " + P + " - " + std::to_string(-Delta) + ";");
    line("*" + P + " = " + expr(1) + ";"); // Clobbers a[C2] via the pointer.
    unsigned K = N - 1 > C2 ? Rng() % (N - C2) : 0; // C2 + K < N.
    const std::string &X = pickVar();
    line(X + " = " + P + "[" + std::to_string(K) + "];");
    const std::string &Y = pickVar();
    // Direct read-back: may or may not be the clobbered element, either
    // way the optimizer must not forward a stale pre-store value.
    line(Y + " = " + A + "[" + std::to_string(Rng() % N) + "];");
  }

  /// Scalar escaping to a call: `fnp(&t, e)` mutates t through the
  /// pointer parameter, so every pass must treat the call as a possible
  /// def (and read) of t.
  void idiomPtrCall() {
    const std::string &T = pickVar();
    const std::string &X = pickVar();
    line(X + " = " + PtrHelpers[Rng() % PtrHelpers.size()] + "(&" + T +
         ", " + expr(1) + ");");
    line("print(" + T + ");");
  }

  //===--- Program assembly -----------------------------------------------===//

  void helperFunc(const std::string &Name) {
    Out += "int " + Name + "(int p0, int p1) {\n";
    Vars = {"p0", "p1"};
    ReadOnly.clear();
    Indent = 1;
    line("int h0 = p0 + " + std::to_string(range(1, 5)) + ";");
    Vars.push_back("h0");
    stmts(range(1, 3), 1);
    line("return " + expr(1) + ";");
    Out += "}\n\n";
  }

  /// Helper taking a pointer parameter that it stores through: calls
  /// passing `&t` make t escape, which the alias analysis must treat as
  /// clobbered (and read) by any later call.
  void ptrHelperFunc(const std::string &Name) {
    Out += "int " + Name + "(int* q0, int k0) {\n";
    Indent = 1;
    line("if (k0 > " + std::to_string(smallConst()) + ") {");
    ++Indent;
    line("*q0 = *q0 + k0;");
    --Indent;
    line("}");
    line("return *q0 + " + std::to_string(range(1, 5)) + ";");
    Out += "}\n\n";
  }
};

std::string Generator::generate() {
  Out.clear();
  std::vector<std::string> Globals;
  if (Opts.Globals && chance(60)) {
    unsigned N = range(1, 2);
    for (unsigned G = 0; G < N; ++G) {
      Globals.push_back("g" + std::to_string(G));
      // Global initializers are literal-only in the grammar (no unary
      // minus): keep them non-negative.
      Out += "int " + Globals.back() + " = " +
             std::to_string(Rng() % 10) + ";\n";
    }
    Out += "\n";
  }
  if (Opts.Helpers && chance(50)) {
    unsigned N = range(1, 2);
    for (unsigned H = 0; H < N; ++H) {
      // Register the helper only after its body is generated: a helper
      // may call earlier helpers, but never itself (unbounded
      // recursion).
      std::string Name = "fn" + std::to_string(H);
      helperFunc(Name);
      Helpers.push_back(Name);
    }
  }
  if (Opts.Alias && Opts.Helpers) {
    ptrHelperFunc("fnp0");
    PtrHelpers.push_back("fnp0");
  }

  Out += "int main() {\n";
  Indent = 1;
  Vars.clear();
  ReadOnly.clear();
  for (unsigned V = 0; V < Opts.NumVars; ++V) {
    Vars.push_back("v" + std::to_string(V));
    line("int v" + std::to_string(V) + " = " +
         std::to_string(smallConst()) + ";");
  }
  for (const std::string &G : Globals)
    Vars.push_back(G);
  bool Uninit = chance(Opts.UninitPct);
  if (Uninit)
    line("int u0;"); // Deliberately uninitialized until late (or never).

  // Plant the optimization idioms at random positions among the generic
  // statements; each idiom appears with probability IdiomPct (aliasing
  // idioms 6..9 with probability AliasPct, and only when Alias is on so
  // pre-existing seeds keep their exact random stream).
  std::vector<unsigned> Plan; // 0 = generic, 1..5 = idiom, 6..9 = alias.
  for (unsigned S = 0; S < Opts.TopStmts; ++S)
    Plan.push_back(0);
  for (unsigned Idiom = 1; Idiom <= 5; ++Idiom)
    if (chance(Opts.IdiomPct))
      Plan[Rng() % Plan.size()] = Idiom;
  if (Opts.Alias)
    for (unsigned Idiom = 6; Idiom <= 9; ++Idiom)
      if (chance(Opts.AliasPct))
        Plan[Rng() % Plan.size()] = Idiom;

  for (unsigned Step : Plan) {
    switch (Step) {
    case 1:
      idiomPRE();
      break;
    case 2:
      idiomLICM();
      break;
    case 3:
      idiomPDE();
      break;
    case 4:
      idiomDCE();
      break;
    case 5:
      forStmt(/*Depth=*/1, /*WithIVIdiom=*/true);
      break;
    case 6:
      idiomArrayLoop();
      break;
    case 7:
      idiomPtrScalar();
      break;
    case 8:
      idiomPtrArray();
      break;
    case 9:
      if (!PtrHelpers.empty())
        idiomPtrCall();
      else
        idiomPtrScalar();
      break;
    default:
      stmt(Opts.MaxDepth);
      break;
    }
  }

  if (Uninit && chance(50)) {
    line("u0 = " + expr(1) + ";");
    line("print(u0);");
  }
  // Keep the first few locals observably live at the end.
  for (unsigned V = 0; V < 3 && V < Opts.NumVars; ++V)
    line("print(v" + std::to_string(V) + ");");
  line("return v0;");
  Out += "}\n";
  return Out;
}

} // namespace

std::string sldb::generateProgram(std::uint32_t Seed,
                                  const GenOptions &Opts) {
  // Decorrelate consecutive seeds (mt19937 with nearby seeds produces
  // correlated early draws).
  std::uint32_t Mixed = Seed * 0x9E3779B9u + 0x85EBCA6Bu;
  return Generator(Mixed ^ (Mixed >> 16), Opts).generate();
}
