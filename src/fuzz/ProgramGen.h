//===- fuzz/ProgramGen.h - Random MiniC program generator -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generator of well-formed MiniC programs for the
/// differential-fuzzing oracle (the harness "Who's Debugging the
/// Debuggers?" built for production toolchains, specialized to this
/// compiler's optimizer).  The programs are shaped to exercise exactly the
/// transformations that endanger variables in the paper: redundant
/// assignments across joins (PRE hoisting), loop-invariant assignments
/// (LICM hoisting), partially dead assignments (PDE sinking), fully dead
/// assignments with recoverable right-hand sides (DCE + §2.5 recovery),
/// and multiplied induction variables (strength reduction + LFTR).
///
/// Generated programs terminate by construction (all loops count a
/// dedicated, otherwise-untouched counter), never divide by a non-constant
/// (no traps), and initialize locals unless deliberately testing the
/// uninitialized classification.  Generation is deterministic per seed.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_PROGRAMGEN_H
#define SLDB_FUZZ_PROGRAMGEN_H

#include <cstdint>
#include <string>

namespace sldb {

/// Sampling weights for statement and operator choices.  The default is
/// uniform-ish; fromBenchmarks() derives the weights from the eight
/// SPEC92 stand-in programs of eval/Programs.cpp so that generated code
/// resembles the Table 2 workload shapes (loop-heavy, +/* dominated,
/// compare-driven control flow).
struct GenWeights {
  // Statement-kind weights.
  double Assign = 6.0;
  double If = 2.0;
  double For = 2.0;
  double While = 1.0;
  double Print = 1.0;
  double Call = 1.0;

  // Binary-operator weights (division/modulus are only emitted with
  // non-zero constant divisors).
  double Add = 4.0;
  double Sub = 3.0;
  double Mul = 2.0;
  double Div = 0.5;
  double Rem = 0.5;
  double Cmp = 2.0;

  /// Counts tokens across the benchmark sources of eval/Programs.cpp and
  /// turns the frequencies into weights.
  static const GenWeights &fromBenchmarks();
};

/// Tunables for one generated program.
struct GenOptions {
  GenWeights Weights = GenWeights::fromBenchmarks();
  unsigned NumVars = 6;       ///< Locals v0..v{N-1} declared in main.
  unsigned TopStmts = 10;     ///< Statements at the top level of main.
  unsigned MaxDepth = 2;      ///< Nesting depth of if/for/while bodies.
  unsigned MaxLoopTrip = 5;   ///< Upper bound on any loop trip count.
  bool Helpers = true;        ///< Emit 0-2 helper functions + calls.
  bool Globals = true;        ///< Emit 0-2 global scalars.
  /// Probability (percent) of planting each optimization idiom: a PRE
  /// redundancy pair, a LICM invariant, a PDE partially-dead store, a DCE
  /// dead store with recoverable RHS, a strength-reducible IV loop.
  unsigned IdiomPct = 60;
  /// Probability (percent) of declaring one deliberately uninitialized
  /// local (exercises the uninitialized verdict / debug-table match).
  unsigned UninitPct = 25;
  /// Enable the aliasing grammar: fixed-size arrays, pointers (`&`, `*`,
  /// pointer arithmetic on array bases), and address-taken locals,
  /// including indirect stores that must kill propagation facts.  The
  /// idioms are safe by construction: every array element is written
  /// before any read of it, and pointer offsets into arrays are tracked
  /// constants kept in bounds.  Off by default so pre-existing seeds keep
  /// producing byte-identical programs.
  bool Alias = false;
  /// Probability (percent) of planting each aliasing idiom (array
  /// init+reduce loop, pointer-to-scalar indirect store, pointer
  /// arithmetic over an array, address passed to a mutating helper) when
  /// Alias is enabled.
  unsigned AliasPct = 60;
};

/// Generates one MiniC program.  Deterministic: the same (seed, options)
/// pair always yields the same source text.
std::string generateProgram(std::uint32_t Seed, const GenOptions &Opts = {});

} // namespace sldb

#endif // SLDB_FUZZ_PROGRAMGEN_H
