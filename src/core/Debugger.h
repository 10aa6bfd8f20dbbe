//===- core/Debugger.h - Non-invasive source-level debugger -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing source-level debugger for optimized code.  It is
/// *non-invasive* (paper §1.2): it debugs exactly the code the optimizing
/// compiler emitted, consuming only the debug tables the compiler produced
/// (statement map, storage/residence tables, annotations); no instruction
/// was inserted or constrained on its behalf.
///
/// At a breakpoint, queryVariable() classifies the variable per Figure 1
/// and returns its value together with the verdict that mandates a
/// warning (warningText) — an endangered value is always shown with one,
/// so the debugger never misleads the user.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CORE_DEBUGGER_H
#define SLDB_CORE_DEBUGGER_H

#include "core/Classifier.h"
#include "vm/Machine.h"

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace sldb {

/// One variable's state at a breakpoint.  A plain value: code that
/// shows it to the user reads the name from the program's symbol table
/// (`Info.var(R.Var).Name`) and renders the warning, which Figure 1 makes
/// a function of the verdict, with `warningText(R.Class, Name)`.
struct VarReport {
  VarId Var = InvalidVar;
  Classification Class;

  /// Whether a value can be displayed (actual value for resident
  /// variables, recovered expected value when Class.Recoverable).
  bool HasValue = false;
  bool IsDouble = false;
  std::int64_t IntValue = 0;
  double DoubleValue = 0.0;
};
static_assert(std::is_trivially_copyable_v<VarReport>);

/// A source-level debugging session over compiled machine code.
class Debugger {
public:
  /// \p MaxSteps is the execution fuel budget forwarded to the VM; runs
  /// exceeding it stop with StopReason::StepLimit and a trap message
  /// naming the budget, so a hung debuggee cannot hang the session.
  explicit Debugger(const MachineModule &MM,
                    std::uint64_t MaxSteps = 50'000'000);
  /// Adds the session's scope-report counts to Stats
  /// (`debugger.scope.reports`, `debugger.scope.memo_hits`).
  ~Debugger();
  Debugger(const Debugger &) = delete;
  Debugger &operator=(const Debugger &) = delete;

  /// Sets a (syntactic) breakpoint at statement \p S of function \p F.
  /// Returns false if the statement emitted no code at all.
  bool setBreakpointAtStmt(FuncId F, StmtId S);

  /// Sets breakpoints at every statement of every function.
  void breakEverywhere();

  StopReason run() { return VM.run(); }
  StopReason resume() { return VM.resume(); }

  /// Starts the program paused at main()'s first instruction (which is
  /// the first statement's code address) without executing anything.
  StopReason startPaused() { return VM.startPaused(); }

  /// Source-level single step: executes instructions until the PC lands
  /// on the *start address of any statement* (of whatever function
  /// execution is in — stepping follows calls and returns), then stops
  /// as if at a breakpoint.  Independent of the breakpoint set, so a
  /// stepping session observes exactly the statement-boundary sequence
  /// the line table induces.  Terminal stops (exit, trap, fuel) are
  /// returned as-is.
  StopReason stepStmt();

  Machine &machine() { return VM; }
  const MachineModule &module() const { return MM; }

  /// True once the program has started: there is a current function to
  /// inspect.  Every inspection below requires it.
  bool started() const { return VM.pc().Func < MM.Funcs.size(); }

  /// True once the program has run to its end.  Nothing is left to
  /// inspect: currentStmt, queryVariable, explainVariable and
  /// reportScope answer nothing until the next run() or startPaused().
  bool exited() const { return VM.state() == StopReason::Exited; }

  /// True once the program has trapped (a run-time error such as a call
  /// stack overflow), or has spent its fuel budget.  The PC then lies
  /// inside a statement, outside the paper's statement-boundary model,
  /// where no verdict holds: as after an exit, the inspection calls
  /// answer nothing until the next run() or startPaused().
  bool trapped() const { return VM.state() == StopReason::Trapped; }
  bool outOfFuel() const { return VM.state() == StopReason::StepLimit; }

  /// Current stop location as (function, statement); statement is the one
  /// whose breakpoint address matches the PC, if any (the lowest, when
  /// several statements start there).
  FuncId currentFunction() const { return VM.pc().Func; }
  std::optional<StmtId> currentStmt() const;

  /// Classifies and reads one variable by name at the current stop.
  std::optional<VarReport> queryVariable(const std::string &Name) const;

  /// Explain mode: the provenance chain behind queryVariable's verdict
  /// for \p Name at the current stop (same lookup rule: locals shadow
  /// globals).  nullopt when no such variable is in scope.
  std::optional<Explanation> explainVariable(const std::string &Name) const;

  /// Renders an explanation against the current function's classifier.
  std::string explainText(const Explanation &E) const {
    return classifier(VM.pc().Func).renderExplainText(E);
  }
  std::string explainJson(const Explanation &E) const {
    return classifier(VM.pc().Func).renderExplainJson(E);
  }

  /// Forces every classifier (current and future) into degraded mode;
  /// exercises the fail-safe path on an intact module (sldbc
  /// --degrade-all, the degraded golden explain test).  Clears the
  /// scope memo.
  void degradeAllVariables();

  /// Reports every local variable in scope at the current stop.  The
  /// verdicts depend only on the stop address, so the second stop at an
  /// address memoizes them with where each value lives, and every later
  /// stop there re-reads only the values.
  std::vector<VarReport> reportScope() const;

  /// Raw debug-table read of \p V's storage home at the current stop,
  /// with no classification and no residence check: exactly what a
  /// naive debugger would print.  The conservatism metric compares this
  /// against the oracle's expected value to measure how often a
  /// warning/refusal verdict hid a value that was actually there.
  /// Returns false when the tables give the variable no location at all.
  bool peekStorage(VarId V, bool &IsDouble, std::int64_t &I,
                   double &D) const;

  /// Classifier of a function (exposed for the evaluation harness).
  /// Built on first use: a session stopping in a handful of functions
  /// never pays for the dataflow solves of the others.
  const Classifier &classifier(FuncId F) const;

private:
  /// Whether the run is over (exited, trapped or out of fuel): nothing
  /// is left to inspect.
  bool ended() const { return exited() || trapped() || outOfFuel(); }

  /// Where a report's value is read from at a stop.
  enum class ValueSource : std::uint8_t { None, Home, Recovery };

  /// The part of a variable's report that depends only on the stop
  /// address: the report without its value (value fields as a fresh
  /// VarReport has them), and where the value lives.
  struct StaticReport {
    VarReport Report;
    ValueSource Src = ValueSource::None;
    VarStorage Home; ///< Read when Src is Home.
  };

  /// \p V's static report at the current address, where \p C classified
  /// it as \p Class.
  StaticReport describeVar(const Classifier &C, VarId V,
                           const Classification &Class) const;
  /// Reads \p S's value at the current stop into \p R.
  void readValue(const StaticReport &S, VarReport &R) const;
  VarReport reportVar(const Classifier &C, VarId V) const;
  bool readStorage(const VarStorage &S, bool IsDouble, std::int64_t &I,
                   double &D) const;
  bool readRecovery(const MRecovery &R, std::int64_t &I, double &D,
                    bool &IsDouble) const;

  /// What the Debugger keeps per function-local address: the statement
  /// starting there (the lowest StmtId when several do) and the scope
  /// memo's state there.
  struct AddrInfo {
    StmtId Stmt = InvalidStmt;
    /// NotStopped, StoppedOnce, or FirstMemo + an index into Memos.
    std::uint32_t Memo = 0;
  };
  static constexpr std::uint32_t NotStopped = 0, StoppedOnce = 1,
                                 FirstMemo = 2;
  /// \p F's entry for address \p Local, or null past the function.
  AddrInfo *addrInfo(FuncId F, std::uint32_t Local) const;
  /// The statement starting at address \p Local of \p F, or InvalidStmt.
  StmtId stmtAt(FuncId F, std::uint32_t Local) const;

  const MachineModule &MM;
  Machine VM;
  mutable std::vector<std::unique_ptr<Classifier>> Classifiers;
  /// Per-function address tables, indexed by address and sized
  /// numInstrs()+1; built on the first lookup in the function.
  mutable std::vector<std::vector<AddrInfo>> Addrs;
  /// The scope memo's entries, one per address stopped at twice or more
  /// (AddrInfo::Memo points here).
  mutable std::vector<std::vector<StaticReport>> Memos;
  /// The verdicts of a scope report the memo does not serve.
  mutable std::vector<Classification> ScopeClasses;
  bool ForceDegraded = false; ///< Applied to lazily-built classifiers too.
  /// This session's scope reports and memo hits, added to Stats once,
  /// when the session ends, so a stop pays no atomic add.
  mutable std::uint64_t ScopeReports = 0, MemoHits = 0;
};

} // namespace sldb

#endif // SLDB_CORE_DEBUGGER_H
