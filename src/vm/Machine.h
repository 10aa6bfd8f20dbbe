//===- vm/Machine.h - R3K simulator ------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled MachineModules: the runtime substrate the debugger
/// inspects.  Supports breakpoints at instruction addresses, register and
/// memory inspection, and dynamic instruction counting (markers execute
/// as zero-size no-ops and are not counted).
///
/// Simplifications vs. real MIPS hardware (documented in DESIGN.md): word
/// addressed memory; the call sequence saves/restores the register file in
/// the VM (callee-saves-everything), so calls clobber only the return
/// value registers.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_VM_MACHINE_H
#define SLDB_VM_MACHINE_H

#include "codegen/MachineIR.h"
#include "support/BitVector.h"
#include "support/ZeroedBuffer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sldb {

/// A global code address.
struct CodeAddr {
  std::uint32_t Func = ~0u;  ///< Index into MachineModule::Funcs.
  std::uint32_t Local = 0;   ///< Function-local instruction index.

  bool operator==(const CodeAddr &RHS) const {
    return Func == RHS.Func && Local == RHS.Local;
  }
};

/// Why the machine stopped.
enum class StopReason : std::uint8_t {
  Running,
  Breakpoint,
  Exited,
  Trapped,
  StepLimit
};

/// The R3K simulator.
class Machine {
public:
  explicit Machine(const MachineModule &MM, std::uint64_t MaxSteps =
                                                50'000'000);

  /// Resets and starts main(); runs until a stop condition.
  StopReason run();

  /// Resets and arranges to start main() *paused* at its first
  /// instruction: returns StopReason::Breakpoint without executing
  /// anything (or Trapped when setup fails).  The debugger's stepping
  /// entry point — run() would sprint to the first breakpoint instead.
  StopReason startPaused();

  /// Resumes after a breakpoint stop.
  StopReason resume();

  /// Executes one instruction (markers are skipped transparently).
  StopReason step();

  /// Rewrites a Running state as a Breakpoint stop: the single-stepper
  /// landed on a statement boundary and the session is now "stopped at a
  /// breakpoint" as far as every inspection API is concerned.
  void noteStop() {
    if (Reason == StopReason::Running)
      Reason = StopReason::Breakpoint;
  }

  /// Adds a breakpoint.  An address beyond the function's numInstrs(),
  /// or in a function that does not exist, never fires.
  void setBreakpoint(CodeAddr A);

  //===--- State inspection (the debugger's window) ----------------------===//

  CodeAddr pc() const { return PC; }
  StopReason state() const { return Reason; }
  std::int64_t exitValue() const { return ExitValue; }
  const std::string &trapMessage() const { return TrapMsg; }
  std::uint64_t instrCount() const { return Executed; }
  const std::vector<std::string> &output() const { return Output; }

  std::string outputText() const {
    std::string S;
    for (const std::string &Line : Output) {
      S += Line;
      S += '\n';
    }
    return S;
  }

  /// Debugger-facing register reads.  Bounds-clamped: a corrupted
  /// recovery annotation may name a register that does not exist, and
  /// the inspection window must stay memory-safe regardless.
  std::int64_t readIntReg(unsigned N) const {
    return N < R3K::NumIntRegs ? R[N] : 0;
  }
  double readFpReg(unsigned N) const {
    return N < R3K::NumFpRegs ? F[N] : 0.0;
  }

  /// Reads a data word (global or stack).
  std::int64_t readMemInt(std::size_t Addr) const;
  double readMemDouble(std::size_t Addr) const;

  /// Frame base of the current (innermost) activation.
  std::size_t framePointer() const { return FP; }

  /// Number of live activations.
  std::size_t frameDepth() const { return Frames.size(); }

private:
  StopReason resumeImpl(bool SkipFirst);
  bool atBreakpoint() const {
    return PC.Func < BreakAt.size() && PC.Local < BreakAt[PC.Func].size() &&
           BreakAt[PC.Func].test(PC.Local);
  }
  bool reset(); ///< Shared setup of run()/startPaused().
  void trap(const std::string &Msg);
  void exec(const MInstr &I);
  std::size_t resolveMemOperand(const MInstr &I);

  struct Word {
    std::int64_t I = 0;
    double D = 0.0;
  };

  struct Frame {
    CodeAddr RetPC;
    std::uint32_t RetBlock = 0;
    std::size_t SavedFP = 0;
    std::int64_t SavedR[R3K::NumIntRegs];
    double SavedF[R3K::NumFpRegs];
  };

  const MachineModule &MM;
  std::uint64_t MaxSteps;

  CodeAddr PC;
  /// Block of PC.Func that holds PC (the cursor step() reads the next
  /// instruction through, instead of searching the block layout).
  std::uint32_t Block = 0;
  std::int64_t R[R3K::NumIntRegs] = {0};
  double F[R3K::NumFpRegs] = {0};
  ZeroedBuffer<Word> Mem;
  std::size_t FP = 0; ///< Current frame base (word address).
  std::size_t SP = 0; ///< Stack top.
  std::vector<Frame> Frames;

  /// Breakpoint flags per function, indexed by address; a function's
  /// row is allocated by its first setBreakpoint().
  std::vector<BitVector> BreakAt;
  StopReason Reason = StopReason::Running;
  std::int64_t ExitValue = 0;
  std::string TrapMsg;
  std::uint64_t Executed = 0;
  std::vector<std::string> Output;

  /// Fault injection (FaultId::TrapVMMidRun): instruction count at which
  /// the VM spuriously traps; 0 when the fault is not armed.
  std::uint64_t TrapAtStep = 0;
};

} // namespace sldb

#endif // SLDB_VM_MACHINE_H
