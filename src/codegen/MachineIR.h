//===- codegen/MachineIR.h - R3K machine representation ---------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level representation for the virtual R3K target, a MIPS-like
/// load/store RISC with the paper's register file: 26 integer and 16
/// floating-point registers available for allocation.  Debug annotations
/// (statement ids, hoisted/sunk flags, source-assignment destinations,
/// dead/avail markers with recovery payloads) are transferred from the IR
/// during instruction selection and survive register allocation and
/// scheduling — the "lowering" step of paper §3.
///
/// Addresses are instruction indices into the flattened per-function code;
/// markers occupy an address but execute as no-ops and are excluded from
/// dynamic instruction counts.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CODEGEN_MACHINEIR_H
#define SLDB_CODEGEN_MACHINEIR_H

#include "ir/IR.h"
#include "support/BitVector.h"
#include "support/PodVector.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace sldb {

//===----------------------------------------------------------------------===//
// Registers
//===----------------------------------------------------------------------===//

/// Register classes of the R3K.
enum class RegClass : std::uint8_t { Int, Fp };

/// A register id: physical below the virtual base, virtual above it.
struct Reg {
  RegClass Cls = RegClass::Int;
  std::uint32_t N = 0;

  static constexpr std::uint32_t VirtBase = 1u << 16;

  static Reg phys(RegClass Cls, std::uint32_t N) { return {Cls, N}; }
  static Reg virt(RegClass Cls, std::uint32_t N) {
    return {Cls, VirtBase + N};
  }

  bool isVirtual() const { return N >= VirtBase; }
  bool isValid() const { return N != ~0u; }
  static Reg invalid() { return {RegClass::Int, ~0u}; }

  bool operator==(const Reg &RHS) const {
    return Cls == RHS.Cls && N == RHS.N;
  }
  bool operator!=(const Reg &RHS) const { return !(*this == RHS); }

  std::string str() const;
};

/// R3K register-file parameters (paper §4: "on a machine like the MIPS
/// R3000, there are only 26 integer and 16 floating point registers
/// available for register allocation").
struct R3K {
  static constexpr unsigned NumIntRegs = 32;
  static constexpr unsigned NumFpRegs = 20;

  // Reserved integer registers: r0 (zero), r1/r2 (assembler scratch),
  // r3 (integer return value), r30/r31 (sp/ra, unused by allocation).
  static constexpr unsigned IntRetReg = 3;
  static constexpr unsigned FirstIntArg = 4; ///< r4..r11: arguments.
  static constexpr unsigned NumArgRegs = 8;
  static constexpr unsigned FirstAllocInt = 4;
  static constexpr unsigned LastAllocInt = 29; ///< 26 allocatable.

  // FP: f0 return value, f1-f3 scratch, f4..f19 allocatable (16).
  static constexpr unsigned FpRetReg = 0;
  static constexpr unsigned FirstFpArg = 4; ///< f4..f11.
  static constexpr unsigned FirstAllocFp = 4;
  static constexpr unsigned LastAllocFp = 19; ///< 16 allocatable.
};

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// Machine opcodes.
enum class MOp : std::uint8_t {
  // Integer ALU (Dest, Src0, Src1).
  ADD,
  SUB,
  MUL,
  DIV,
  REM,
  AND,
  OR,
  XOR,
  SLL,
  SRA,
  SEQ,
  SNE,
  SLT,
  SLE,
  SGT,
  SGE,
  NEG,
  NOT,
  MOV,
  LI, // Dest, Imm.
  // Floating point.
  FADD,
  FSUB,
  FMUL,
  FDIV,
  FNEG,
  FMOV,
  LID, // Dest, FImm.
  FEQ, // Int dest, fp sources.
  FNE,
  FLT,
  FLE,
  FGT,
  FGE,
  CVTID, // Fp dest <- int src.
  CVTDI, // Int dest <- fp src.
  // Memory (word addressed).  LW/SW integer, LD/SD double.
  LW, // Dest, [addr reg] or frame/global operand.
  SW, // Src, [addr reg] or frame/global operand.
  LD,
  SD,
  LA, // Dest <- address of frame slot / global.
  // Control.
  J,    // Target block.
  BNEZ, // Cond reg, target block (fall through = next op J).
  JAL,  // Callee function index.
  RET,
  // Runtime services.
  PRINTI, // Src int reg.
  PRINTD, // Src fp reg.
  // Debug pseudo-instructions (zero-size at runtime).
  MDEAD,
  MAVAIL,
  MNOP
};

const char *mopName(MOp Op);

/// How an eliminated variable's expected value can be reconstructed at
/// run time (machine form of the IR marker Recovery value).
struct MRecovery {
  enum class Kind : std::uint8_t { None, Imm, FImm, InReg, InFrame };
  Kind K = Kind::None;
  std::int64_t Imm = 0;
  double FImm = 0.0;
  Reg R = Reg::invalid();
  std::int32_t Frame = 0;
  std::int64_t Scale = 1; ///< expected = recovered / Scale.
  bool IsIV = false;      ///< Loop-invariant relation (paper §2.5).

  /// Pre-allocation identity of R (the virtual register the recovery
  /// value lived in); kept by the register allocator so the validity
  /// analysis can tell the source's own definitions apart from other
  /// values recycled into the same physical register.
  Reg SrcVreg = Reg::invalid();

  /// When the recovery source is a source *variable* (the `c = a` case of
  /// paper §2.5), its identity: the classifier must additionally check
  /// that the source variable is itself unendangered at the marker —
  /// otherwise the alias would launder a stale value (e.g. a deleted
  /// self-copy `v = v`).
  VarId SrcVar = InvalidVar;
};

/// One machine instruction.
struct MInstr {
  MOp Op = MOp::MNOP;
  Reg Dest = Reg::invalid();
  Reg Src0 = Reg::invalid();
  Reg Src1 = Reg::invalid();
  std::int64_t Imm = 0;
  double FImm = 0.0;

  /// Memory operand: one of AddrReg (register indirect), FrameSlot, or
  /// GlobalVar.
  Reg AddrReg = Reg::invalid();
  std::int32_t FrameSlot = -1;
  VarId GlobalVar = InvalidVar;

  std::uint32_t TargetBlock = ~0u; ///< J/BNEZ.
  FuncId Callee = InvalidFunc;     ///< JAL.

  /// Pre-allocation identity of Dest (set by the register allocator's
  /// rewrite); used by the debug-table construction only.
  Reg DestVreg = Reg::invalid();

  //===--- Debug annotations ----------------------------------------------===//
  StmtId Stmt = InvalidStmt;
  /// Source variable whose assignment this instruction completes.
  VarId DestVar = InvalidVar;
  bool IsHoisted = false;
  bool IsSunk = false;
  HoistKeyId HoistKey = InvalidHoistKey;
  /// Markers.
  VarId MarkVar = InvalidVar;
  StmtId MarkStmt = InvalidStmt;
  MRecovery Recovery;

  bool isMarker() const {
    return Op == MOp::MDEAD || Op == MOp::MAVAIL || Op == MOp::MNOP;
  }
  bool isBranch() const { return Op == MOp::J || Op == MOp::BNEZ; }
  bool isTerminatorLike() const {
    return isBranch() || Op == MOp::RET;
  }
};

//===----------------------------------------------------------------------===//
// Blocks, functions, modules
//===----------------------------------------------------------------------===//

/// A machine basic block; mirrors its IR block 1:1.  The instruction
/// buffer is arena-backed when the block was built by instruction
/// selection (MachineModule::arena); hand-built blocks default to the
/// heap and need no arena.
struct MachineBlock {
  std::uint32_t Id = 0;
  std::string Name;
  PodVector<MInstr> Insts;
  std::vector<std::uint32_t> Succs, Preds; ///< Block indices.
};

/// Where a variable lives at run time.
struct VarStorage {
  enum class Kind : std::uint8_t {
    None,     ///< Never materialized (nonresident everywhere).
    InReg,    ///< Promoted to a register (resident while live).
    Frame,    ///< Frame slot (resident once initialized).
    GlobalMem ///< Global memory (resident once initialized).
  };
  Kind K = Kind::None;
  Reg R = Reg::invalid();
  std::int32_t Frame = -1;
  std::size_t GlobalAddr = 0;
};

/// One compiled function.
struct MachineFunction {
  FuncId Id = InvalidFunc;
  std::string Name;
  std::vector<MachineBlock> Blocks;
  std::uint32_t FrameSize = 0; ///< In words, at most MaxFrameWords.
  /// Frame slots are int32_t word offsets.
  static constexpr std::uint32_t MaxFrameWords = INT32_MAX;
  std::vector<HoistKey> HoistKeys;
  std::uint32_t NumStmts = 0;

  /// Address (function-local instruction index) of each block start;
  /// filled by layout.
  std::vector<std::uint32_t> BlockAddr;

  /// stmt -> lowest function-local address of an instruction (or marker)
  /// annotated with the statement; -1 if the statement vanished.
  std::vector<std::int32_t> StmtAddr;

  /// Runtime storage per variable (locals and params of this function).
  std::unordered_map<VarId, VarStorage> Storage;

  /// For register-homed variables: bit per function-local address, set
  /// where the variable's value is live in its register (the conservative
  /// live-range residence model of [Adl-Tabatabai & Gross, POPL'93]).
  std::unordered_map<VarId, BitVector> ResidentAt;

  /// For dead markers whose recovery value lives in a register: bit per
  /// function-local address where that register still holds the recovery
  /// value.  Keyed by the marker's function-local address.
  std::unordered_map<std::uint32_t, BitVector> RecoveryValidAt;

  /// Marker census taken at instruction selection (the backend never
  /// deletes markers).  The AnnotationVerifier recounts and treats a
  /// mismatch as dropped debug bookkeeping: lost markers silently erase
  /// endangerment evidence, so the whole function degrades.
  std::uint32_t ExpectedDeadMarkers = 0;
  std::uint32_t ExpectedAvailMarkers = 0;

  /// Debug-bookkeeping integrity findings inherited from the IR pipeline
  /// (see IRFunction::AnnotationFindings); the Classifier merges these
  /// with its own machine-level verification and degrades the affected
  /// variables.
  std::vector<AnnotationFinding> IntegrityFindings;

  std::uint32_t numInstrs() const {
    std::uint32_t N = 0;
    for (const MachineBlock &B : Blocks)
      N += static_cast<std::uint32_t>(B.Insts.size());
    return N;
  }
};

/// A compiled module.
struct MachineModule {
  const ProgramInfo *Info = nullptr;
  std::vector<MachineFunction> Funcs;
  /// Word address of each global, indexed by VarId (NoGlobal for ids
  /// that name no global); read it through globalAddr().
  std::vector<std::size_t> GlobalAddr;
  std::size_t GlobalWords = 0;
  std::vector<std::pair<std::size_t, Value>> GlobalInits;

  static constexpr std::size_t NoGlobal = ~std::size_t(0);

  /// Word address of global \p V, or NoGlobal.  Bounds-checked: the id
  /// may come from a (possibly corrupt) annotation.
  std::size_t globalAddr(VarId V) const {
    return V < GlobalAddr.size() ? GlobalAddr[V] : NoGlobal;
  }

  const MachineFunction *findFunc(const std::string &Name) const {
    for (const MachineFunction &F : Funcs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }

  /// Arena for instruction buffers.  Created on first use; instruction
  /// selection can instead point it at an external arena (batch mode:
  /// one arena shared by the IR and machine module, reset together).
  Arena *arena() {
    if (!CodeArena) {
      OwnedArena = std::make_unique<Arena>(1 << 14);
      CodeArena = OwnedArena.get();
    }
    return CodeArena;
  }
  void setArena(Arena *Ext) { CodeArena = Ext; }

private:
  std::unique_ptr<Arena> OwnedArena; ///< Null when borrowing.
  Arena *CodeArena = nullptr;
};

/// Renders one machine instruction.
std::string printMInstr(const MInstr &I, const MachineFunction &F,
                        const ProgramInfo *Info);

/// Renders a machine function with addresses.
std::string printMachineFunction(const MachineFunction &F,
                                 const ProgramInfo *Info);

} // namespace sldb

#endif // SLDB_CODEGEN_MACHINEIR_H
