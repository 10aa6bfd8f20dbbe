//===- codegen/RegAlloc.h - Graph-coloring register allocation --*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin-style graph-coloring register allocation with Briggs
/// conservative coalescing and spilling (paper Table 1: "Global register
/// allocation (using graph coloring)", "Register coalescing"), plus the
/// debug outputs the paper's evaluation needs:
///
///  * final storage assignment per source variable (register or spill
///    slot) in MachineFunction::Storage;
///  * the conservative live-range *residence* bits per register-homed
///    variable (MachineFunction::ResidentAt) — the debugger reports a
///    variable nonresident outside its live range, where the allocator
///    may have reused the register ([3], paper §1.1);
///  * validity bits for marker recovery values that live in registers
///    (MachineFunction::RecoveryValidAt, keyed by marker address).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CODEGEN_REGALLOC_H
#define SLDB_CODEGEN_REGALLOC_H

#include "codegen/MachineIR.h"
#include "support/Status.h"

namespace sldb {

/// Allocates registers for \p MF in place, rewriting virtual registers to
/// physical ones, inserting spill code, updating Storage/ResidentAt, and
/// filling BlockAddr/StmtAddr (layout happens here because residence is
/// per final address).  Returns RegAllocFailure (and leaves \p MF in an
/// unusable but memory-safe state) instead of asserting when coloring
/// fails to converge or meets an uncolored register.
Status allocateRegistersE(MachineFunction &MF, const ProgramInfo &Info);

/// Registers read by \p I (including implicit uses).
std::vector<Reg> minstrUses(const MInstr &I);

/// Register written by \p I (invalid if none), plus implicit defs.
std::vector<Reg> minstrDefs(const MInstr &I);

/// Visits the registers read by \p I (including implicit uses) without
/// materializing a vector — for the allocator's liveness/interference
/// loops, which visit every instruction many times.
template <typename Fn> inline void forEachMUse(const MInstr &I, Fn &&F) {
  if (I.Src0.isValid())
    F(I.Src0);
  if (I.Src1.isValid())
    F(I.Src1);
  if (I.AddrReg.isValid())
    F(I.AddrReg);
  if (I.Op == MOp::JAL) {
    unsigned IntArgs = static_cast<unsigned>(I.Imm >> 8);
    unsigned FpArgs = static_cast<unsigned>(I.Imm & 0xff);
    for (unsigned A = 0; A < IntArgs; ++A)
      F(Reg::phys(RegClass::Int, R3K::FirstIntArg + A));
    for (unsigned A = 0; A < FpArgs; ++A)
      F(Reg::phys(RegClass::Fp, R3K::FirstFpArg + A));
  }
  if (I.Op == MOp::RET) {
    F(Reg::phys(RegClass::Int, R3K::IntRetReg));
    F(Reg::phys(RegClass::Fp, R3K::FpRetReg));
  }
}

/// Visits the registers written by \p I (including implicit defs).
template <typename Fn> inline void forEachMDef(const MInstr &I, Fn &&F) {
  if (I.Dest.isValid())
    F(I.Dest);
  if (I.Op == MOp::JAL) {
    F(Reg::phys(RegClass::Int, R3K::IntRetReg));
    F(Reg::phys(RegClass::Fp, R3K::FpRetReg));
  }
}

} // namespace sldb

#endif // SLDB_CODEGEN_REGALLOC_H
