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
/// Coloring decodes each class's operands once into a flat table of dense
/// register ids (physical registers, selection vregs, spill temps); every
/// round works from that table, which coalescing rewrites along with the
/// code and a spill round decodes again.  The interference graph is a
/// flat bit matrix; every decision is ordered by register number, so the
/// numbering never shows in the output.  One allocator lives per thread
/// and keeps its storage between calls.  The
/// debug tables are one forward all-paths problem over the final code,
/// stated as a codegen/MachineFlow.h decision log with one bit per fact —
/// residence of a register-homed variable, ownership of a recovery
/// register by its source vreg, and validity of a plain recovery marker —
/// each fact indexed by its physical register, so a def decides only its
/// own register's bits.
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

} // namespace sldb

#endif // SLDB_CODEGEN_REGALLOC_H
