//===- ir/IR.h - Three-address intermediate representation -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-independent IR: a control-flow graph of basic blocks holding
/// three-address instructions whose operands are source variables, compiler
/// temporaries, or constants.  This mirrors cmcc's design (paper §3): a
/// non-SSA IR analyzed with bit-vector data-flow, annotated in place by the
/// optimizer's debug bookkeeping:
///
///  * every instruction carries the StmtId of the source statement it was
///    generated from;
///  * instructions that complete an assignment to a source variable carry
///    that variable (IsSourceAssign / destVar());
///  * code inserted by code hoisting or sinking is flagged IsHoisted /
///    IsSunk and carries a *hoist key* naming the assignment expression;
///  * eliminated assignments are replaced by DeadMarker / AvailMarker
///    pseudo-instructions (ignored by optimizations, used by the debugger
///    analyses), optionally carrying a recovery value.
///
/// Memory model (DESIGN.md "IR memory model & batch compilation"): every
/// function, block, and instruction of a module lives in one Arena.
/// Instructions sit in a per-function InstrPool — dense, stable InstrIds
/// chained into per-block InstrLists — so pass mutation keeps the std::list
/// idioms (O(1) insert/erase/splice, stable pointers) without a heap node
/// per instruction.  The IRModule owns the arena (or borrows a caller's,
/// for batch compilation) and destroys its functions; the arena itself
/// never runs destructors.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_IR_IR_H
#define SLDB_IR_IR_H

#include "frontend/Ast.h"
#include "frontend/Symbols.h"
#include "ir/InstrStorage.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/SmallVector.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sldb {

//===----------------------------------------------------------------------===//
// Types and values
//===----------------------------------------------------------------------===//

/// IR-level value types.  Pointers are untyped word addresses (MiniC memory
/// is word-addressed); load/store instructions carry the element type.
enum class IRType : std::uint8_t { Void, Int, Double, Ptr };

/// Converts a front-end type to an IR type.
inline IRType irTypeFor(QualType Ty) {
  switch (Ty.Kind) {
  case TypeKind::Void:
    return IRType::Void;
  case TypeKind::Int:
    return IRType::Int;
  case TypeKind::Double:
    return IRType::Double;
  case TypeKind::Ptr:
    return IRType::Ptr;
  }
  sldb_unreachable("bad type kind");
}

/// Identity of a compiler temporary, dense per function.
using TempId = std::uint32_t;

/// A small value: an operand or destination of an instruction.
/// Values are plain copyable structs (no use lists); def-use information is
/// computed on demand by the analysis library.
struct Value {
  enum class Kind : std::uint8_t { None, Temp, Var, ConstInt, ConstDouble };

  Kind K = Kind::None;
  IRType Ty = IRType::Void;
  std::uint32_t Id = 0;        ///< TempId or VarId.
  std::int64_t IntVal = 0;
  double DblVal = 0.0;

  static Value none() { return Value(); }
  static Value temp(TempId Id, IRType Ty) {
    Value V;
    V.K = Kind::Temp;
    V.Ty = Ty;
    V.Id = Id;
    return V;
  }
  static Value var(VarId Id, IRType Ty) {
    Value V;
    V.K = Kind::Var;
    V.Ty = Ty;
    V.Id = Id;
    return V;
  }
  static Value constInt(std::int64_t N) {
    Value V;
    V.K = Kind::ConstInt;
    V.Ty = IRType::Int;
    V.IntVal = N;
    return V;
  }
  static Value constDouble(double D) {
    Value V;
    V.K = Kind::ConstDouble;
    V.Ty = IRType::Double;
    V.DblVal = D;
    return V;
  }

  bool isNone() const { return K == Kind::None; }
  bool isTemp() const { return K == Kind::Temp; }
  bool isVar() const { return K == Kind::Var; }
  bool isConstInt() const { return K == Kind::ConstInt; }
  bool isConstDouble() const { return K == Kind::ConstDouble; }
  bool isConst() const { return isConstInt() || isConstDouble(); }

  bool operator==(const Value &RHS) const {
    if (K != RHS.K)
      return false;
    switch (K) {
    case Kind::None:
      return true;
    case Kind::Temp:
    case Kind::Var:
      return Id == RHS.Id;
    case Kind::ConstInt:
      return IntVal == RHS.IntVal;
    case Kind::ConstDouble:
      return DblVal == RHS.DblVal;
    }
    return false;
  }
  bool operator!=(const Value &RHS) const { return !(*this == RHS); }
};

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// IR opcodes.
enum class Opcode : std::uint8_t {
  // Binary arithmetic/logic (result type = Ty; Div/Rem trap on zero).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  // Comparisons (operand type from operands; result Int 0/1).
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  // Unary.
  Neg,
  Not,
  // Data movement / conversion.
  Copy,
  CastItoD,
  CastDtoI,
  // Memory.  AddrOf yields the word address of a variable.
  AddrOf,
  Load,
  Store,
  // Calls (Ops = arguments).
  Call,
  // Terminators.
  Br,
  CondBr,
  Ret,
  // Debug bookkeeping pseudo-instructions (paper §3).
  DeadMarker,
  AvailMarker,
  Nop,
  // SSA phi node (SSA tier only: inserted by SsaConstruct, eliminated by
  // SsaDestruct before the pipeline ends; never reaches codegen or the
  // interpreter).  Ops[i] is the value flowing in from PhiPreds[i].
  Phi
};

/// Returns true for Br/CondBr/Ret.
inline bool isTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
}

/// Returns true for the debug marker pseudo-instructions.
inline bool isMarker(Opcode Op) {
  return Op == Opcode::DeadMarker || Op == Opcode::AvailMarker;
}

/// Returns true for binary ALU opcodes (Add..CmpGE).
inline bool isBinaryOp(Opcode Op) {
  return Op >= Opcode::Add && Op <= Opcode::CmpGE;
}

/// Returns true for comparison opcodes.
inline bool isCompareOp(Opcode Op) {
  return Op >= Opcode::CmpEQ && Op <= Opcode::CmpGE;
}

/// Identity of a hoistable assignment-expression key (see
/// IRFunction::HoistKeys); dense per function.
using HoistKeyId = std::uint32_t;
inline constexpr HoistKeyId InvalidHoistKey = ~HoistKeyId(0);

class BasicBlock;

/// One three-address instruction.
struct Instr {
  /// Operand list.  Two elements of inline storage: everything except a
  /// Call with 3+ arguments fits without touching the heap.
  using OpsVec = SmallVector<Value, 2>;

  Opcode Op = Opcode::Nop;
  IRType Ty = IRType::Void; ///< Result type.
  Value Dest;               ///< Temp or Var destination (or None).
  OpsVec Ops;               ///< Operands (see opcode conventions).
  FuncId Callee = InvalidFunc;
  Builtin BuiltinKind = Builtin::None;
  BasicBlock *Succs[2] = {nullptr, nullptr}; ///< Br: [0]; CondBr: [T, F].

  /// For Phi only: the predecessor block each operand flows in from
  /// (parallel to Ops).  Kept in sync with the block's predecessor set by
  /// the SSA passes; the verifier checks arity and membership.
  SmallVector<BasicBlock *, 2> PhiPreds;

  //===--- Debug annotations (paper §3 bookkeeping) -----------------------===//

  /// Source statement this instruction was generated from.
  StmtId Stmt = InvalidStmt;

  /// True if this instruction completes a source-level assignment to
  /// Dest (which is then a Var).  Set by IR generation; preserved (and
  /// copied) by optimizations.
  bool IsSourceAssign = false;

  /// True if this instruction was inserted by a code-hoisting
  /// transformation (PRE, LICM).
  bool IsHoisted = false;

  /// True if this instruction was inserted by a code-sinking
  /// transformation (partial dead-code elimination).
  bool IsSunk = false;

  /// For hoisted source assignments and AvailMarkers: the key of the
  /// assignment expression (index into IRFunction::HoistKeys).
  HoistKeyId HoistKey = InvalidHoistKey;

  /// For markers: the variable whose assignment was eliminated, and the
  /// statement id of the eliminated source assignment.
  VarId MarkVar = InvalidVar;
  StmtId MarkStmt = InvalidStmt;

  /// For DeadMarkers: optional recovery value — the eliminated
  /// assignment's right-hand side when it survives as a temporary,
  /// constant, or variable the debugger can read (paper §2.5).
  Value Recovery;

  /// Affine recovery for strength-reduced induction variables: the
  /// expected value of MarkVar is value(Recovery) / RecoveryScale.
  /// When RecoveryIsIV is set the relation is a loop invariant maintained
  /// by the strength-reduction updates, so redefinitions of the recovery
  /// temp do *not* invalidate it (unlike plain recovery).
  std::int64_t RecoveryScale = 1;
  bool RecoveryIsIV = false;

  //===--- Queries --------------------------------------------------------===//

  bool isTerm() const { return isTerminator(Op); }
  bool isMark() const { return isMarker(Op); }

  /// Returns the destination variable if this instruction writes a source
  /// variable, else InvalidVar.
  VarId destVar() const {
    return Dest.isVar() ? Dest.Id : InvalidVar;
  }

  /// Returns true if this instruction has observable side effects (and so
  /// cannot be deleted even if its result is unused).
  bool hasSideEffects() const {
    switch (Op) {
    case Opcode::Store:
    case Opcode::Call:
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Ret:
    case Opcode::DeadMarker:
    case Opcode::AvailMarker:
      return true;
    case Opcode::Div:
    case Opcode::Rem:
      // May trap on zero divisor; deleting changes behavior only for
      // faulting programs — we still treat them as deletable when dead,
      // as cmcc's optimizer did (C leaves this undefined).
      return false;
    default:
      return false;
    }
  }

  /// Number of successor blocks (terminators only).
  unsigned numSuccs() const {
    if (Op == Opcode::Br)
      return 1;
    if (Op == Opcode::CondBr)
      return 2;
    return 0;
  }
};

//===----------------------------------------------------------------------===//
// Basic blocks
//===----------------------------------------------------------------------===//

/// A basic block: a label plus a straight-line instruction list ending in a
/// terminator.  Blocks are arena-placed by IRFunction::newBlock and their
/// instructions live in the owning function's InstrPool.
class BasicBlock {
public:
  BasicBlock(InstrPool *P, std::uint32_t Id, std::string Name)
      : Id(Id), Name(std::move(Name)), Insts(P) {}

  std::uint32_t Id;
  std::string Name;
  InstrList Insts;

  /// Predecessors; maintained by IRFunction::recomputePreds().
  std::vector<BasicBlock *> Preds;

  /// Position of this block in the CFGContext traversal order (reverse
  /// post-order); maintained by CFGContext so the dataflow kernels can map
  /// block -> dense index without hashing.
  std::uint32_t CtxIndex = 0;

  /// The terminator (last instruction).  The block must be non-empty.
  Instr &term() {
    assert(!Insts.empty() && Insts.back().isTerm() &&
           "block has no terminator");
    return Insts.back();
  }
  const Instr &term() const {
    return const_cast<BasicBlock *>(this)->term();
  }

  bool hasTerm() const { return !Insts.empty() && Insts.back().isTerm(); }

  /// Non-allocating successor view: a pointer range into the
  /// terminator's successor array.  Stays valid while the terminator
  /// instruction itself is not erased.
  struct SuccRange {
    BasicBlock *const *First = nullptr;
    BasicBlock *const *Last = nullptr;
    BasicBlock *const *begin() const { return First; }
    BasicBlock *const *end() const { return Last; }
    std::size_t size() const { return static_cast<std::size_t>(Last - First); }
    bool empty() const { return First == Last; }
    BasicBlock *operator[](std::size_t I) const { return First[I]; }
  };

  SuccRange succRange() const {
    if (!hasTerm())
      return {};
    const Instr &T = Insts.back();
    return {T.Succs, T.Succs + T.numSuccs()};
  }

  /// Successor list (0, 1, or 2 blocks).  Allocates; prefer succRange()
  /// in hot paths.
  std::vector<BasicBlock *> succs() const {
    SuccRange R = succRange();
    return std::vector<BasicBlock *>(R.begin(), R.end());
  }

  /// Replaces every successor edge to \p From with \p To.
  void replaceSucc(BasicBlock *From, BasicBlock *To) {
    assert(hasTerm() && "no terminator");
    Instr &T = Insts.back();
    for (unsigned I = 0, E = T.numSuccs(); I != E; ++I)
      if (T.Succs[I] == From)
        T.Succs[I] = To;
  }
};

//===----------------------------------------------------------------------===//
// Functions and modules
//===----------------------------------------------------------------------===//

/// The assignment-expression key used by hoist-reach bookkeeping: names
/// "assignments of `A op B` to variable V" so that hoisted instances and
/// the redundant copies they make available can be matched by the debugger
/// (paper Definition 1: the analysis only needs to know that *some*
/// instance of the key was hoisted / eliminated, not which).
struct HoistKey {
  VarId V = InvalidVar;
  Opcode Op = Opcode::Nop;
  IRType Ty = IRType::Void;
  Value A, B;

  bool operator==(const HoistKey &RHS) const {
    return V == RHS.V && Op == RHS.Op && Ty == RHS.Ty && A == RHS.A &&
           B == RHS.B;
  }
};

/// One debug-bookkeeping integrity violation found by an annotation
/// verifier (ir/Verifier.h at the IR level, core/AnnotationVerifier.h at
/// the machine level).  `Var == InvalidVar` means the damage cannot be
/// attributed to a single variable and the whole function's debug info is
/// untrustworthy.  Findings never abort compilation: the Classifier
/// degrades the affected variables to conservative answers instead
/// (DESIGN.md "Failure model").
struct AnnotationFinding {
  VarId Var = InvalidVar;
  std::string Message;
};

/// An IR function: CFG + symbol references + bookkeeping tables.
///
/// Functions are arena-placed by IRModule::newFunction; the function
/// destroys its blocks (and its InstrPool the instructions), the arena
/// reclaims the memory when the module goes away.
class IRFunction {
public:
  /// Arena backing this function's blocks and instruction pool; owned by
  /// the IRModule.  Declared first: Pool is built over it.
  Arena &A;

  /// Storage for every instruction of this function.
  InstrPool Pool;

  IRFunction(Arena &A, FuncId Id, std::string Name, IRType RetTy)
      : A(A), Pool(A), Id(Id), Name(std::move(Name)), RetTy(RetTy) {}

  IRFunction(const IRFunction &) = delete;
  IRFunction &operator=(const IRFunction &) = delete;

  ~IRFunction() {
    for (BasicBlock *B : Blocks)
      B->~BasicBlock();
  }

  FuncId Id;
  std::string Name;
  IRType RetTy;
  std::vector<VarId> Params;

  std::vector<BasicBlock *> Blocks; ///< Blocks[0] = entry; arena-placed.
  TempId NextTemp = 0;
  std::uint32_t NextBlockId = 0;

  /// Assignment-expression keys referenced by hoisted instructions and
  /// AvailMarkers (HoistKeyId indexes here).
  std::vector<HoistKey> HoistKeys;

  /// Strength-reduction records: source induction variable V relates to
  /// the strength-reduced temporary as value(V) == value(Temp) / Scale,
  /// maintained as a loop invariant.  Dead-code elimination consults this
  /// to attach affine recovery to the markers of eliminated IV updates
  /// (paper §2.5).
  struct SRRecord {
    VarId V = InvalidVar;
    Value Temp;
    std::int64_t Scale = 1;
  };
  std::vector<SRRecord> SRRecords;

  /// Number of source statements (breakpoints) in this function.
  std::uint32_t NumStmts = 0;

  /// Debug-bookkeeping integrity findings, recomputed by every pipeline
  /// run and carried through instruction selection into the
  /// MachineFunction so the Classifier can degrade the affected
  /// variables.
  std::vector<AnnotationFinding> AnnotationFindings;

  BasicBlock *entry() { return Blocks.front(); }
  const BasicBlock *entry() const { return Blocks.front(); }

  /// Creates a new empty block (appended; layout order = Blocks order).
  BasicBlock *newBlock(const std::string &NameHint) {
    BasicBlock *B = A.make<BasicBlock>(
        &Pool, NextBlockId, NameHint + std::to_string(NextBlockId));
    ++NextBlockId;
    Blocks.push_back(B);
    return B;
  }

  /// Allocates a fresh temporary of type \p Ty.
  Value newTemp(IRType Ty) { return Value::temp(NextTemp++, Ty); }

  /// Interns an assignment-expression key.
  HoistKeyId internHoistKey(const HoistKey &Key) {
    for (HoistKeyId I = 0; I < HoistKeys.size(); ++I)
      if (HoistKeys[I] == Key)
        return I;
    HoistKeys.push_back(Key);
    return static_cast<HoistKeyId>(HoistKeys.size() - 1);
  }

  /// Rebuilds every block's predecessor list from the terminators.
  void recomputePreds();

  /// Returns blocks in reverse post-order from the entry.  Unreachable
  /// blocks are appended at the end in layout order.
  std::vector<BasicBlock *> rpo();

  /// Removes blocks unreachable from the entry.  Returns true if any
  /// block was removed.  Debug markers in removed blocks are dropped:
  /// unreachable code never executes, so it carries no data-value
  /// information (paper §3, "basic block deletion").
  bool removeUnreachable();

  /// Splits the edge \p From -> \p To by inserting a fresh block
  /// containing only a Br.  Returns the new block.
  BasicBlock *splitEdge(BasicBlock *From, BasicBlock *To);
};

/// A compiled module: functions plus the symbol tables from Sema.
///
/// The module owns the arena every function/block/instruction lives in —
/// or borrows one from the caller (batch compilation: one arena reused
/// across modules, reset between them).
class IRModule {
public:
  /// With no argument the module creates and owns its arena; passing
  /// \p Ext makes it compile into the caller's arena instead.  In that
  /// case the module must be destroyed before the arena is reset.
  explicit IRModule(Arena *Ext = nullptr)
      : OwnedArena(Ext ? nullptr : new Arena(1 << 16)),
        A(Ext ? Ext : OwnedArena.get()) {}

  IRModule(const IRModule &) = delete;
  IRModule &operator=(const IRModule &) = delete;

  ~IRModule() {
    for (IRFunction *F : Funcs)
      F->~IRFunction();
  }

  Arena &arena() { return *A; }

  /// Creates a function in this module's arena.
  IRFunction *newFunction(FuncId Id, std::string Name, IRType RetTy) {
    IRFunction *F = A->make<IRFunction>(*A, Id, std::move(Name), RetTy);
    Funcs.push_back(F);
    return F;
  }

  std::unique_ptr<ProgramInfo> Info;
  std::vector<IRFunction *> Funcs; ///< Arena-placed; destroyed by ~IRModule.

  /// Constant initializers for global scalars.
  std::vector<std::pair<VarId, Value>> GlobalInits;

  IRFunction *findFunc(const std::string &Name) {
    for (IRFunction *F : Funcs)
      if (F->Name == Name)
        return F;
    return nullptr;
  }

private:
  std::unique_ptr<Arena> OwnedArena; ///< Null when borrowing.
  Arena *A;
};

//===----------------------------------------------------------------------===//
// InstrPool / InstrList implementation
//===----------------------------------------------------------------------===//
// Lives here (not in InstrStorage.h) because the slot layout needs Instr
// complete.  Everything is inline: these are the hottest paths in the
// compiler (every pass iteration walks them).

struct InstrPool::Slot {
  Instr I;
  InstrId Prev = InvalidInstr;
  InstrId Next = InvalidInstr;
};

inline InstrPool::Slot *InstrPool::slot(InstrId Id) const {
  assert(Id < NumCreated && "bad instruction id");
  return &Slabs[Id >> SlabShift][Id & SlabMask];
}

inline Instr &InstrPool::instr(InstrId Id) { return slot(Id)->I; }
inline const Instr &InstrPool::instr(InstrId Id) const {
  return slot(Id)->I;
}
inline InstrId InstrPool::prevOf(InstrId Id) const { return slot(Id)->Prev; }
inline InstrId InstrPool::nextOf(InstrId Id) const { return slot(Id)->Next; }
inline void InstrPool::setPrev(InstrId Id, InstrId P) { slot(Id)->Prev = P; }
inline void InstrPool::setNext(InstrId Id, InstrId N) { slot(Id)->Next = N; }

inline InstrId InstrPool::alloc(Instr &&I) {
  if (FreeHead != InvalidInstr) {
    InstrId Id = FreeHead;
    Slot *S = slot(Id);
    FreeHead = S->Next;
    --NumFree;
    S->I = std::move(I);
    S->Prev = S->Next = InvalidInstr;
    return Id;
  }
  if ((NumCreated & SlabMask) == 0)
    Slabs.push_back(A.allocate<Slot>(SlabSlots));
  InstrId Id = NumCreated++;
  Slot *S = new (&Slabs[Id >> SlabShift][Id & SlabMask]) Slot();
  S->I = std::move(I);
  return Id;
}

inline void InstrPool::free(InstrId Id) {
  Slot *S = slot(Id);
  // Clear the payload so any heap-spilled operand list is released now;
  // the slot object stays alive for reuse.
  S->I = Instr();
  S->Prev = InvalidInstr;
  S->Next = FreeHead;
  FreeHead = Id;
  ++NumFree;
}

inline InstrPool::~InstrPool() {
  // The arena reclaims the slabs; only non-trivial members of Instr (the
  // operand list when heap-spilled) need destruction.  Freed slots hold
  // empty instructions, so destroying every created slot is safe.
  for (InstrId Id = 0; Id < NumCreated; ++Id)
    slot(Id)->~Slot();
}

inline void InstrList::push_back(Instr I) {
  insertId(InvalidInstr, std::move(I));
}

inline InstrList::iterator InstrList::insert(const_iterator Pos, Instr I) {
  return iterator(P, this, insertId(Pos.id(), std::move(I)));
}

inline InstrId InstrList::insertId(InstrId Before, Instr &&I) {
  assert(P && "instruction list has no pool");
  InstrId Id = P->alloc(std::move(I));
  InstrId Prev = (Before == InvalidInstr) ? Tail : P->prevOf(Before);
  P->setPrev(Id, Prev);
  P->setNext(Id, Before);
  if (Prev != InvalidInstr)
    P->setNext(Prev, Id);
  else
    Head = Id;
  if (Before != InvalidInstr)
    P->setPrev(Before, Id);
  else
    Tail = Id;
  ++Count;
  return Id;
}

inline void InstrList::eraseId(InstrId Id) {
  InstrId Prev = P->prevOf(Id), Next = P->nextOf(Id);
  if (Prev != InvalidInstr)
    P->setNext(Prev, Next);
  else
    Head = Next;
  if (Next != InvalidInstr)
    P->setPrev(Next, Prev);
  else
    Tail = Prev;
  P->free(Id);
  --Count;
}

inline InstrList &InstrList::operator=(const InstrList &RHS) {
  if (this == &RHS)
    return *this;
  clear();
  if (!P)
    P = RHS.P;
  for (const Instr &I : RHS)
    push_back(I);
  return *this;
}

inline void InstrList::splice(const_iterator Pos, InstrList &Other) {
  if (&Other == this || Other.Count == 0)
    return;
  if (!P)
    P = Other.P;
  assert(P == Other.P && "splice across pools");
  InstrId Before = Pos.id();
  InstrId Prev = (Before == InvalidInstr) ? Tail : P->prevOf(Before);
  if (Prev != InvalidInstr)
    P->setNext(Prev, Other.Head);
  else
    Head = Other.Head;
  P->setPrev(Other.Head, Prev);
  P->setNext(Other.Tail, Before);
  if (Before != InvalidInstr)
    P->setPrev(Before, Other.Tail);
  else
    Tail = Other.Tail;
  Count += Other.Count;
  Other.Head = Other.Tail = InvalidInstr;
  Other.Count = 0;
}

} // namespace sldb

#endif // SLDB_IR_IR_H
