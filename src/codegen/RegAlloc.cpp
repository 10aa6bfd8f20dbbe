//===- codegen/RegAlloc.cpp -----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include "codegen/MachineFlow.h"

#include <algorithm>
#include <bit>

using namespace sldb;

namespace {

/// Visits the registers read by \p I (including implicit uses).
template <typename Fn> void forEachMUse(const MInstr &I, Fn &&F) {
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
template <typename Fn> void forEachMDef(const MInstr &I, Fn &&F) {
  if (I.Dest.isValid())
    F(I.Dest);
  if (I.Op == MOp::JAL) {
    F(Reg::phys(RegClass::Int, R3K::IntRetReg));
    F(Reg::phys(RegClass::Fp, R3K::FpRetReg));
  }
}

using Word = std::uint64_t;

/// Calls \p F with the index of every set bit of the \p NW words at \p P,
/// in ascending order.  Each word is read once, before its bits are
/// visited.
template <typename Fn> void forEachBit(const Word *P, unsigned NW, Fn &&F) {
  for (unsigned I = 0; I < NW; ++I)
    for (Word X = P[I]; X != 0; X &= X - 1)
      F(I * 64 + static_cast<unsigned>(std::countr_zero(X)));
}

/// Equal-width bit rows in one flat word buffer.  assign() keeps the
/// buffer's capacity, so a matrix rebuilt every round reuses its storage.
class BitRows {
public:
  /// Makes \p Rows empty rows of \p Bits bits.
  void assign(unsigned Rows, unsigned Bits) {
    Stride = (Bits + 63) / 64;
    W.assign(static_cast<std::size_t>(Rows) * Stride, 0);
  }
  unsigned words() const { return Stride; }
  Word *row(unsigned R) { return W.data() + std::size_t(R) * Stride; }
  const Word *row(unsigned R) const {
    return W.data() + std::size_t(R) * Stride;
  }
  bool test(unsigned R, unsigned B) const {
    return row(R)[B / 64] >> B % 64 & 1;
  }
  void set(unsigned R, unsigned B) { row(R)[B / 64] |= Word(1) << B % 64; }
  void reset(unsigned R, unsigned B) {
    row(R)[B / 64] &= ~(Word(1) << B % 64);
  }
  unsigned count(unsigned R) const {
    unsigned N = 0;
    for (unsigned I = 0; I < Stride; ++I)
      N += static_cast<unsigned>(std::popcount(row(R)[I]));
    return N;
  }

private:
  std::vector<Word> W;
  unsigned Stride = 0;
};

constexpr unsigned NoId = ~0u;

/// One instruction's operands of the class being colored, decoded once
/// per round into dense ids (defs, then uses, in Allocator::Ops).
struct DecodedInstr {
  unsigned Begin = 0; ///< First operand in Ops.
  std::uint8_t NumDefs = 0;
  std::uint8_t NumUses = 0;
  unsigned MoveDst = NoId; ///< A move of this class: destination id.
  unsigned MoveSrc = NoId; ///< A move of this class: source id.
  bool MoveEdge = false;   ///< Virtual-to-virtual move (coalescable).
};

/// Register allocator state for one function.
class Allocator {
public:
  explicit Allocator(MachineFunction &MF);

  /// Runs allocation for both classes; returns false if it failed to
  /// converge (should not happen).
  bool run() {
    return allocateClass(RegClass::Int) && allocateClass(RegClass::Fp);
  }

  /// Lays out the code, then fills the statement map and the residence
  /// and recovery-validity tables from the final code.  Valid after run().
  void computeDebugTables();

  /// Set when rewrite() met a virtual register the coloring never saw;
  /// the function's code is unusable and the caller must discard it.
  bool RewriteFailed = false;
  /// Set when spill slots would grow the frame past MaxFrameWords.
  bool FrameTooLarge = false;

private:
  static unsigned numColors(RegClass Cls) {
    return Cls == RegClass::Int
               ? R3K::LastAllocInt - R3K::FirstAllocInt + 1
               : R3K::LastAllocFp - R3K::FirstAllocFp + 1;
  }
  static unsigned firstColor(RegClass Cls) {
    return Cls == RegClass::Int ? R3K::FirstAllocInt : R3K::FirstAllocFp;
  }

  /// Spill temps are numbered above every instruction-selection vreg,
  /// from one counter per function: a temp minted in a later spill round
  /// must not reuse the number of an earlier round's temp that is still
  /// in the code.
  static constexpr std::uint32_t SpillTempBase = 1u << 20;
  static bool isSpillTemp(const Reg &R) { return R.N >= SpillTempBase; }

  bool allocateClass(RegClass Cls);
  void number(RegClass Cls);
  void livenessPerBlock();
  void buildInterference();
  bool coalesce(RegClass Cls, unsigned K);
  void simplifyAndSelect(RegClass Cls, unsigned K);
  void spill(RegClass Cls);
  void rewrite(RegClass Cls, bool Code = true);

  /// The id-table entry of \p R: physical registers, selection vregs and
  /// spill temps each have a dense table.  Null outside every table.
  unsigned *idSlot(const Reg &R) {
    std::vector<unsigned> &T = !R.isVirtual()  ? PhysId
                               : isSpillTemp(R) ? TempId
                                                : VirtId;
    std::uint32_t Base = !R.isVirtual()  ? 0
                         : isSpillTemp(R) ? SpillTempBase
                                          : Reg::VirtBase;
    return R.N - Base < T.size() ? &T[R.N - Base] : nullptr;
  }
  /// This round's dense id of \p R, or NoId when it is not in the graph.
  unsigned idOf(const Reg &R) {
    const unsigned *S = idSlot(R);
    return S ? *S : NoId;
  }
  /// This round's color of \p R, or -1.
  int colorOf(const Reg &R) {
    unsigned Id = idOf(R);
    return Id < ColorOf.size() ? ColorOf[Id] : -1;
  }

  MachineFunction &MF;
  std::vector<char> NoCoalesce[2]; ///< Per class, by vreg N - VirtBase.
  /// Per class: a def or use names a virtual register; an in-register
  /// recovery names one.
  bool HasVirtual[2] = {false, false};
  bool HasVirtualRecovery[2] = {false, false};
  std::uint32_t NextSpillTemp = SpillTempBase;

  // Per-round state, reused across rounds and classes.
  std::vector<unsigned> PhysId, VirtId, TempId; ///< Register -> dense id.
  std::vector<Reg> RegOf;                       ///< Dense id -> register.
  std::vector<unsigned> BlockStart; ///< Block -> first DecodedInstr.
  std::vector<DecodedInstr> Decoded;
  std::vector<unsigned> Ops;
  BitRows Use, Def, LiveIn, LiveOut, Adj;
  std::vector<Word> Live, Scratch;
  std::vector<unsigned> Weight, Alias, Degree, Virtuals, Stack, Spilled;
  std::vector<std::pair<unsigned, unsigned>> MoveEdges;
  std::vector<char> Removed;
  std::vector<int> ColorOf;
};

} // namespace

Allocator::Allocator(MachineFunction &MF) : MF(MF) {
  // Variable-homing vregs must not coalesce: their live range *is* the
  // debugger's residence information.  Recovery-source vregs must not
  // coalesce either.  Coalescing rewrites move-related vregs in the code
  // itself, so once a marker's recovery source merges with a sibling
  // value, a def of the merged register is indistinguishable from a def
  // of the source and the ownership analysis (computeDebugTables)
  // certifies the recovery while the register holds the sibling's value
  // — the fuzzer found a marker recovering another branch's constant this
  // way.  Keeping the source un-merged makes "def of the source's value"
  // exactly "def whose pre-rewrite destination is the source vreg"; every
  // other value colored into the register kills ownership.
  std::vector<Reg> Pinned;
  for (const auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg)
      Pinned.push_back(S.R);
  // One walk also sizes the id tables to every register the code names.
  std::uint32_t MaxPhys = 0, MaxVirt = 0;
  auto See = [&](const Reg &R) {
    if (!R.isValid())
      return;
    std::uint32_t &Max = R.isVirtual() ? MaxVirt : MaxPhys;
    Max = std::max(Max, R.N);
  };
  for (MachineBlock &B : MF.Blocks)
    for (MInstr &I : B.Insts) {
      for (const Reg *R : {&I.Dest, &I.Src0, &I.Src1, &I.AddrReg}) {
        See(*R);
        if (R->isValid() && R->isVirtual())
          HasVirtual[R->Cls == RegClass::Fp] = true;
      }
      if (I.Dest.isValid() && I.Dest.isVirtual())
        I.DestVreg = I.Dest;
      if (I.Recovery.K == MRecovery::Kind::InReg &&
          I.Recovery.R.isVirtual()) {
        See(I.Recovery.R);
        I.Recovery.SrcVreg = I.Recovery.R;
        Pinned.push_back(I.Recovery.R);
        HasVirtualRecovery[I.Recovery.R.Cls == RegClass::Fp] = true;
      }
    }
  for (const auto &[V, S] : MF.Storage)
    See(S.R);
  PhysId.resize(std::max({R3K::NumIntRegs, R3K::NumFpRegs, MaxPhys + 1}));
  VirtId.resize(std::clamp(MaxVirt + 1, Reg::VirtBase, SpillTempBase) -
                Reg::VirtBase);
  NextSpillTemp = std::max(SpillTempBase, MaxVirt + 1);
  for (const Reg &R : Pinned)
    if (R.isVirtual() && !isSpillTemp(R)) {
      std::vector<char> &Flags = NoCoalesce[R.Cls == RegClass::Fp];
      Flags.resize(VirtId.size());
      Flags[R.N - Reg::VirtBase] = 1;
    }
}

void Allocator::number(RegClass Cls) {
  std::fill(PhysId.begin(), PhysId.end(), NoId);
  std::fill(VirtId.begin(), VirtId.end(), NoId);
  TempId.assign(NextSpillTemp - SpillTempBase, NoId);
  RegOf.clear();
  BlockStart.clear();
  Decoded.clear();
  Ops.clear();
  // Ids go by first appearance.  No decision depends on them: simplify
  // and spill order go by register number (see simplifyAndSelect).
  auto Id = [&](const Reg &R) {
    unsigned &S = *idSlot(R);
    if (S == NoId) {
      S = static_cast<unsigned>(RegOf.size());
      RegOf.push_back(R);
    }
    return S;
  };
  const MOp MoveOp = Cls == RegClass::Int ? MOp::MOV : MOp::FMOV;
  for (const MachineBlock &B : MF.Blocks) {
    BlockStart.push_back(static_cast<unsigned>(Decoded.size()));
    for (const MInstr &I : B.Insts) {
      DecodedInstr D;
      D.Begin = static_cast<unsigned>(Ops.size());
      forEachMDef(I, [&](const Reg &R) {
        if (R.Cls == Cls) {
          Ops.push_back(Id(R));
          ++D.NumDefs;
        }
      });
      forEachMUse(I, [&](const Reg &R) {
        if (R.Cls == Cls) {
          Ops.push_back(Id(R));
          ++D.NumUses;
        }
      });
      if (I.Op == MoveOp) {
        if (I.Dest.isValid() && I.Dest.Cls == Cls)
          D.MoveDst = Id(I.Dest);
        if (I.Src0.isValid() && I.Src0.Cls == Cls)
          D.MoveSrc = Id(I.Src0);
        D.MoveEdge = D.MoveDst != NoId && D.MoveSrc != NoId &&
                     I.Dest.isVirtual() && I.Src0.isVirtual();
      }
      Decoded.push_back(D);
    }
  }
  BlockStart.push_back(static_cast<unsigned>(Decoded.size()));
}

void Allocator::livenessPerBlock() {
  const unsigned N = static_cast<unsigned>(MF.Blocks.size());
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  // One walk over the decoded operands: summarize each block as
  // upward-exposed uses and defs, then run the word-parallel fixpoint on
  // the summaries (In = Use ∪ (Out − Def), identical to the
  // per-instruction backward walk it replaces).
  Use.assign(N, NR);
  Def.assign(N, NR);
  for (unsigned B = 0; B < N; ++B)
    for (unsigned I = BlockStart[B + 1]; I-- > BlockStart[B];) {
      const DecodedInstr &D = Decoded[I];
      const unsigned *Op = Ops.data() + D.Begin;
      for (unsigned J = 0; J < D.NumDefs; ++J) {
        Use.reset(B, Op[J]);
        Def.set(B, Op[J]);
      }
      for (unsigned J = D.NumDefs; J < D.NumDefs + D.NumUses; ++J)
        Use.set(B, Op[J]);
    }

  LiveIn.assign(N, NR);
  LiveOut.assign(N, NR);
  const unsigned NW = LiveIn.words();
  Live.resize(NW);
  Scratch.resize(NW);
  Word *Out = Live.data(), *In = Scratch.data();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Step = 0; Step < N; ++Step) {
      unsigned B = N - 1 - Step;
      std::fill(Out, Out + NW, 0);
      for (unsigned S : MF.Blocks[B].Succs)
        for (unsigned W = 0; W < NW; ++W)
          Out[W] |= LiveIn.row(S)[W];
      for (unsigned W = 0; W < NW; ++W)
        In[W] = (Out[W] & ~Def.row(B)[W]) | Use.row(B)[W];
      if (!std::equal(In, In + NW, LiveIn.row(B)) ||
          !std::equal(Out, Out + NW, LiveOut.row(B))) {
        std::copy(In, In + NW, LiveIn.row(B));
        std::copy(Out, Out + NW, LiveOut.row(B));
        Changed = true;
      }
    }
  }
}

void Allocator::buildInterference() {
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  // Dense adjacency bit-matrix; spill cost = number of occurrences.
  Adj.assign(NR, NR);
  Weight.assign(NR, 0);
  MoveEdges.clear();
  const unsigned NW = Adj.words();
  Live.resize(NW);
  for (unsigned B = 0; B < MF.Blocks.size(); ++B) {
    std::copy(LiveOut.row(B), LiveOut.row(B) + NW, Live.data());
    for (unsigned I = BlockStart[B + 1]; I-- > BlockStart[B];) {
      const DecodedInstr &D = Decoded[I];
      const unsigned *Op = Ops.data() + D.Begin;
      for (unsigned J = 0; J < D.NumDefs; ++J) {
        // The def interferes with everything live across it: OR the live
        // set into the def's row (the reverse edges are mirrored below).
        // A move's destination does not interfere with its source.
        const unsigned DK = Op[J];
        ++Weight[DK];
        const bool Spare = DK == D.MoveDst && D.MoveSrc != NoId &&
                           !Adj.test(DK, D.MoveSrc);
        Word *Row = Adj.row(DK);
        for (unsigned W = 0; W < NW; ++W)
          Row[W] |= Live[W];
        Adj.reset(DK, DK);
        if (Spare)
          Adj.reset(DK, D.MoveSrc);
      }
      for (unsigned J = 0; J < D.NumDefs; ++J)
        Live[Op[J] / 64] &= ~(Word(1) << Op[J] % 64);
      for (unsigned J = D.NumDefs; J < D.NumDefs + D.NumUses; ++J) {
        ++Weight[Op[J]];
        Live[Op[J] / 64] |= Word(1) << Op[J] % 64;
      }
      if (D.MoveEdge)
        MoveEdges.emplace_back(D.MoveDst, D.MoveSrc);
    }
  }
  for (unsigned R = 0; R < NR; ++R)
    forEachBit(Adj.row(R), NW, [&](unsigned C) { Adj.set(C, R); });
}

bool Allocator::coalesce(RegClass Cls, unsigned K) {
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  const unsigned NW = Adj.words();
  // --- Briggs conservative coalescing.
  Alias.resize(NR);
  for (unsigned N = 0; N < NR; ++N)
    Alias[N] = N;
  auto Find = [&](unsigned X) {
    while (Alias[X] != X)
      X = Alias[X];
    return X;
  };
  const std::vector<char> &NoCo = NoCoalesce[Cls == RegClass::Fp];
  auto Pinned = [&](unsigned N) {
    std::uint32_t V = RegOf[N].N - Reg::VirtBase;
    return RegOf[N].isVirtual() && V < NoCo.size() && NoCo[V];
  };
  bool Coalesced = false;
  for (auto &[A0, B0] : MoveEdges) {
    unsigned A = Find(A0), B = Find(B0);
    if (A == B || Pinned(A) || Pinned(B))
      continue;
    if (Adj.test(A, B))
      continue;
    // Briggs: the merged node must have < K neighbors of significant
    // degree.
    unsigned Significant = 0;
    for (unsigned W = 0; W < NW; ++W) {
      Word Union = Adj.row(A)[W] | Adj.row(B)[W];
      forEachBit(&Union, 1, [&](unsigned Bit) {
        if (Adj.count(Find(W * 64 + Bit)) >= K)
          ++Significant;
      });
    }
    if (Significant >= K)
      continue;
    // Merge B into A.  (A is not adjacent to B, so updating row A while
    // walking row B is safe.)
    forEachBit(Adj.row(B), NW, [&](unsigned N) {
      Adj.reset(N, B);
      if (N != A) {
        Adj.set(N, A);
        Adj.set(A, N);
      }
    });
    std::fill(Adj.row(B), Adj.row(B) + NW, 0);
    Weight[A] += Weight[B];
    Alias[B] = A;
    Coalesced = true;
  }
  if (!Coalesced)
    return false;

  // Rewrite aliases in the code and delete identity moves, compacting
  // each block in place; the caller restarts with a clean graph.
  auto Fix = [&](Reg &R) {
    if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
      return;
    unsigned Id = idOf(R);
    if (Id != NoId) // Else not in the graph (e.g. dead recovery source).
      R = RegOf[Find(Id)];
  };
  for (MachineBlock &Blk : MF.Blocks) {
    std::uint32_t Kept = 0;
    for (std::uint32_t Idx = 0; Idx < Blk.Insts.size(); ++Idx) {
      MInstr &I = Blk.Insts[Idx];
      Fix(I.Dest);
      Fix(I.Src0);
      Fix(I.Src1);
      Fix(I.AddrReg);
      if (I.Recovery.K == MRecovery::Kind::InReg)
        Fix(I.Recovery.R);
      bool IdentityMove = (I.Op == MOp::MOV || I.Op == MOp::FMOV) &&
                          I.Dest == I.Src0 && I.DestVar == InvalidVar &&
                          !I.IsHoisted && !I.IsSunk;
      if (IdentityMove)
        continue;
      if (Kept != Idx)
        Blk.Insts[Kept] = I;
      ++Kept;
    }
    Blk.Insts.resize(Kept);
  }
  return true;
}

void Allocator::simplifyAndSelect(RegClass Cls, unsigned K) {
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  const unsigned NW = Adj.words();
  Degree.resize(NR);
  for (unsigned N = 0; N < NR; ++N)
    Degree[N] = Adj.count(N);
  Stack.clear();
  Removed.assign(NR, 0);

  // Decision order is by register number, never by dense id: the vreg
  // table and then the spill-temp table, walked in index order, list
  // this round's virtual nodes in exactly that order.
  Virtuals.clear();
  for (const std::vector<unsigned> *T : {&VirtId, &TempId})
    for (unsigned Id : *T)
      if (Id != NoId)
        Virtuals.push_back(Id);

  auto RemoveNode = [&](unsigned N) {
    Stack.push_back(N);
    Removed[N] = 1;
    forEachBit(Adj.row(N), NW, [&](unsigned M) {
      if (!Removed[M] && Degree[M] > 0)
        --Degree[M];
    });
  };

  unsigned Pending = static_cast<unsigned>(Virtuals.size());
  while (Pending > 0) {
    bool Simplified = false;
    for (unsigned N : Virtuals) {
      if (Removed[N] || Degree[N] >= K)
        continue;
      RemoveNode(N);
      --Pending;
      Simplified = true;
    }
    if (Simplified)
      continue;
    // Optimistic spill candidate: cheapest weight/degree.
    unsigned Best = ~0u;
    double BestCost = 1e300;
    for (unsigned N : Virtuals) {
      if (Removed[N])
        continue;
      double Cost = static_cast<double>(Weight[N]) / (Degree[N] + 1.0);
      // Never re-spill a spill temp (tiny range, huge cost): spilling
      // it only mints another temp for the same use or def.
      if (isSpillTemp(RegOf[N]))
        Cost = 1e290;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = N;
      }
    }
    RemoveNode(Best);
    --Pending;
  }

  // Select the lowest free color.  Physical register numbers fit in a
  // 64-bit mask.
  const std::uint64_t Colors = ((1ull << K) - 1) << firstColor(Cls);
  ColorOf.assign(NR, -1);
  Spilled.clear();
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    unsigned N = *It;
    std::uint64_t Used = 0;
    forEachBit(Adj.row(N), NW, [&](unsigned M) {
      if (ColorOf[M] >= 0)
        Used |= 1ull << ColorOf[M];
      else if (!RegOf[M].isVirtual())
        Used |= 1ull << RegOf[M].N; // Precolored.
    });
    if (std::uint64_t Free = Colors & ~Used)
      ColorOf[N] = std::countr_zero(Free);
    else
      Spilled.push_back(N);
  }
}

bool Allocator::allocateClass(RegClass Cls) {
  const bool Fp = Cls == RegClass::Fp;
  if (!HasVirtual[Fp]) {
    // No virtual register of this class in the code: a full round would
    // color, coalesce and spill nothing, then rewrite with no colors —
    // which only drops the class's in-register recoveries and
    // unmaterialized register homes.
    std::fill(PhysId.begin(), PhysId.end(), NoId);
    std::fill(VirtId.begin(), VirtId.end(), NoId);
    TempId.clear();
    ColorOf.clear();
    rewrite(Cls, /*Code=*/HasVirtualRecovery[Fp]);
    return true;
  }
  const unsigned K = numColors(Cls);
  for (int Round = 0; Round < 24; ++Round) {
    number(Cls);
    livenessPerBlock();
    buildInterference();
    if (coalesce(Cls, K))
      continue; // Next round rebuilds liveness and the graph.
    simplifyAndSelect(Cls, K);
    if (Spilled.empty()) {
      rewrite(Cls);
      return true;
    }
    if (MF.FrameSize + std::uint64_t(Spilled.size()) >
        MachineFunction::MaxFrameWords) {
      FrameTooLarge = true;
      return false;
    }
    spill(Cls);
  }
  return false;
}

void Allocator::spill(RegClass Cls) {
  // Assign spill slots, in select order.
  std::vector<std::int32_t> SlotOf(RegOf.size(), -1);
  for (unsigned N : Spilled)
    SlotOf[N] = static_cast<std::int32_t>(MF.FrameSize++);
  // Temps minted below lie past the end of this round's tables, so they
  // never look spilled.
  auto SpillSlotOf = [&](const Reg &R) -> std::int32_t {
    if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
      return -1;
    unsigned Id = idOf(R);
    return Id == NoId ? -1 : SlotOf[Id];
  };
  for (MachineBlock &B : MF.Blocks)
    for (std::size_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      // Reloads before uses.  Re-reference after each insertion: the
      // instruction vector reallocates.
      for (Reg MInstr::*Field :
           {&MInstr::Src0, &MInstr::Src1, &MInstr::AddrReg}) {
        std::int32_t Slot = SpillSlotOf(B.Insts[Idx].*Field);
        if (Slot < 0)
          continue;
        Reg Fresh = Reg::virt(Cls, NextSpillTemp++ - Reg::VirtBase);
        MInstr Load;
        Load.Op = Cls == RegClass::Fp ? MOp::LD : MOp::LW;
        Load.Dest = Fresh;
        Load.FrameSlot = Slot;
        Load.Stmt = B.Insts[Idx].Stmt;
        B.Insts.insert(B.Insts.begin() + static_cast<std::ptrdiff_t>(Idx),
                       std::move(Load));
        ++Idx;
        B.Insts[Idx].*Field = Fresh;
      }
      // Marker recovery values held in a spilled register now live in the
      // spill slot.
      MInstr &I = B.Insts[Idx];
      if (I.Recovery.K == MRecovery::Kind::InReg) {
        std::int32_t Slot = SpillSlotOf(I.Recovery.R);
        if (Slot >= 0) {
          I.Recovery.K = MRecovery::Kind::InFrame;
          I.Recovery.Frame = Slot;
          I.Recovery.R = Reg::invalid();
        }
      }
      // Stores after defs.
      std::int32_t DefSlot = SpillSlotOf(B.Insts[Idx].Dest);
      if (DefSlot >= 0) {
        Reg Fresh = Reg::virt(Cls, NextSpillTemp++ - Reg::VirtBase);
        B.Insts[Idx].Dest = Fresh;
        MInstr Store;
        Store.Op = Cls == RegClass::Fp ? MOp::SD : MOp::SW;
        Store.Src0 = Fresh;
        Store.FrameSlot = DefSlot;
        Store.Stmt = B.Insts[Idx].Stmt;
        B.Insts.insert(B.Insts.begin() + static_cast<std::ptrdiff_t>(Idx) +
                           1,
                       std::move(Store));
        ++Idx;
      }
    }

  // If a *variable-homing* vreg was spilled, the variable now lives in
  // its spill slot (always resident after init).
  for (auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg) {
      std::int32_t Slot = SpillSlotOf(S.R);
      if (Slot >= 0) {
        S.K = VarStorage::Kind::Frame;
        S.Frame = Slot;
      }
    }
}

/// Rewrites the class's virtual registers in the code (unless \p Code is
/// false: nothing there to rewrite) and in the storage table to this
/// round's colors.
void Allocator::rewrite(RegClass Cls, bool Code) {
  auto Fix = [&](Reg &R) {
    if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
      return;
    int C = colorOf(R);
    if (C < 0) {
      // A vreg the coloring never saw: flag the failure and substitute an
      // in-range register so downstream passes stay memory-safe while the
      // caller discards the function.
      RewriteFailed = true;
      R = Reg::phys(Cls, firstColor(Cls));
      return;
    }
    R = Reg::phys(Cls, static_cast<std::uint32_t>(C));
  };
  if (Code)
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts) {
        // Spill/reload code minted after construction has no recorded
        // identity yet; everything else keeps its pre-coalesce vreg.
        if (I.Dest.isValid() && I.Dest.Cls == Cls && I.Dest.isVirtual() &&
            !I.DestVreg.isValid())
          I.DestVreg = I.Dest;
        Fix(I.Dest);
        Fix(I.Src0);
        Fix(I.Src1);
        Fix(I.AddrReg);
        if (I.Recovery.K == MRecovery::Kind::InReg &&
            I.Recovery.R.Cls == Cls && I.Recovery.R.isVirtual()) {
          // A recovery value referenced only by the marker may have died
          // entirely (no node in the graph): the value is gone and the
          // expected value cannot be reconstructed (paper §2.5 only
          // recovers values that survive somewhere).
          int C = colorOf(I.Recovery.R);
          if (C >= 0) {
            if (!I.Recovery.SrcVreg.isValid())
              I.Recovery.SrcVreg = I.Recovery.R;
            I.Recovery.R = Reg::phys(Cls, static_cast<std::uint32_t>(C));
          } else {
            I.Recovery = MRecovery();
          }
        }
      }
  // Storage table.
  for (auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg && S.R.isVirtual() &&
        S.R.Cls == Cls) {
      int C = colorOf(S.R);
      if (C >= 0)
        S.R = Reg::phys(Cls, static_cast<std::uint32_t>(C));
      else
        S.K = VarStorage::Kind::None; // Var never materialized.
    }
}

namespace {

/// Physical registers of both classes in one dense range: integer
/// registers, then FP registers.
constexpr unsigned NumRegSlots = R3K::NumIntRegs + R3K::NumFpRegs;

/// Dense slot of physical register \p R, or NumRegSlots when \p R is not
/// one.  After allocation every def, and every register a debug table
/// tracks, is physical.
unsigned regSlot(const Reg &R) {
  if (!R.isValid() || R.isVirtual())
    return NumRegSlots;
  if (R.Cls == RegClass::Int)
    return R.N < R3K::NumIntRegs ? R.N : NumRegSlots;
  return R.N < R3K::NumFpRegs ? R3K::NumIntRegs + R.N : NumRegSlots;
}

/// Facts grouped by physical-register slot (compressed rows), so a def
/// visits only the facts about its own register.
class SlotIndex {
public:
  /// Fact I is about the register in slot SlotOf[I].
  explicit SlotIndex(const std::vector<unsigned> &SlotOf)
      : Start(NumRegSlots + 2, 0), Facts(SlotOf.size()) {
    for (unsigned S : SlotOf)
      ++Start[S + 1];
    for (unsigned S = 1; S < Start.size(); ++S)
      Start[S] += Start[S - 1];
    std::vector<unsigned> Fill(Start.begin(), Start.end() - 1);
    for (unsigned I = 0; I < SlotOf.size(); ++I)
      Facts[Fill[SlotOf[I]]++] = I;
  }

  /// Calls \p F for every fact about physical register \p R.
  template <typename Fn> void forEach(const Reg &R, Fn &&F) const {
    unsigned S = regSlot(R);
    if (S == NumRegSlots)
      return;
    for (unsigned K = Start[S]; K < Start[S + 1]; ++K)
      F(Facts[K]);
  }

private:
  std::vector<unsigned> Start, Facts;
};

} // namespace

void Allocator::computeDebugTables() {
  // One walk lays out the code (assigns addresses), fills the statement
  // map and lists the markers whose recovery value lives in a register.
  //
  // Statement (syntactic breakpoint) addresses.  Preference order keeps
  // the breakpoint at the statement's *source* position even when code
  // moved (paper §5: the simple syntactic breakpoint model):
  //   1. the lowest-address instruction of the statement that was not
  //      itself hoisted or sunk — the statement's first surviving action
  //      (a call of `v = f(...)` whose dead store was eliminated must
  //      still anchor the stop *before* the call executes),
  //   2. a debug marker of the statement (the spot where an eliminated or
  //      moved assignment used to be) when nothing real survives,
  //   3. any instruction of the statement.
  MF.BlockAddr.clear();
  MF.StmtAddr.assign(MF.NumStmts, -1);
  std::vector<int> StmtPrio(MF.NumStmts, 99);
  struct Marker {
    std::uint32_t Addr;
    bool IsIV;
    unsigned Pair; ///< Index of its (source vreg, register) pair.
  };
  std::vector<Marker> Markers; // Ascending addresses.
  std::vector<Reg> PairSrc, PairReg;
  std::uint32_t Addr = 0;
  for (MachineBlock &B : MF.Blocks) {
    MF.BlockAddr.push_back(Addr);
    for (MInstr &I : B.Insts) {
      if (I.Stmt != InvalidStmt && I.Stmt < MF.NumStmts) {
        // Hoisted/sunk copies never define the syntactic position: if a
        // statement survives only as moved copies, it has no breakpoint
        // (it was optimized away from its source location).
        int Prio = 99;
        if (I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL)
          Prio = 1;
        else if (!I.IsHoisted && !I.IsSunk && I.Op != MOp::J)
          Prio = 0; // Jumps stay at 99: structural glue, never an anchor.
        if (Prio < StmtPrio[I.Stmt]) {
          StmtPrio[I.Stmt] = Prio;
          MF.StmtAddr[I.Stmt] = static_cast<std::int32_t>(Addr);
        }
      }
      if (I.Op == MOp::MDEAD && I.Recovery.K == MRecovery::Kind::InReg) {
        const Reg Src = I.Recovery.SrcVreg, R = I.Recovery.R;
        unsigned P = 0;
        while (P < PairSrc.size() && !(PairSrc[P] == Src && PairReg[P] == R))
          ++P;
        if (P == PairSrc.size()) {
          PairSrc.push_back(Src);
          PairReg.push_back(R);
        }
        Markers.push_back({Addr, I.Recovery.IsIV, P});
      }
      ++Addr;
    }
  }
  const std::uint32_t Total = Addr;

  std::vector<VarId> RegVars;
  for (const auto &[V, S] : MF.Storage)
    if (S.K == VarStorage::Kind::InReg)
      RegVars.push_back(V);
  if (RegVars.empty() && Markers.empty())
    return;
  std::sort(RegVars.begin(), RegVars.end());

  // The debug tables are one forward all-paths ("must") problem over the
  // final code.  Its facts never interact — an instruction sets, resets
  // or keeps each bit regardless of the others — so one solve computes
  // them all, and each bit equals the 1-bit solve of its fact alone.
  // Every fact is about one physical register, and only defs of that
  // register decide it:
  //  * residence of a register-homed variable V: every def of V's
  //    register reaching the address completes an assignment to V
  //    (DestVar == V).  Sound, and conservative at joins exactly like the
  //    live-range model of [3];
  //  * ownership of a recovery register by a recovery source, one fact
  //    per distinct (source vreg, register) pair: every reaching def of
  //    the register is a def of the source (its pre-rewrite destination
  //    is the source vreg);
  //  * validity of a plain recovery marker: on every path from the
  //    function entry the marker has been passed and its register has
  //    not been redefined since (a redefinition either changes the
  //    source's value, altering the expected value, or recycles the
  //    register for another value).  Gen at the marker, kill at any def
  //    of the register.
  // A recovery from a register is valid only while the register holds
  // the source's value.  An IV-invariant recovery (paper §2.5 strength
  // reduction) survives updates *of the source itself* but dies when
  // another value takes the register: its validity is its pair's
  // ownership.  A plain recovery is valid per its validity fact if the
  // source owns the register at the marker, and nowhere otherwise.
  struct Fact {
    enum Kind : std::uint8_t { Residence, Ownership, Validity } K;
    VarId Var = InvalidVar;   ///< Residence: the variable.
    Reg Src = Reg::invalid(); ///< Ownership: the source vreg ...
    Reg R = Reg::invalid();   ///< ... and the register.
    std::uint32_t Addr = 0;   ///< Validity: the marker.
  };
  std::vector<Fact> Facts;
  std::vector<unsigned> FactSlot;
  auto AddFact = [&](const Fact &F, const Reg &R) {
    Facts.push_back(F);
    FactSlot.push_back(regSlot(R));
  };
  // Facts are numbered variables, then pairs, then plain markers.
  for (VarId V : RegVars)
    AddFact({Fact::Residence, V}, MF.Storage.at(V).R);
  const unsigned FirstPair = static_cast<unsigned>(Facts.size());
  for (unsigned P = 0; P < PairSrc.size(); ++P)
    AddFact({Fact::Ownership, InvalidVar, PairSrc[P], PairReg[P]},
            PairReg[P]);
  const unsigned FirstPlain = static_cast<unsigned>(Facts.size());
  for (const Marker &M : Markers)
    if (!M.IsIV)
      AddFact({Fact::Validity, InvalidVar, Reg::invalid(), Reg::invalid(),
               M.Addr},
              PairReg[M.Pair]);

  // Each def decides the facts about its register.
  const SlotIndex FactsOf(FactSlot);
  std::vector<Decision> Log;
  unsigned NextPlain = FirstPlain; // Plain markers are in address order.
  Addr = 0;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      forEachMDef(I, [&](const Reg &D) {
        FactsOf.forEach(D, [&](unsigned F) {
          const Fact &X = Facts[F];
          if (X.K == Fact::Residence)
            Log.push_back({Addr, F, I.DestVar == X.Var && D == I.Dest});
          else if (X.K == Fact::Ownership)
            Log.push_back({Addr, F, I.DestVreg == X.Src && I.Dest == X.R});
          else if (X.Addr != Addr) // The marker itself gens, below.
            Log.push_back({Addr, F, false});
        });
      });
      if (NextPlain < Facts.size() && Facts[NextPlain].Addr == Addr)
        Log.push_back({Addr, NextPlain++, true});
      ++Addr;
    }
  std::vector<BitVector> At =
      MachineFlow(MF, static_cast<unsigned>(Facts.size()), std::move(Log),
                  FlowMeet::Intersect)
          .expand();

  for (unsigned Idx = 0; Idx < RegVars.size(); ++Idx)
    MF.ResidentAt[RegVars[Idx]] = std::move(At[Idx]);
  unsigned Plain = FirstPlain;
  for (const Marker &M : Markers) {
    const BitVector &Owned = At[FirstPair + M.Pair];
    if (M.IsIV)
      MF.RecoveryValidAt[M.Addr] = Owned;
    else if (Owned.test(M.Addr))
      MF.RecoveryValidAt[M.Addr] = std::move(At[Plain++]);
    else {
      MF.RecoveryValidAt[M.Addr] = BitVector(Total);
      ++Plain;
    }
  }
}

Status sldb::allocateRegistersE(MachineFunction &MF, const ProgramInfo &) {
  Allocator A(MF);
  if (!A.run()) {
    if (A.FrameTooLarge)
      return Status::error(ErrorCode::ResourceExhausted,
                           "spill slots grow the frame of '" + MF.Name +
                               "' past " +
                               std::to_string(MachineFunction::MaxFrameWords) +
                               " words");
    return Status::error(ErrorCode::RegAllocFailure,
                         "register allocation failed to converge on '" +
                             MF.Name + "'");
  }
  if (A.RewriteFailed)
    return Status::error(ErrorCode::RegAllocFailure,
                         "uncolored virtual register in '" + MF.Name + "'");
  A.computeDebugTables();
  return Status::success();
}
