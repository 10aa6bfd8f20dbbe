//===- codegen/RegAlloc.cpp -----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include "codegen/MachineFlow.h"
#include "support/Stats.h"

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

/// Set bits of \p X.  Counted inline: a generic x86-64 build turns
/// std::popcount into a library call.
unsigned popcount64(Word X) {
  X = X - (X >> 1 & 0x5555555555555555);
  X = (X & 0x3333333333333333) + (X >> 2 & 0x3333333333333333);
  X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0f;
  return static_cast<unsigned>(X * 0x0101010101010101 >> 56);
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
      N += popcount64(row(R)[I]);
    return N;
  }

private:
  std::vector<Word> W;
  unsigned Stride = 0;
};

constexpr unsigned NoId = ~0u;

/// One instruction's operands of the class being colored, decoded into
/// dense ids (uses, then defs, in Allocator::Ops).  A move's source is its
/// first use and its destination its first def.
struct DecodedInstr {
  unsigned Begin = 0; ///< First operand in Ops.
  std::uint8_t NumUses = 0;
  std::uint8_t NumDefs = 0;
  bool Move = false;     ///< A move within the class.
  bool MoveEdge = false; ///< Virtual-to-virtual move (coalescable).
};

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
  void build(const std::vector<unsigned> &SlotOf) {
    Start.assign(NumRegSlots + 2, 0);
    Facts.resize(SlotOf.size());
    for (unsigned S : SlotOf)
      ++Start[S + 1];
    for (unsigned S = 1; S < Start.size(); ++S)
      Start[S] += Start[S - 1];
    Fill.assign(Start.begin(), Start.end() - 1);
    for (unsigned I = 0; I < SlotOf.size(); ++I)
      Facts[Fill[SlotOf[I]]++] = I;
  }

  /// Calls \p F for every fact about the register in slot \p S.
  template <typename Fn> void forEach(unsigned S, Fn &&F) const {
    for (unsigned K = Start[S]; K < Start[S + 1]; ++K)
      F(Facts[K]);
  }

private:
  std::vector<unsigned> Start, Facts, Fill;
};

/// The register allocator.  One lives per thread (allocateRegistersE)
/// and allocates one function at a time, so its tables keep the capacity
/// the largest function so far needed: a call allocates only what it
/// stores in the MachineFunction.
class Allocator {
public:
  /// Starts on \p F: pins variable homes and recovery sources, and in one
  /// walk over the code records every def's pre-allocation identity and
  /// decodes the integer class.
  void start(MachineFunction &F);

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
  /// Coloring rounds run, and how many ended in a coalescing restart or
  /// in spill code (the regalloc.* counters).
  unsigned Rounds = 0, CoalesceRounds = 0, SpillRounds = 0;

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
  /// Numbers the class's registers by first appearance and decodes each
  /// instruction's operands of the class into Ops (uses, then defs).  A
  /// class is decoded once, and again after each spill round; coalescing
  /// rewrites the decoded table along with the code.  With \p Setup
  /// (start's decode of the first class) the same walk does the
  /// function's setup.
  void decode(RegClass Cls, bool Setup = false);
  /// Clears the id-table entries of every register numbered.
  void clearIds();
  void livenessPerBlock();
  void buildInterference();
  bool coalesce(RegClass Cls, unsigned K);
  void simplifyAndSelect(RegClass Cls, unsigned K);
  void spill(RegClass Cls);
  void rewrite(RegClass Cls, bool Code = true);

  /// Calls \p F(Field, Id) for each register field of \p I of class
  /// \p Cls, with the id \p D decoded for it: decode lists Src0, Src1
  /// and AddrReg first among the uses, and Dest first among the defs.
  template <typename Fn>
  void forEachField(MInstr &I, const DecodedInstr &D, RegClass Cls, Fn &&F) {
    const unsigned *Op = Ops.data() + D.Begin;
    for (Reg *R : {&I.Src0, &I.Src1, &I.AddrReg})
      if (R->isValid() && R->Cls == Cls)
        F(*R, *Op++);
    if (I.Dest.isValid() && I.Dest.Cls == Cls)
      F(I.Dest, Ops[D.Begin + D.NumUses]);
  }

  /// The id table of \p R's kind (physical registers, selection vregs
  /// and spill temps each have a dense one), and \p R's index in it.
  std::vector<unsigned> &idTable(const Reg &R, std::uint32_t &Index) {
    Index = R.N - (!R.isVirtual()  ? 0
                   : isSpillTemp(R) ? SpillTempBase
                                    : Reg::VirtBase);
    return !R.isVirtual() ? PhysId : isSpillTemp(R) ? TempId : VirtId;
  }
  /// The id-table entry of \p R.  Null outside every table.
  unsigned *idSlot(const Reg &R) {
    std::uint32_t Index;
    std::vector<unsigned> &T = idTable(R, Index);
    return Index < T.size() ? &T[Index] : nullptr;
  }
  /// The dense id of \p R, or NoId when it is not in the graph.
  unsigned idOf(const Reg &R) {
    const unsigned *S = idSlot(R);
    return S ? *S : NoId;
  }
  /// This round's color of \p R, or -1.
  int colorOf(const Reg &R) {
    unsigned Id = idOf(R);
    return Id < ColorOf.size() ? ColorOf[Id] : -1;
  }

  MachineFunction *MF = nullptr;
  std::vector<char> NoCoalesce[2]; ///< Per class, by vreg N - VirtBase.
  std::vector<Reg> PinnedRegs; ///< Variable homes and recovery sources.
  std::uint32_t MaxVirt = 0; ///< Highest virtual register number named.
  /// Per class: a def or use names a virtual register; an in-register
  /// recovery names one.
  bool HasVirtual[2] = {false, false};
  bool HasVirtualRecovery[2] = {false, false};
  std::uint32_t NextSpillTemp = SpillTempBase;

  // The class being colored, decoded once (again after a spill round)
  // and rewritten in place by coalescing.  An id stays its register's
  // through the class's rounds; coalescing clears the table entries of
  // the registers it merges away.
  std::vector<unsigned> PhysId, VirtId, TempId; ///< Register -> dense id.
  std::vector<Reg> RegOf;                       ///< Dense id -> register.
  std::vector<unsigned> BlockStart; ///< Block -> first DecodedInstr.
  std::vector<unsigned> BlockOps;   ///< Block -> first operand in Ops.
  std::vector<DecodedInstr> Decoded;
  std::vector<unsigned> Ops;
  std::vector<Word> OpDef; ///< Per operand: all ones for a def, else 0.

  // Per-round state.
  BitRows Use, Def, LiveIn, LiveOut, Adj;
  std::vector<Word> Live, Scratch, Significant, Colored;
  std::vector<unsigned> Work, Weight, Alias, Degree, Pending, Stack, Spilled;
  std::vector<std::pair<unsigned, unsigned>> MoveEdges;
  std::vector<char> OnWork;
  std::vector<int> ColorOf;
  std::vector<Word> ColorBit; ///< Id -> its color's register bit.
  std::vector<std::int32_t> SlotOf;

  // The debug tables' working storage (computeDebugTables).
  struct Marker {
    std::uint32_t Addr;
    bool IsIV;
    unsigned Pair; ///< Index of its (source vreg, register) pair.
  };
  struct Fact {
    enum Kind : std::uint8_t { Residence, Ownership, Validity } K;
    VarId Var = InvalidVar;   ///< Residence: the variable.
    Reg Src = Reg::invalid(); ///< Ownership: the source vreg ...
    Reg R = Reg::invalid();   ///< ... and the register.
    std::uint32_t Addr = 0;   ///< Validity: the marker.
  };
  /// A def in the final code, with what the debug facts about its
  /// register read of the instruction.
  struct DefSite {
    std::uint32_t Addr;
    unsigned Slot;   ///< regSlot of the defined register.
    bool IsDest;     ///< The defined register is the instruction's Dest.
    VarId DestVar;
    Reg Dest, DestVreg;
  };
  std::vector<int> StmtPrio;
  std::vector<DefSite> Defs;   ///< Ascending addresses.
  std::vector<Marker> Markers; ///< Ascending addresses.
  std::vector<Reg> PairSrc, PairReg;
  std::vector<VarId> RegVars;
  std::vector<Fact> Facts;
  std::vector<unsigned> FactSlot;
  SlotIndex FactsOf;
  std::vector<Decision> Log;
  MachineFlow Flow;
  std::vector<BitVector> At;
};

} // namespace

void Allocator::start(MachineFunction &F) {
  MF = &F;
  RewriteFailed = FrameTooLarge = false;
  Rounds = CoalesceRounds = SpillRounds = 0;
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
  PinnedRegs.clear();
  MaxVirt = 0;
  for (const auto &[V, S] : F.Storage)
    if (S.R.isValid() && S.R.isVirtual()) {
      MaxVirt = std::max(MaxVirt, S.R.N);
      if (S.K == VarStorage::Kind::InReg)
        PinnedRegs.push_back(S.R);
    }
  HasVirtual[0] = HasVirtual[1] = false;
  HasVirtualRecovery[0] = HasVirtualRecovery[1] = false;
  NextSpillTemp = SpillTempBase;
  decode(RegClass::Int, /*Setup=*/true);
  NextSpillTemp = std::max(SpillTempBase, MaxVirt + 1);
  NoCoalesce[0].clear();
  NoCoalesce[1].clear();
  for (const Reg &R : PinnedRegs)
    if (!isSpillTemp(R)) {
      std::vector<char> &Flags = NoCoalesce[R.Cls == RegClass::Fp];
      const std::uint32_t V = R.N - Reg::VirtBase;
      Flags.resize(std::max<std::size_t>(Flags.size(), V + 1));
      Flags[V] = 1;
    }
}

void Allocator::clearIds() {
  for (const Reg &R : RegOf)
    if (unsigned *S = idSlot(R))
      *S = NoId;
  RegOf.clear();
}

void Allocator::decode(RegClass Cls, bool Setup) {
  clearIds();
  TempId.assign(NextSpillTemp - SpillTempBase, NoId);
  BlockStart.clear();
  BlockOps.clear();
  Decoded.clear();
  Ops.clear();
  OpDef.clear();
  Weight.clear();
  // Ids go by first appearance.  No decision depends on them: simplify
  // and spill order go by register number (see simplifyAndSelect).
  auto Id = [&](const Reg &R) {
    std::uint32_t Index;
    std::vector<unsigned> &T = idTable(R, Index);
    if (Index >= T.size())
      T.resize(Index + 1, NoId);
    if (T[Index] == NoId) {
      T[Index] = static_cast<unsigned>(RegOf.size());
      RegOf.push_back(R);
      Weight.push_back(0);
    }
    return T[Index];
  };
  // A register's spill cost is its number of operands (Weight); the
  // coalescer keeps it as it merges registers and deletes moves.  The
  // setup walk also notes which classes name virtual registers and the
  // highest number named.
  auto AddOp = [&](const Reg &R, Word IsDef) {
    if (Setup && R.isVirtual()) {
      HasVirtual[R.Cls == RegClass::Fp] = true;
      MaxVirt = std::max(MaxVirt, R.N);
    }
    if (R.Cls != Cls)
      return false;
    const unsigned K = Id(R);
    Ops.push_back(K);
    OpDef.push_back(IsDef);
    ++Weight[K];
    return true;
  };
  const MOp MoveOp = Cls == RegClass::Int ? MOp::MOV : MOp::FMOV;
  for (MachineBlock &B : MF->Blocks) {
    BlockStart.push_back(static_cast<unsigned>(Decoded.size()));
    BlockOps.push_back(static_cast<unsigned>(Ops.size()));
    for (MInstr &I : B.Insts) {
      if (Setup) {
        // What the function's first walk also records: each def's
        // pre-allocation identity, and the recovery sources.
        if (I.Dest.isValid() && I.Dest.isVirtual())
          I.DestVreg = I.Dest;
        if (I.Recovery.K == MRecovery::Kind::InReg &&
            I.Recovery.R.isVirtual()) {
          MaxVirt = std::max(MaxVirt, I.Recovery.R.N);
          I.Recovery.SrcVreg = I.Recovery.R;
          PinnedRegs.push_back(I.Recovery.R);
          HasVirtualRecovery[I.Recovery.R.Cls == RegClass::Fp] = true;
        }
      }
      DecodedInstr D;
      D.Begin = static_cast<unsigned>(Ops.size());
      forEachMUse(I, [&](const Reg &R) { D.NumUses += AddOp(R, 0); });
      forEachMDef(I, [&](const Reg &R) { D.NumDefs += AddOp(R, ~Word(0)); });
      D.Move = I.Op == MoveOp && I.Dest.isValid() && I.Dest.Cls == Cls &&
               I.Src0.isValid() && I.Src0.Cls == Cls;
      D.MoveEdge = D.Move && I.Dest.isVirtual() && I.Src0.isVirtual();
      Decoded.push_back(D);
    }
  }
  BlockStart.push_back(static_cast<unsigned>(Decoded.size()));
  BlockOps.push_back(static_cast<unsigned>(Ops.size()));
}

void Allocator::livenessPerBlock() {
  const unsigned N = static_cast<unsigned>(MF->Blocks.size());
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  // One walk over the decoded operands: summarize each block as
  // upward-exposed uses and defs, then run the word-parallel fixpoint on
  // the summaries (In = Use ∪ (Out − Def), identical to the
  // per-instruction backward walk it replaces).
  Use.assign(N, NR);
  Def.assign(N, NR);
  // Walking a block's operands backwards meets each instruction's defs
  // before its uses: a def clears the register's use bit and sets its
  // def bit, a use sets its use bit.
  const unsigned NW = Use.words();
  for (unsigned B = 0; B < N; ++B) {
    Word *U = Use.row(B), *Df = Def.row(B);
    for (unsigned J = BlockOps[B + 1]; J-- > BlockOps[B];) {
      const Word Bit = Word(1) << Ops[J] % 64, IsDef = OpDef[J];
      Word &UW = U[Ops[J] / 64];
      UW = (UW & ~(Bit & IsDef)) | (Bit & ~IsDef);
      Df[Ops[J] / 64] |= Bit & IsDef;
    }
  }

  // The least fixpoint, from empty sets: a worklist seeded in reverse
  // block order revisits a block only when a successor's live-in grew.
  LiveIn.assign(N, NR);
  LiveOut.assign(N, NR);
  Scratch.resize(NW);
  Word *In = Scratch.data();
  Work.clear();
  for (unsigned B = 0; B < N; ++B)
    Work.push_back(B);
  OnWork.assign(N, 1);
  while (!Work.empty()) {
    const unsigned B = Work.back();
    Work.pop_back();
    OnWork[B] = 0;
    const MachineBlock &Blk = MF->Blocks[B];
    Word *Out = LiveOut.row(B);
    const Word *U = Use.row(B), *Df = Def.row(B);
    std::fill(Out, Out + NW, 0);
    for (unsigned S : Blk.Succs) {
      const Word *SIn = LiveIn.row(S);
      for (unsigned W = 0; W < NW; ++W)
        Out[W] |= SIn[W];
    }
    Word *BIn = LiveIn.row(B);
    bool Grew = false;
    for (unsigned W = 0; W < NW; ++W) {
      In[W] = (Out[W] & ~Df[W]) | U[W];
      Grew |= In[W] != BIn[W];
    }
    if (!Grew)
      continue;
    std::copy(In, In + NW, BIn);
    for (unsigned P : Blk.Preds)
      if (!OnWork[P]) {
        OnWork[P] = 1;
        Work.push_back(P);
      }
  }
}

void Allocator::buildInterference() {
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  // Dense adjacency bit-matrix.
  Adj.assign(NR, NR);
  MoveEdges.clear();
  const unsigned NW = Adj.words();
  Live.resize(NW);
  Word *L = Live.data(), *Rows = Adj.row(0);
  const DecodedInstr *Dec = Decoded.data();
  const unsigned *AllOps = Ops.data();
  for (unsigned B = 0; B < MF->Blocks.size(); ++B) {
    std::copy(LiveOut.row(B), LiveOut.row(B) + NW, L);
    for (unsigned I = BlockStart[B + 1]; I-- > BlockStart[B];) {
      const DecodedInstr &D = Dec[I];
      const unsigned *Op = AllOps + D.Begin, *Defs = Op + D.NumUses;
      for (unsigned J = 0; J < D.NumDefs; ++J) {
        // The def interferes with everything live across it: OR the live
        // set into the def's row (the reverse edges are mirrored below).
        // A move's destination does not interfere with its source.
        const unsigned DK = Defs[J], Src = Op[0];
        Word *Row = Rows + std::size_t(DK) * NW;
        const bool Spare = D.Move && !(Row[Src / 64] >> Src % 64 & 1);
        for (unsigned W = 0; W < NW; ++W)
          Row[W] |= L[W];
        Row[DK / 64] &= ~(Word(1) << DK % 64);
        if (Spare)
          Row[Src / 64] &= ~(Word(1) << Src % 64);
      }
      for (unsigned J = 0; J < D.NumDefs; ++J)
        L[Defs[J] / 64] &= ~(Word(1) << Defs[J] % 64);
      for (unsigned J = 0; J < D.NumUses; ++J)
        L[Op[J] / 64] |= Word(1) << Op[J] % 64;
      if (D.MoveEdge)
        MoveEdges.emplace_back(Defs[0], Op[0]);
    }
  }
  for (unsigned R = 0; R < NR; ++R)
    forEachBit(Rows + std::size_t(R) * NW, NW, [&](unsigned C) {
      Rows[std::size_t(C) * NW + R / 64] |= Word(1) << R % 64;
    });
  // Coalescing keeps each degree exact through its merges, and
  // simplification starts from them.
  Degree.resize(NR);
  for (unsigned R = 0; R < NR; ++R)
    Degree[R] = Adj.count(R);
}

bool Allocator::coalesce(RegClass Cls, unsigned K) {
  if (MoveEdges.empty())
    return false;
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
  // The nodes of significant degree (K or more neighbors), kept in step
  // with Degree through every merge.
  Significant.assign(NW, 0);
  auto MarkSignificance = [&](unsigned N) {
    const Word Bit = Word(1) << N % 64;
    Significant[N / 64] = Degree[N] >= K ? Significant[N / 64] | Bit
                                         : Significant[N / 64] & ~Bit;
  };
  for (unsigned N = 0; N < NR; ++N)
    MarkSignificance(N);
  bool Coalesced = false;
  for (auto &[A0, B0] : MoveEdges) {
    unsigned A = Find(A0), B = Find(B0);
    if (A == B || Pinned(A) || Pinned(B))
      continue;
    if (Adj.test(A, B))
      continue;
    // Briggs: the merged node must have < K neighbors of significant
    // degree.  A merge moves every edge of the merged-away node to the
    // survivor, so rows name only surviving nodes, and Degree is each
    // one's row count.
    unsigned SignificantNeighbors = 0;
    for (unsigned W = 0; W < NW; ++W)
      SignificantNeighbors +=
          popcount64((Adj.row(A)[W] | Adj.row(B)[W]) & Significant[W]);
    if (SignificantNeighbors >= K)
      continue;
    // Merge B into A.  (A is not adjacent to B, so updating row A while
    // walking row B is safe.)  A neighbor of both loses an edge; one of B
    // only trades B for A, and A gains it.
    forEachBit(Adj.row(B), NW, [&](unsigned N) {
      Adj.reset(N, B);
      if (Adj.test(N, A)) {
        --Degree[N];
        MarkSignificance(N);
      } else {
        Adj.set(N, A);
        Adj.set(A, N);
        ++Degree[A];
      }
    });
    std::fill(Adj.row(B), Adj.row(B) + NW, 0);
    Degree[B] = 0;
    MarkSignificance(A);
    MarkSignificance(B);
    Weight[A] += Weight[B];
    Alias[B] = A;
    Coalesced = true;
  }
  if (!Coalesced)
    return false;

  // Rewrite aliases in the code and in the decoded table, and delete
  // identity moves from both, compacting each block in place; the caller
  // restarts with a clean graph.  Only an instruction whose decoded
  // operands name a merged register has one to rewrite: recovery
  // registers are pinned, so never merged.
  unsigned Read = 0, Kept = 0; // Decoded entries, one per instruction.
  unsigned OpsKept = 0;
  for (unsigned B = 0; B < MF->Blocks.size(); ++B) {
    MachineBlock &Blk = MF->Blocks[B];
    BlockStart[B] = Kept;
    BlockOps[B] = OpsKept;
    std::uint32_t KeptHere = 0;
    for (std::uint32_t Idx = 0; Idx < Blk.Insts.size(); ++Idx, ++Read) {
      MInstr &I = Blk.Insts[Idx];
      DecodedInstr &D = Decoded[Read];
      const unsigned End = D.Begin + D.NumUses + D.NumDefs;
      bool Merged = false;
      for (unsigned J = D.Begin; J < End; ++J)
        if (Alias[Ops[J]] != Ops[J]) {
          Ops[J] = Find(Ops[J]);
          Merged = true;
        }
      if (Merged)
        forEachField(I, D, Cls, [&](Reg &R, unsigned Id) { R = RegOf[Id]; });
      bool IdentityMove = (I.Op == MOp::MOV || I.Op == MOp::FMOV) &&
                          I.Dest == I.Src0 && I.DestVar == InvalidVar &&
                          !I.IsHoisted && !I.IsSunk;
      if (IdentityMove) {
        for (unsigned J = D.Begin; J < End; ++J)
          --Weight[Ops[J]];
        continue;
      }
      if (KeptHere != Idx)
        Blk.Insts[KeptHere] = I;
      ++KeptHere;
      if (OpsKept != D.Begin) {
        std::copy(Ops.begin() + D.Begin, Ops.begin() + End,
                  Ops.begin() + OpsKept);
        std::copy(OpDef.begin() + D.Begin, OpDef.begin() + End,
                  OpDef.begin() + OpsKept);
        D.Begin = OpsKept;
      }
      OpsKept += D.NumUses + D.NumDefs;
      if (Kept != Read)
        Decoded[Kept] = D;
      ++Kept;
    }
    Blk.Insts.resize(KeptHere);
  }
  BlockStart.back() = Kept;
  BlockOps.back() = OpsKept;
  Decoded.resize(Kept);
  Ops.resize(OpsKept);
  OpDef.resize(OpsKept);

  // A register no kept instruction names any more (merged away, or named
  // only by deleted moves) leaves the graph, as a renumbering would drop
  // it: its rows stay empty and its table entry is cleared.  A surviving
  // node's weight is the number of operands naming it and the nodes
  // merged into it, less those of the deleted moves.
  for (unsigned N = 0; N < NR; ++N)
    if (Alias[N] != N || Weight[N] == 0)
      *idSlot(RegOf[N]) = NoId;
  return true;
}

void Allocator::simplifyAndSelect(RegClass Cls, unsigned K) {
  const unsigned NR = static_cast<unsigned>(RegOf.size());
  const unsigned NW = Adj.words();
  Stack.clear();

  // Decision order is by register number, never by dense id: the vreg
  // table and then the spill-temp table, walked in index order, list
  // the graph's virtual nodes in exactly that order.
  Pending.clear();
  const std::size_t VirtEnd =
      std::min<std::size_t>(VirtId.size(), MaxVirt + 1 - Reg::VirtBase);
  for (std::size_t V = 0; V < VirtEnd; ++V)
    if (VirtId[V] != NoId)
      Pending.push_back(VirtId[V]);
  for (unsigned Id : TempId)
    if (Id != NoId)
      Pending.push_back(Id);

  // Only the degrees of pending nodes of significant degree are kept
  // exact: a node of insignificant degree stays so and is removed at its
  // next visit, and a spill candidate is chosen among significant nodes
  // only.  So a removal lowers the degrees of its significant neighbors.
  Significant.assign(NW, 0);
  for (unsigned N : Pending)
    if (Degree[N] >= K)
      Significant[N / 64] |= Word(1) << N % 64;
  auto RemoveNode = [&](unsigned N) {
    Stack.push_back(N);
    Significant[N / 64] &= ~(Word(1) << N % 64);
    const Word *Row = Adj.row(N);
    for (unsigned W = 0; W < NW; ++W) {
      Word X = Row[W] & Significant[W];
      forEachBit(&X, 1, [&](unsigned Bit) {
        if (--Degree[W * 64 + Bit] < K)
          Significant[W] &= ~(Word(1) << Bit);
      });
    }
  };

  // Each sweep visits the pending nodes in order and removes every one
  // of insignificant degree at its visit; a sweep that removes none
  // removes the first cheapest candidate instead.
  while (!Pending.empty()) {
    unsigned Kept = 0;
    for (unsigned N : Pending)
      if (Degree[N] < K)
        RemoveNode(N);
      else
        Pending[Kept++] = N;
    if (Kept < Pending.size()) {
      Pending.resize(Kept);
      continue;
    }
    // Optimistic spill candidate: cheapest weight/degree.
    unsigned Best = 0;
    double BestCost = 1e300;
    for (unsigned I = 0; I < Pending.size(); ++I) {
      const unsigned N = Pending[I];
      double Cost = static_cast<double>(Weight[N]) / (Degree[N] + 1.0);
      // Never re-spill a spill temp (tiny range, huge cost): spilling
      // it only mints another temp for the same use or def.
      if (isSpillTemp(RegOf[N]))
        Cost = 1e290;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = I;
      }
    }
    RemoveNode(Pending[Best]);
    Pending.erase(Pending.begin() + Best);
  }

  // Select the lowest free color among those no colored neighbor has.
  // Physical register numbers fit in a 64-bit mask; a node's bit is its
  // color's, or for a precolored node its register's.
  const std::uint64_t Colors = ((1ull << K) - 1) << firstColor(Cls);
  ColorOf.assign(NR, -1);
  ColorBit.resize(NR);
  Colored.assign(NW, 0);
  for (unsigned N = 0; N < NR; ++N)
    if (!RegOf[N].isVirtual()) {
      ColorBit[N] = 1ull << RegOf[N].N;
      Colored[N / 64] |= Word(1) << N % 64;
    }
  Spilled.clear();
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    unsigned N = *It;
    std::uint64_t Used = 0;
    const Word *Row = Adj.row(N);
    for (unsigned W = 0; W < NW; ++W) {
      Word X = Row[W] & Colored[W];
      forEachBit(&X, 1,
                 [&](unsigned Bit) { Used |= ColorBit[W * 64 + Bit]; });
    }
    if (std::uint64_t Free = Colors & ~Used) {
      ColorOf[N] = std::countr_zero(Free);
      ColorBit[N] = 1ull << ColorOf[N];
      Colored[N / 64] |= Word(1) << N % 64;
    } else {
      Spilled.push_back(N);
    }
  }
}

bool Allocator::allocateClass(RegClass Cls) {
  const bool Fp = Cls == RegClass::Fp;
  if (!HasVirtual[Fp]) {
    // No virtual register of this class in the code: a full round would
    // color, coalesce and spill nothing, then rewrite with no colors —
    // which only drops the class's in-register recoveries and
    // unmaterialized register homes.
    clearIds();
    TempId.clear();
    ColorOf.clear();
    rewrite(Cls, /*Code=*/HasVirtualRecovery[Fp]);
    return true;
  }
  const unsigned K = numColors(Cls);
  if (Fp) // start() decoded the integer class.
    decode(Cls);
  for (int Round = 0; Round < 24; ++Round) {
    ++Rounds;
    livenessPerBlock();
    buildInterference();
    if (coalesce(Cls, K)) {
      ++CoalesceRounds;
      continue; // Next round rebuilds liveness and the graph.
    }
    simplifyAndSelect(Cls, K);
    if (Spilled.empty()) {
      rewrite(Cls);
      return true;
    }
    if (MF->FrameSize + std::uint64_t(Spilled.size()) >
        MachineFunction::MaxFrameWords) {
      FrameTooLarge = true;
      return false;
    }
    ++SpillRounds;
    spill(Cls);
    decode(Cls); // The spill code names fresh temps.
  }
  return false;
}

void Allocator::spill(RegClass Cls) {
  // Assign spill slots, in select order.
  SlotOf.assign(RegOf.size(), -1);
  for (unsigned N : Spilled)
    SlotOf[N] = static_cast<std::int32_t>(MF->FrameSize++);
  // Temps minted below lie past the end of this round's tables, so they
  // never look spilled.
  auto SpillSlotOf = [&](const Reg &R) -> std::int32_t {
    if (!R.isValid() || R.Cls != Cls || !R.isVirtual())
      return -1;
    unsigned Id = idOf(R);
    return Id == NoId ? -1 : SlotOf[Id];
  };
  for (MachineBlock &B : MF->Blocks)
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
  for (auto &[V, S] : MF->Storage)
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
/// round's colors.  The code's operands are read through the decoded
/// table, which the last round left aligned with the code; with no
/// virtual register of the class there is none to rewrite.
void Allocator::rewrite(RegClass Cls, bool Code) {
  auto Fix = [&](Reg &R, unsigned Id) {
    if (!R.isVirtual())
      return;
    int C = Id < ColorOf.size() ? ColorOf[Id] : -1;
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
  const bool Operands = HasVirtual[Cls == RegClass::Fp];
  const DecodedInstr *D = Decoded.data();
  if (Code)
    for (MachineBlock &B : MF->Blocks)
      for (MInstr &I : B.Insts) {
        if (Operands && D->NumUses + D->NumDefs != 0) {
          // Spill/reload code minted after construction has no recorded
          // identity yet; everything else keeps its pre-coalesce vreg.
          if (I.Dest.isValid() && I.Dest.Cls == Cls && I.Dest.isVirtual() &&
              !I.DestVreg.isValid())
            I.DestVreg = I.Dest;
          forEachField(I, *D, Cls, Fix);
        }
        D += Operands;
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
  for (auto &[V, S] : MF->Storage)
    if (S.K == VarStorage::Kind::InReg && S.R.isVirtual() &&
        S.R.Cls == Cls) {
      int C = colorOf(S.R);
      if (C >= 0)
        S.R = Reg::phys(Cls, static_cast<std::uint32_t>(C));
      else
        S.K = VarStorage::Kind::None; // Var never materialized.
    }
}

void Allocator::computeDebugTables() {
  MachineFunction &F = *MF;
  // One walk lays out the code (assigns addresses), fills the statement
  // map and lists the markers whose recovery value lives in a register
  // and every def of a physical register.
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
  F.BlockAddr.clear();
  F.BlockAddr.reserve(F.Blocks.size());
  F.StmtAddr.assign(F.NumStmts, -1);
  StmtPrio.assign(F.NumStmts, 99);
  Defs.clear();
  Markers.clear();
  PairSrc.clear();
  PairReg.clear();
  std::uint32_t Addr = 0;
  for (MachineBlock &B : F.Blocks) {
    F.BlockAddr.push_back(Addr);
    for (MInstr &I : B.Insts) {
      if (I.Stmt != InvalidStmt && I.Stmt < F.NumStmts) {
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
          F.StmtAddr[I.Stmt] = static_cast<std::int32_t>(Addr);
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
      forEachMDef(I, [&](const Reg &D) {
        if (unsigned S = regSlot(D); S != NumRegSlots)
          Defs.push_back({Addr, S, D == I.Dest, I.DestVar, I.Dest, I.DestVreg});
      });
      ++Addr;
    }
  }
  const std::uint32_t Total = Addr;

  RegVars.clear();
  for (const auto &[V, S] : F.Storage)
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
  Facts.clear();
  FactSlot.clear();
  auto AddFact = [&](const Fact &X, const Reg &R) {
    Facts.push_back(X);
    FactSlot.push_back(regSlot(R));
  };
  // Facts are numbered variables, then pairs, then plain markers.
  for (VarId V : RegVars)
    AddFact({Fact::Residence, V}, F.Storage.at(V).R);
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

  // Each def decides the facts about its register; at a plain marker's
  // address, after that address's defs, the marker gens its fact.
  FactsOf.build(FactSlot);
  Log.clear();
  unsigned NextPlain = FirstPlain; // Plain markers are in address order.
  auto GenBefore = [&](std::uint32_t End) {
    for (; NextPlain < Facts.size() && Facts[NextPlain].Addr < End;
         ++NextPlain)
      Log.push_back({Facts[NextPlain].Addr, NextPlain, true});
  };
  for (const DefSite &D : Defs) {
    GenBefore(D.Addr);
    FactsOf.forEach(D.Slot, [&](unsigned X) {
      const Fact &FX = Facts[X];
      if (FX.K == Fact::Residence)
        Log.push_back({D.Addr, X, D.DestVar == FX.Var && D.IsDest});
      else if (FX.K == Fact::Ownership)
        Log.push_back({D.Addr, X, D.DestVreg == FX.Src && D.Dest == FX.R});
      else if (FX.Addr != D.Addr) // The marker itself gens after its defs.
        Log.push_back({D.Addr, X, false});
    });
  }
  GenBefore(Total);
  Flow.assign(F, static_cast<unsigned>(Facts.size()), Log,
              FlowMeet::Intersect);
  Flow.expand(At);

  for (unsigned Idx = 0; Idx < RegVars.size(); ++Idx)
    F.ResidentAt[RegVars[Idx]] = std::move(At[Idx]);
  unsigned Plain = FirstPlain;
  for (const Marker &M : Markers) {
    const BitVector &Owned = At[FirstPair + M.Pair];
    if (M.IsIV)
      F.RecoveryValidAt[M.Addr] = Owned;
    else if (Owned.test(M.Addr))
      F.RecoveryValidAt[M.Addr] = std::move(At[Plain++]);
    else {
      F.RecoveryValidAt[M.Addr] = BitVector(Total);
      ++Plain;
    }
  }
}

Status sldb::allocateRegistersE(MachineFunction &MF, const ProgramInfo &) {
  static StatCounter &Functions = Stats::counter("regalloc.functions");
  static StatCounter &Rounds = Stats::counter("regalloc.rounds");
  static StatCounter &CoalesceRounds =
      Stats::counter("regalloc.coalesce_rounds");
  static StatCounter &SpillRounds = Stats::counter("regalloc.spill_rounds");
  thread_local Allocator A;
  A.start(MF);
  const bool Ok = A.run();
  Functions.add();
  if (A.Rounds)
    Rounds.add(A.Rounds);
  if (A.CoalesceRounds)
    CoalesceRounds.add(A.CoalesceRounds);
  if (A.SpillRounds)
    SpillRounds.add(A.SpillRounds);
  if (!Ok) {
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
