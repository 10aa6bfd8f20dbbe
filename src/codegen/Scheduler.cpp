//===- codegen/Scheduler.cpp ----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/Scheduler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

using namespace sldb;

unsigned sldb::instrLatency(MOp Op) {
  switch (Op) {
  case MOp::LW:
  case MOp::LD:
    return 2;
  case MOp::MUL:
    return 3;
  case MOp::DIV:
  case MOp::REM:
  case MOp::FDIV:
    return 8;
  case MOp::FADD:
  case MOp::FSUB:
    return 2;
  case MOp::FMUL:
    return 4;
  case MOp::CVTID:
  case MOp::CVTDI:
    return 2;
  default:
    return 1;
  }
}

namespace {

bool hasMemoryEffect(const MInstr &I) {
  switch (I.Op) {
  case MOp::SW:
  case MOp::SD:
  case MOp::JAL:
  case MOp::PRINTI:
  case MOp::PRINTD:
    return true;
  default:
    return false;
  }
}

bool readsMemory(const MInstr &I) {
  switch (I.Op) {
  case MOp::LW:
  case MOp::LD:
  case MOp::JAL:
    return true;
  default:
    return false;
  }
}

/// List scheduler for the regions of one function; the scratch arrays are
/// reused from region to region.
class RegionScheduler {
public:
  /// Schedules the \p N instructions at \p Region (no markers, calls or
  /// terminators inside) in place.
  void schedule(MInstr *Region, unsigned N);

private:
  /// One instruction of the region.  A region holds no JAL or RET, so an
  /// instruction writes at most one register and reads at most three;
  /// NoReg fills the unused places.
  static constexpr std::uint64_t NoReg = ~0ull;
  struct Node {
    std::uint64_t Def = NoReg;
    std::uint64_t Use[3] = {NoReg, NoReg, NoReg};
    bool Effect = false; ///< Store, call or print.
    bool Reads = false;  ///< Load (or call).
    unsigned Latency = 0;
    unsigned PredCount = 0; ///< Predecessors not yet issued.
    unsigned Height = 0;    ///< Critical path to the region's end.
    unsigned ReadyAt = 0;   ///< First cycle its operands are ready.
  };
  static std::uint64_t key(const Reg &R) {
    return R.isValid() ? std::uint64_t(R.Cls) << 32 | R.N : NoReg;
  }
  static bool dependent(const Node &A, const Node &B);

  /// Calls \p F for every successor of node \p I, in ascending order.
  template <typename Fn> void forEachSucc(unsigned I, Fn &&F) const {
    const std::uint64_t *Row = Succ.data() + std::size_t(I) * Words;
    for (unsigned W = 0; W < Words; ++W)
      for (std::uint64_t X = Row[W]; X != 0; X &= X - 1)
        F(W * 64 + static_cast<unsigned>(std::countr_zero(X)));
  }

  std::vector<Node> Nodes;
  std::vector<std::uint64_t> Succ; ///< N rows of Words words: the DAG.
  unsigned Words = 0;
  std::vector<unsigned> Ready, Order;
  std::vector<char> Moved;
};

/// Whether \p B (later) must stay after \p A: a register RAW, WAW or WAR
/// conflict, or effect ordering — side effects stay ordered, and loads
/// order against effects but not against each other.
bool RegionScheduler::dependent(const Node &A, const Node &B) {
  if ((A.Effect && (B.Effect || B.Reads)) || (A.Reads && B.Effect))
    return true;
  bool Dep = false;
  if (A.Def != NoReg)
    Dep |= A.Def == B.Def || A.Def == B.Use[0] || A.Def == B.Use[1] ||
           A.Def == B.Use[2];
  if (B.Def != NoReg)
    Dep |= A.Use[0] == B.Def || A.Use[1] == B.Def || A.Use[2] == B.Def;
  return Dep;
}

void RegionScheduler::schedule(MInstr *Region, unsigned N) {
  Nodes.assign(N, Node());
  for (unsigned I = 0; I < N; ++I) {
    const MInstr &MI = Region[I];
    Node &O = Nodes[I];
    O.Def = key(MI.Dest);
    O.Use[0] = key(MI.Src0);
    O.Use[1] = key(MI.Src1);
    O.Use[2] = key(MI.AddrReg);
    O.Effect = hasMemoryEffect(MI);
    O.Reads = readsMemory(MI);
    O.Latency = instrLatency(MI.Op);
  }

  // Dependence DAG as a successor bit matrix: an edge I -> J for every
  // I < J that J depends on.
  Words = (N + 63) / 64;
  Succ.assign(std::size_t(N) * Words, 0);
  for (unsigned J = 1; J < N; ++J)
    for (unsigned I = 0; I < J; ++I)
      if (dependent(Nodes[I], Nodes[J])) {
        Succ[std::size_t(I) * Words + J / 64] |= 1ull << J % 64;
        ++Nodes[J].PredCount;
      }

  // Critical-path heights.
  for (unsigned I = N; I-- > 0;) {
    unsigned H = Nodes[I].Latency;
    forEachSucc(I, [&](unsigned S) {
      H = std::max(H, Nodes[I].Latency + Nodes[S].Height);
    });
    Nodes[I].Height = H;
  }

  // Cycle-driven list scheduling: each cycle issues, among the
  // instructions whose predecessors have all issued and whose operands
  // are ready, the one of greatest height — the earliest one on ties.
  // When none is ready, time advances to the first cycle one is.
  Order.clear();
  Ready.clear(); // Unissued instructions with every predecessor issued.
  for (unsigned I = 0; I < N; ++I)
    if (Nodes[I].PredCount == 0)
      Ready.push_back(I);
  unsigned Cycle = 0;
  while (!Ready.empty()) {
    unsigned Pick = ~0u, NextCycle = ~0u;
    for (unsigned K = 0; K < Ready.size(); ++K) {
      const Node &C = Nodes[Ready[K]];
      if (C.ReadyAt > Cycle) {
        NextCycle = std::min(NextCycle, C.ReadyAt);
        continue;
      }
      if (Pick == ~0u || C.Height > Nodes[Ready[Pick]].Height ||
          (C.Height == Nodes[Ready[Pick]].Height && Ready[K] < Ready[Pick]))
        Pick = K;
    }
    if (Pick == ~0u) {
      Cycle = NextCycle;
      continue;
    }
    unsigned Best = Ready[Pick];
    Ready[Pick] = Ready.back();
    Ready.pop_back();
    Order.push_back(Best);
    unsigned Finish = Cycle + Nodes[Best].Latency;
    forEachSucc(Best, [&](unsigned S) {
      Nodes[S].ReadyAt = std::max(Nodes[S].ReadyAt, Finish);
      if (--Nodes[S].PredCount == 0)
        Ready.push_back(S);
    });
    ++Cycle;
  }

  // Permute in place, cycle by cycle: slot K takes the instruction at
  // Order[K], so each moved instruction is copied once.
  Moved.assign(N, 0);
  for (unsigned Start = 0; Start < N; ++Start) {
    if (Moved[Start] || Order[Start] == Start)
      continue;
    MInstr Held = Region[Start];
    unsigned K = Start;
    for (;;) {
      Moved[K] = 1;
      unsigned From = Order[K];
      if (From == Start) {
        Region[K] = Held;
        break;
      }
      Region[K] = Region[From];
      K = From;
    }
  }
}

} // namespace

void sldb::scheduleFunction(MachineFunction &MF) {
  RegionScheduler Sched;
  for (MachineBlock &B : MF.Blocks) {
    // Barriers keep markers, branches and calls anchored; each run of
    // instructions between two barriers is scheduled where it stands.
    std::uint32_t Begin = 0;
    for (std::uint32_t I = 0; I <= B.Insts.size(); ++I) {
      if (I < B.Insts.size()) {
        const MInstr &MI = B.Insts[I];
        if (!MI.isMarker() && !MI.isTerminatorLike() && MI.Op != MOp::JAL)
          continue;
      }
      if (I - Begin >= 2)
        Sched.schedule(B.Insts.data() + Begin, I - Begin);
      Begin = I + 1;
    }
  }
}
