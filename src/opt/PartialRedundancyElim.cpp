//===- opt/PartialRedundancyElim.cpp - Assignment-level PRE ----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partial redundancy elimination of whole *assignment expressions*
/// (`V = a op b`), in the Morel-Renvoise bit-vector formulation.  This is
/// the paper's "code hoisting" transformation, the one that creates
/// endangered variables by executing a source assignment prematurely
/// (paper §2.2, Figure 2).
///
/// Bookkeeping (paper §3):
///  * inserted instances are flagged IsHoisted and carry the assignment's
///    hoist key — they generate the debugger's *hoist reach*;
///  * deleted (redundant) occurrences are replaced by AvailMarker pseudo-
///    instructions carrying the same key — they kill the hoist reach.
///
/// Down-safety (the ANTIN term of the placement predicate) gives the
/// invariant the debugger's analysis relies on: every path from a hoisted
/// instance passes a redundant copy of the same key before any kill, so
/// the region of endangerment is bounded (paper §2.3).
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/Dataflow.h"

#include <optional>
#include <tuple>
#include <vector>

using namespace sldb;

namespace {

/// Returns true if \p I is a PRE candidate occurrence and fills \p Key.
/// Candidates are source-level assignments `V = a op b` (or `V = copy a`,
/// `V = -a`, `V = ~a`) where V is a promotable scalar and the operands are
/// constants or scalar variables distinct from V.
bool occurrenceKey(const Instr &I, const ProgramInfo &Info, HoistKey &Key) {
  if (!I.IsSourceAssign || !I.Dest.isVar())
    return false;
  const VarInfo &VI = Info.var(I.Dest.Id);
  if (!VI.isPromotable())
    return false;
  auto OperandOK = [&](const Value &V) {
    if (V.isConst())
      return true;
    if (!V.isVar())
      return false;
    if (V.Id == I.Dest.Id)
      return false;
    return Info.var(V.Id).isScalar();
  };
  if (isBinaryOp(I.Op)) {
    if (I.Op == Opcode::Div || I.Op == Opcode::Rem) {
      // Only hoist potential traps when the divisor is a nonzero
      // constant; down-safety makes other cases legal too, but cmcc (and
      // we) keep faulting instructions anchored.
      if (!(I.Ops[1].isConstInt() && I.Ops[1].IntVal != 0))
        return false;
    }
    if (!OperandOK(I.Ops[0]) || !OperandOK(I.Ops[1]))
      return false;
    Key = {I.Dest.Id, I.Op, I.Ty, I.Ops[0], I.Ops[1]};
    return true;
  }
  if (I.Op == Opcode::Copy || I.Op == Opcode::Neg || I.Op == Opcode::Not) {
    if (!OperandOK(I.Ops[0]))
      return false;
    Key = {I.Dest.Id, I.Op, I.Ty, I.Ops[0], Value::none()};
    return true;
  }
  return false;
}

/// Per-instruction facts the kill predicates consume, computed once per
/// instruction instead of once per (instruction, key) pair — the kill
/// loops below are the quadratic core of the pass.
struct KillFacts {
  unsigned Own = ~0u;       ///< Key id of the occurrence; ~0u if none.
  VarId DestV = InvalidVar; ///< Var destination, if any.
  bool CanClobber = false;  ///< Store/Call: may write through memory.
  bool MayRead = false;     ///< Load/Call/Ret: may read through memory.
  VarId Use0 = InvalidVar, Use1 = InvalidVar; ///< Var operands read.

  bool isOcc() const { return Own != ~0u; }

  /// True when the instruction cannot kill *any* key (\p ForAnt also
  /// counts anticipability's read-kills), letting callers skip the
  /// per-key loop outright.
  bool inert(bool ForAnt) const {
    if (DestV != InvalidVar || CanClobber)
      return false;
    if (ForAnt && (MayRead || Use0 != InvalidVar || Use1 != InvalidVar))
      return false;
    return true;
  }
};

/// Key identity: the strict weak order the pass's keys were always
/// compared under.  Two keys are the same key when neither orders
/// before the other.
bool keyLess(const HoistKey &L, const HoistKey &R) {
  auto ValKey = [](const Value &V) {
    return std::tuple(static_cast<int>(V.K), V.Id, V.IntVal, V.DblVal);
  };
  return std::tuple(L.V, static_cast<int>(L.Op), static_cast<int>(L.Ty),
                    ValKey(L.A), ValKey(L.B)) <
         std::tuple(R.V, static_cast<int>(R.Op), static_cast<int>(R.Ty),
                    ValKey(R.A), ValKey(R.B));
}

bool sameKey(const HoistKey &L, const HoistKey &R) {
  return !keyLess(L, R) && !keyLess(R, L);
}

// Anticipability kills are availability kills plus reads of V — a read
// blocks hoisting the assignment above it (the read would observe the
// premature value at runtime, not merely in the debugger).  KeyIndex
// below enumerates both kinds per instruction.

/// The function's keys in first-occurrence order, each instruction's
/// kill facts by InstrId, and VarId-indexed kill lists.  A plain
/// definition of variable v kills exactly the keys whose value relation
/// mentions v (ByAnyVar); a *read* of v additionally ant-kills the keys
/// whose destination is v (ByDestVar, which also finds a key's id when
/// enumerating).  A store, call, load or return reaches a variable other
/// than by name only if it is address-taken or global, so memory
/// accesses test just the key variables of that kind (MemVars) instead
/// of scanning every key.
class KeyIndex {
public:
  std::vector<HoistKey> Keys;

  KeyIndex(const CFGContext &CFG, const ProgramInfo &Info)
      : Info(Info), ByAnyVar(Info.Vars.size()), ByDestVar(Info.Vars.size()),
        Facts(CFG.function().Pool.idBound()) {
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        const Instr &I = *It;
        KillFacts &F = Facts[It.id()];
        HoistKey K;
        if (occurrenceKey(I, Info, K))
          F.Own = intern(K);
        if (I.Dest.isVar())
          F.DestV = I.Dest.Id;
        F.CanClobber = I.Op == Opcode::Store || I.Op == Opcode::Call;
        F.MayRead = I.Op == Opcode::Load || I.Op == Opcode::Call ||
                    I.Op == Opcode::Ret;
        unsigned Cnt = 0;
        forEachUse(I, [&](const Value &V) {
          if (!V.isVar())
            return;
          if (Cnt == 0)
            F.Use0 = V.Id;
          else
            F.Use1 = V.Id;
          ++Cnt;
        });
      }
    }
  }

  unsigned size() const { return static_cast<unsigned>(Keys.size()); }

  /// Facts of the instruction with pool id \p Id at construction.
  const KillFacts &facts(InstrId Id) const {
    static const KillFacts None;
    return Id < Facts.size() ? Facts[Id] : None;
  }

  /// Keys assigning variable \p V.
  const std::vector<unsigned> &keysOfDest(VarId V) const {
    return ByDestVar[V];
  }

  /// Invokes \p Fn for every key availability-killed by \p I — one that
  /// \p I redefines or clobbers V or an operand of, destroying the
  /// *value* relation "V == a op b" (Fn may fire twice for a key; callers
  /// do idempotent bit clears).  Reads of V do not kill availability.
  /// An occurrence never kills its own key.
  template <typename Fn>
  void forEachAvailKill(const Instr &I, const KillFacts &F,
                        const AliasInfo &AI, Fn &&Callback) const {
    auto Kills = [&](const std::vector<unsigned> &Bucket) {
      for (unsigned KI : Bucket)
        if (KI != F.Own)
          Callback(KI);
    };
    if (F.DestV != InvalidVar)
      Kills(ByAnyVar[F.DestV]);
    if (F.CanClobber)
      for (VarId V : MemVars)
        if (AI.mayClobber(I, V))
          Kills(ByAnyVar[V]);
  }

  /// The kills anticipability adds beyond availability: reads of a key's
  /// destination variable, either through memory or as a direct operand.
  template <typename Fn>
  void forEachAntOnlyKill(const Instr &I, const KillFacts &F,
                          const AliasInfo &AI, Fn &&Callback) const {
    auto UseKills = [&](VarId V) {
      for (unsigned KI : ByDestVar[V])
        if (KI != F.Own)
          Callback(KI);
    };
    if (F.MayRead)
      for (VarId V : MemVars)
        if (AI.mayRead(I, V))
          UseKills(V);
    if (F.Use0 != InvalidVar)
      UseKills(F.Use0);
    if (F.Use1 != InvalidVar && F.Use1 != F.Use0)
      UseKills(F.Use1);
  }

private:
  /// Returns the id of \p K, adding it as a new key if no key so far is
  /// the same.
  unsigned intern(const HoistKey &K) {
    for (unsigned KI : ByDestVar[K.V])
      if (sameKey(Keys[KI], K))
        return KI;
    unsigned KI = size();
    Keys.push_back(K);
    ByDestVar[K.V].push_back(KI);
    addAnyVar(K.V, KI);
    // occurrenceKey guarantees operands differ from the destination.
    if (K.A.isVar())
      addAnyVar(K.A.Id, KI);
    if (K.B.isVar() && !(K.A.isVar() && K.B.Id == K.A.Id))
      addAnyVar(K.B.Id, KI);
    return KI;
  }

  void addAnyVar(VarId V, unsigned KI) {
    if (ByAnyVar[V].empty() && !Info.var(V).isPromotable())
      MemVars.push_back(V);
    ByAnyVar[V].push_back(KI);
  }

  const ProgramInfo &Info;
  std::vector<std::vector<unsigned>> ByAnyVar, ByDestVar;
  std::vector<VarId> MemVars; ///< Address-taken or global key variables.
  std::vector<KillFacts> Facts;
};

/// The keys of the code as it stands, their availability problem
/// (forward, intersect) and its solution AVIN/AVOUT.  The gen set is
/// COMP (occurrences not value-killed later in the block) and the kill
/// set the keys the block does not leave available, both written in
/// place.
struct Availability {
  KeyIndex KX;
  DataflowProblem Problem;
  DataflowResult AV;

  Availability(const CFGContext &CFG, const ProgramInfo &Info,
               const AliasInfo &AI)
      : KX(CFG, Info) {
    if (KX.size() == 0)
      return;
    Problem.Dir = FlowDir::Forward;
    Problem.Meet = FlowMeet::Intersect;
    Problem.init(CFG, KX.size());
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector &Comp = Problem.Gen[B], &Kill = Problem.Kill[B];
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        const KillFacts &KF = KX.facts(It.id());
        if (KF.isOcc())
          Comp.set(KF.Own);
        if (KF.inert(/*ForAnt=*/false))
          continue;
        KX.forEachAvailKill(*It, KF, AI, [&](unsigned KI) {
          Kill.set(KI);
          Comp.reset(KI);
        });
      }
      Kill.subtract(Comp);
    }
    AV = solveDataflow(CFG, Problem);
  }
};

class PartialRedundancyElim : public Pass {
public:
  const char *name() const override {
    return "partial-redundancy-elimination(hoisting)";
  }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    // Both phases rewrite instructions in place (insertions go before
    // existing terminators), so the cached CFG context stays valid
    // across them — the manager shares one build where the pass
    // previously built two.  When hoisting leaves the code alone, the
    // second phase reuses the first one's keys and availability.
    std::optional<Availability> Av;
    bool Changed = runMorelRenvoise(F, M, AM, Av);
    if (Changed)
      Av.reset();
    Changed |= eliminateAvailable(F, M, AM, Av);
    return {Changed ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Changed};
  }

private:
  bool runMorelRenvoise(IRFunction &F, IRModule &M, AnalysisManager &AM,
                        std::optional<Availability> &Av) {
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    AliasInfo &AI = AM.getResult<AliasInfo>(F);
    const unsigned N = CFG.numBlocks();

    // AVIN/AVOUT (forward, intersect) use the weaker value kill.
    Av.emplace(CFG, *M.Info, AI);
    const KeyIndex &KX = Av->KX;
    if (KX.size() == 0)
      return false;
    const unsigned U = KX.size();
    const std::vector<HoistKey> &Keys = KX.Keys;
    const DataflowResult &AV = Av->AV;

    // PAVIN/PAVOUT (forward, union) over the same gen/kill sets; nothing
    // reads the availability problem after this.
    Av->Problem.Meet = FlowMeet::Union;
    DataflowResult PAV = solveDataflow(CFG, Av->Problem);

    // ANTIN/ANTOUT (backward, intersect).  ANTLOC/TRANSP use the
    // anticipability kill (reads of V block hoisting); ANTLOC is the
    // gen set, written in place.
    DataflowProblem AntP;
    AntP.Dir = FlowDir::Backward;
    AntP.Meet = FlowMeet::Intersect;
    AntP.init(CFG, U);
    std::vector<BitVector> Transp(N, BitVector(U, true));
    for (unsigned B = 0; B < N; ++B) {
      BitVector &Antloc = AntP.Gen[B];
      BitVector AntKilledAbove(U);
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        const KillFacts &KF = KX.facts(It.id());
        if (KF.isOcc() && !AntKilledAbove.test(KF.Own))
          Antloc.set(KF.Own);
        if (KF.inert(/*ForAnt=*/true))
          continue;
        // An availability kill is also an anticipability kill.
        auto Kill = [&](unsigned KI) {
          AntKilledAbove.set(KI);
          Transp[B].reset(KI);
        };
        KX.forEachAvailKill(*It, KF, AI, Kill);
        KX.forEachAntOnlyKill(*It, KF, AI, Kill);
      }
      AntP.Kill[B] = Transp[B];
      AntP.Kill[B].flip();
      AntP.Kill[B].subtract(Antloc);
    }
    DataflowResult ANT = solveDataflow(CFG, AntP);
    const std::vector<BitVector> &Antloc = AntP.Gen;

    // Insertion happens at the end of a block but *before* its
    // terminator; if the terminator itself reads a key's destination
    // variable (`condbr x, ...` / `ret x`), placement there is illegal.
    // Folding this into PPOUT keeps the placement system consistent.
    std::vector<BitVector> TermBlocked(N, BitVector(U));
    for (unsigned B = 0; B < N; ++B)
      forEachUse(CFG.block(B)->term(), [&](const Value &UVal) {
        if (UVal.isVar())
          for (unsigned KI : KX.keysOfDest(UVal.Id))
            TermBlocked[B].set(KI);
      });

    // Morel-Renvoise placement-possible system (greatest fixed point).
    std::vector<BitVector> PPIn(N, BitVector(U, true)),
        PPOut(N, BitVector(U, true));
    // Boundary conditions: nothing can be placed before the entry or
    // after an exit.
    PPIn[0] = BitVector(U);
    std::vector<char> IsExit(N, 0);
    for (unsigned E : CFG.exits()) {
      PPOut[E] = BitVector(U);
      IsExit[E] = 1;
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned Step = 0; Step < N; ++Step) {
        unsigned B = N - 1 - Step;
        // PPOUT(B) = AND over succs of PPIN(S); exits stay empty.
        if (!IsExit[B]) {
          BitVector NewOut(U, !CFG.succs(B).empty());
          for (unsigned S : CFG.succs(B))
            NewOut &= PPIn[S];
          NewOut.subtract(TermBlocked[B]);
          if (NewOut != PPOut[B]) {
            PPOut[B] = std::move(NewOut);
            Changed = true;
          }
        }
        if (B == 0)
          continue; // Entry boundary.
        // PPIN(B) = ANTIN & PAVIN & (ANTLOC | (TRANSP & PPOUT))
        //           & AND over preds (PPOUT(P) | AVOUT(P)).
        BitVector NewIn = ANT.In[B];
        NewIn &= PAV.In[B];
        BitVector Local = Transp[B];
        Local &= PPOut[B];
        Local |= Antloc[B];
        NewIn &= Local;
        for (unsigned Pred : CFG.preds(B)) {
          BitVector Term = PPOut[Pred];
          Term |= AV.Out[Pred];
          NewIn &= Term;
        }
        if (NewIn != PPIn[B]) {
          PPIn[B] = std::move(NewIn);
          Changed = true;
        }
      }
    }

    // INSERT(B) = PPOUT & !AVOUT & (!PPIN | !TRANSP).
    // DELETE(B) = ANTLOC & PPIN.
    bool Transformed = false;
    std::vector<StmtId> KeyStmt(U, InvalidStmt);
    std::vector<std::vector<Instr *>> Deletions(U);
    for (unsigned B = 0; B < N; ++B) {
      BitVector Del = Antloc[B];
      Del &= PPIn[B];
      if (Del.none())
        continue;
      BitVector Seen(U);
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        unsigned Id = KX.facts(It.id()).Own;
        if (Id == ~0u || !Del.test(Id) || Seen.test(Id))
          continue;
        Seen.set(Id); // Only the upward-exposed occurrence is deleted.
        Deletions[Id].push_back(&*It);
        if (KeyStmt[Id] == InvalidStmt)
          KeyStmt[Id] = It->Stmt;
      }
    }

    for (unsigned B = 0; B < N; ++B) {
      BitVector Ins = PPOut[B];
      Ins.subtract(AV.Out[B]);
      BitVector NotProfit = PPIn[B];
      NotProfit &= Transp[B];
      Ins.subtract(NotProfit);
      if (Ins.none())
        continue;
      for (unsigned Id : Ins) {
        if (Deletions[Id].empty())
          continue; // No redundancy would be removed; skip insertion.
        const HoistKey &K = Keys[Id];
        Instr Hoisted;
        Hoisted.Op = K.Op;
        Hoisted.Ty = K.Ty;
        Hoisted.Dest = Value::var(K.V, K.Ty);
        Hoisted.Ops = {K.A};
        if (!K.B.isNone())
          Hoisted.Ops.push_back(K.B);
        Hoisted.Stmt = KeyStmt[Id];
        Hoisted.IsSourceAssign = true;
        Hoisted.IsHoisted = true;
        Hoisted.HoistKey = F.internHoistKey(K);
        BasicBlock *BB = CFG.block(B);
        auto Pos = BB->Insts.end();
        --Pos; // Before the terminator.
        BB->Insts.insert(Pos, std::move(Hoisted));
        Transformed = true;
      }
    }

    // Perform deletions (only for keys that had at least one insertion —
    // otherwise the "redundancy" was full redundancy over existing
    // occurrences, which is also safe to delete: the value is available).
    for (unsigned Id = 0; Id < U; ++Id) {
      for (Instr *I : Deletions[Id]) {
        Instr Marker;
        Marker.Op = Opcode::AvailMarker;
        Marker.MarkVar = Keys[Id].V;
        Marker.MarkStmt = I->Stmt;
        Marker.Stmt = I->Stmt;
        Marker.HoistKey = F.internHoistKey(Keys[Id]);
        *I = std::move(Marker);
        Transformed = true;
      }
    }
    return Transformed;
  }

  /// Full-redundancy elimination: an assignment occurrence whose key is
  /// *available* (the variable already holds exactly this value on every
  /// path) is deleted outright — the paper's "E2 deleted because
  /// available" case, which needs no insertion.  Source-position
  /// occurrences leave an AvailMarker; bare hoisted instances vanish.
  bool eliminateAvailable(IRFunction &F, IRModule &M, AnalysisManager &AM,
                          std::optional<Availability> &Av) {
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    AliasInfo &AI = AM.getResult<AliasInfo>(F);
    const ProgramInfo &Info = *M.Info;
    const unsigned N = CFG.numBlocks();

    if (!Av)
      Av.emplace(CFG, Info, AI);
    const KeyIndex &KX = Av->KX;
    if (KX.size() == 0)
      return false;
    const DataflowResult &AV = Av->AV;

    bool Changed = false;
    for (unsigned B = 0; B < N; ++B) {
      BitVector Avail = AV.In[B];
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(); It != BB->Insts.end();) {
        Instr &I = *It;
        const KillFacts &KF = KX.facts(It.id());
        if (KF.isOcc() && Avail.test(KF.Own)) {
          Changed = true;
          if (I.IsHoisted && !I.IsSunk) {
            // A compiler-inserted instance: delete silently (paper §3).
            It = BB->Insts.erase(It);
            continue;
          }
          HoistKey Mine;
          occurrenceKey(I, Info, Mine);
          Instr Marker;
          Marker.Op = Opcode::AvailMarker;
          Marker.MarkVar = Mine.V;
          Marker.MarkStmt = I.Stmt;
          Marker.Stmt = I.Stmt;
          Marker.HoistKey = F.internHoistKey(Mine);
          I = std::move(Marker);
          ++It;
          continue;
        }
        if (KF.isOcc())
          Avail.set(KF.Own);
        if (!KF.inert(/*ForAnt=*/false))
          KX.forEachAvailKill(I, KF, AI,
                              [&](unsigned KI) { Avail.reset(KI); });
        ++It;
      }
    }
    return Changed;
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createPartialRedundancyElimPass() {
  return std::make_unique<PartialRedundancyElim>();
}
