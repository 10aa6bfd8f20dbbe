//===- opt/GlobalCSE.cpp - Common subexpression elimination ----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global common-subexpression elimination over available expressions.
/// When `x = a op b` is redundant, the providing computations are rewritten
/// to save their value in a shared temporary (`t = a op b; x = copy t`) and
/// the redundant occurrence becomes `y = copy t`.  The source assignment
/// survives as the copy (keeping its annotations); if propagation later
/// kills the copy, dead-code elimination records `t` as the *recovery*
/// value on the marker — reproducing the paper's Figure 4 chain where a
/// variable's value is reconstructed from the CSE temporary (§2.5).
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "analysis/Dataflow.h"

#include <map>
#include <vector>

using namespace sldb;

namespace {

/// Lexical expression key: opcode over constant/variable operands.
struct ExprKey {
  Opcode Op;
  IRType Ty;
  Value A, B; ///< B.isNone() for unary.

  bool operator<(const ExprKey &RHS) const {
    auto Tuple = [](const ExprKey &K) {
      auto ValKey = [](const Value &V) {
        return std::tuple(static_cast<int>(V.K), V.Id, V.IntVal,
                          V.DblVal);
      };
      return std::tuple(static_cast<int>(K.Op), static_cast<int>(K.Ty),
                        ValKey(K.A), ValKey(K.B));
    };
    return Tuple(*this) < Tuple(RHS);
  }
};

/// Returns true and fills \p Key if \p I computes a CSE-able expression.
bool exprKeyOf(const Instr &I, ExprKey &Key) {
  auto OperandOK = [](const Value &V) { return V.isConst() || V.isVar(); };
  if (isBinaryOp(I.Op)) {
    if (!OperandOK(I.Ops[0]) || !OperandOK(I.Ops[1]))
      return false;
    if (I.Op == Opcode::Div || I.Op == Opcode::Rem) {
      // Never re-order potential traps; only CSE with constant nonzero
      // divisor.
      if (!(I.Ops[1].isConstInt() && I.Ops[1].IntVal != 0))
        return false;
    }
    Key = {I.Op, I.Ty, I.Ops[0], I.Ops[1]};
    return true;
  }
  if (I.Op == Opcode::Neg || I.Op == Opcode::Not ||
      I.Op == Opcode::CastItoD || I.Op == Opcode::CastDtoI) {
    if (!OperandOK(I.Ops[0]))
      return false;
    Key = {I.Op, I.Ty, I.Ops[0], Value::none()};
    return true;
  }
  return false;
}

class GlobalCSE : public Pass {
public:
  const char *name() const override { return "redundancy-elimination(cse)"; }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    AliasInfo &AI = AM.getResult<AliasInfo>(F);

    // Enumerate expression keys, naming each instruction's key once.
    std::map<ExprKey, unsigned> KeyIds;
    std::vector<ExprKey> Keys;
    std::vector<unsigned> KeyOfInstr(F.Pool.idBound(), ~0u);
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        ExprKey K;
        if (!exprKeyOf(*It, K))
          continue;
        auto [Pos, New] =
            KeyIds.try_emplace(K, static_cast<unsigned>(Keys.size()));
        if (New)
          Keys.push_back(K);
        KeyOfInstr[It.id()] = Pos->second;
      }
    }
    if (Keys.empty())
      return PassResult::unchanged();
    auto KeyOf = [&](InstrId Id) {
      return Id < KeyOfInstr.size() ? KeyOfInstr[Id] : ~0u;
    };

    // Keys by operand variable: a definition of v, or a store or call
    // that may clobber v, kills exactly the keys reading v.  Only
    // address-taken scalars and globals can be clobbered, so memory
    // writers test just the operand variables of that kind.
    std::vector<std::vector<unsigned>> KeysByVar(M.Info->Vars.size());
    std::vector<VarId> MemoryOperands;
    auto AddOperand = [&](VarId V, unsigned KI) {
      if (KeysByVar[V].empty() && !M.Info->var(V).isPromotable())
        MemoryOperands.push_back(V);
      KeysByVar[V].push_back(KI);
    };
    for (unsigned KI = 0; KI < Keys.size(); ++KI) {
      const ExprKey &K = Keys[KI];
      if (K.A.isVar())
        AddOperand(K.A.Id, KI);
      if (K.B.isVar() && !(K.A.isVar() && K.B.Id == K.A.Id))
        AddOperand(K.B.Id, KI);
    }
    auto ForEachKilled = [&](const Instr &I, auto &&Fn) {
      if (I.Dest.isVar())
        for (unsigned KI : KeysByVar[I.Dest.Id])
          Fn(KI);
      if (I.Op == Opcode::Store || I.Op == Opcode::Call)
        for (VarId V : MemoryOperands)
          if (AI.mayClobber(I, V))
            for (unsigned KI : KeysByVar[V])
              Fn(KI);
    };

    // Available expressions (forward, intersect).
    DataflowProblem P;
    P.Dir = FlowDir::Forward;
    P.Meet = FlowMeet::Intersect;
    P.init(CFG, static_cast<unsigned>(Keys.size()));
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector &Gen = P.Gen[B];
      BitVector &Kill = P.Kill[B];
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        // The computation reads its operands before the destination is
        // written: gen first, then apply kills (which may revoke the gen,
        // e.g. `x = x + 1` does not leave `x + 1` available).
        unsigned Id = KeyOf(It.id());
        if (Id != ~0u) {
          Gen.set(Id);
          Kill.reset(Id);
        }
        ForEachKilled(*It, [&](unsigned KI) {
          Gen.reset(KI);
          Kill.set(KI);
        });
      }
    }
    DataflowResult AV = solveDataflow(CFG, P);

    // Find redundant occurrences: Key available on entry to the
    // instruction.
    std::vector<bool> NeedsProvider(Keys.size(), false);
    std::vector<std::pair<Instr *, unsigned>> Redundant;
    std::vector<char> IsRedundant(KeyOfInstr.size(), 0);
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector Avail = AV.In[B];
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        unsigned Id = KeyOf(It.id());
        if (Id != ~0u) {
          if (Avail.test(Id)) {
            Redundant.emplace_back(&*It, Id);
            IsRedundant[It.id()] = 1;
            NeedsProvider[Id] = true;
          }
          Avail.set(Id);
        }
        ForEachKilled(*It, [&](unsigned KI) { Avail.reset(KI); });
      }
    }
    if (Redundant.empty())
      return PassResult::unchanged();

    // Allocate one shared temp per needed key and rewrite the providers:
    // every non-redundant computation `X = e` with NeedsProvider becomes
    // `t = e; X = copy t`.
    std::vector<Value> KeyTemp(Keys.size());
    for (unsigned K = 0; K < Keys.size(); ++K)
      if (NeedsProvider[K])
        KeyTemp[K] = F.newTemp(Keys[K].Ty);

    // Instructions inserted below are never visited (each goes in
    // before the walk's current position), so every id read here names
    // an instruction keyed above.
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(); It != BB->Insts.end(); ++It) {
        unsigned Id = KeyOf(It.id());
        if (Id == ~0u || !NeedsProvider[Id] || IsRedundant[It.id()])
          continue;
        // Provider rewrite: t = e (keeps position), X = copy t (keeps the
        // source-assignment identity and annotations).
        Instr Compute = *It;
        Instr &CopyI = *It;
        Value OldDest = CopyI.Dest;
        Compute.Dest = KeyTemp[Id];
        Compute.IsSourceAssign = false;
        CopyI.Op = Opcode::Copy;
        CopyI.Ops = {KeyTemp[Id]};
        CopyI.Dest = OldDest;
        BB->Insts.insert(It, std::move(Compute));
      }
    }

    // Replace the redundant occurrences.
    for (auto &[I, Id] : Redundant) {
      I->Op = Opcode::Copy;
      I->Ops = {KeyTemp[Id]};
    }
    // Inserts/rewrites instructions within existing blocks only.
    return {PreservedAnalyses::cfgShape(), true};
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createGlobalCSEPass() {
  return std::make_unique<GlobalCSE>();
}
