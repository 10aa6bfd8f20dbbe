#!/usr/bin/env bash
# Structural guard for the analysis modules.  Registered as a ctest (see
# tests/CMakeLists.txt); run from the repository root.  Two rules:
#
#  1. No pass and no core debugger component constructs an IR analysis
#     directly — everything goes through AnalysisManager::getResult so
#     caching and invalidation stay sound.  Scope: src/opt and src/core.
#  2. The debugger's data flows over final machine code have one solver:
#     under src/core and src/codegen only codegen/MachineFlow.cpp calls
#     solveDataflowGeneric; everything else states its problem as a
#     MachineFlow decision log.
#
# src/analysis is exempt (the manager, the analyses and the solver live
# there), and so are tests (unit tests of an analysis construct it on
# purpose).
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# Stack/heap construction of an analysis type: "CFGContext CFG(F)",
# "auto X = CFGContext(...)", "make_unique<Dominators>", "new Liveness".
TYPES='CFGContext|Dominators|PostDominators|LoopInfo|ValueIndex|Liveness|ReachingDefs|DomFrontiers|SsaDefUse|AliasInfo'
PATTERN="\b($TYPES)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*\(|make_unique<[[:space:]]*($TYPES)[[:space:]]*>|new[[:space:]]+($TYPES)\b|=[[:space:]]*($TYPES)[[:space:]]*\("

VIOLATIONS=$(grep -rEn "$PATTERN" src/opt src/core --include='*.cpp' --include='*.h' | grep -v '^\s*//' || true)

if [ -n "$VIOLATIONS" ]; then
  echo "error: direct analysis construction outside the AnalysisManager:" >&2
  echo "$VIOLATIONS" >&2
  echo "use AM.getResult<...>(F) instead (see src/analysis/AnalysisManager.h)" >&2
  exit 1
fi

SOLVES=$(grep -rEn '\bsolveDataflowGeneric[[:space:]]*\(' src/core src/codegen \
           --include='*.cpp' --include='*.h' |
         grep -v '^src/codegen/MachineFlow\.cpp:' || true)

if [ -n "$SOLVES" ]; then
  echo "error: machine-code data flow solved outside codegen/MachineFlow.cpp:" >&2
  echo "$SOLVES" >&2
  echo "state the problem as a decision log (see src/codegen/MachineFlow.h)" >&2
  exit 1
fi
echo "OK: src/opt and src/core construct no IR analysis directly;" \
     "only codegen/MachineFlow.cpp solves machine-code data flow"
