#!/usr/bin/env bash
# Structural guard for the analysis modules and the compile driver.
# Registered as a ctest (see tests/CMakeLists.txt); run from the
# repository root.  Three rules:
#
#  1. No pass and no core debugger component constructs an IR analysis
#     directly — everything goes through AnalysisManager::getResult so
#     caching and invalidation stay sound.  Scope: src/opt and src/core.
#     The analysis types are the result types of the SLDB_ANALYSES rows
#     in src/analysis/AnalysisManager.h.
#  2. The debugger's data flows over final machine code have one solver:
#     under src/core and src/codegen only codegen/MachineFlow.cpp calls
#     solveDataflowGeneric; everything else states its problem as a
#     MachineFlow decision log.
#  3. One place builds machine code from source: under src and tools only
#     eval/Compile.cpp (compileModule) calls compileToMachineE, so error
#     handling, arena budgets and the pipeline config stay in one driver.
#     codegen/ISel declares and defines it.
#  4. The lockstep campaigns build their modules once per program: the
#     differential, stepping and cross-level oracles (fuzz/Campaign.cpp,
#     fuzz/QualityCampaign.cpp, fuzz/StepOracle.cpp) call none of
#     compileModule, compileOptimizedIR, lowerModule, compileToIR and
#     runPipelineEx.  They compile through fuzz/Oracle's SharedBuilds
#     (or judge builds the cross-level sweep already made).
#
# src/analysis is exempt from rules 1 and 2 (the manager, the analyses
# and the solver live there), and tests, benches and perfbench from all
# three (unit tests of an analysis construct it on purpose; the
# benchmarks time each layer on its own).
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# The second field of each "X(ID, Type, ..." row of SLDB_ANALYSES.
TYPES=$(sed -nE 's/^[[:space:]]*X\([A-Za-z_]+,[[:space:]]*([A-Za-z_]+),.*/\1/p' \
          src/analysis/AnalysisManager.h | paste -sd'|')
if [ -z "$TYPES" ]; then
  echo "error: no analysis rows found in src/analysis/AnalysisManager.h" >&2
  exit 1
fi

# Stack/heap construction of an analysis type: "CFGContext CFG(F)",
# "auto X = CFGContext(...)", "make_unique<Dominators>", "new Liveness".
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
BACKENDS=$(grep -rEn '\bcompileToMachineE[[:space:]]*\(' src tools \
             --include='*.cpp' --include='*.h' |
           grep -vE '^src/(eval/Compile\.cpp|codegen/ISel\.(h|cpp)):' || true)

if [ -n "$BACKENDS" ]; then
  echo "error: machine code built from source outside eval/Compile.cpp:" >&2
  echo "$BACKENDS" >&2
  echo "compile through compileModule (see src/eval/Compile.h)" >&2
  exit 1
fi
COMPILES=$(grep -En '\b(compileModule|compileOptimizedIR|lowerModule|compileToIR|runPipelineEx)[[:space:]]*\(' \
             src/fuzz/Campaign.cpp src/fuzz/QualityCampaign.cpp \
             src/fuzz/StepOracle.cpp |
           grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)

if [ -n "$COMPILES" ]; then
  echo "error: a lockstep campaign compiles outside SharedBuilds:" >&2
  echo "$COMPILES" >&2
  echo "compile through SharedBuilds (see src/fuzz/Oracle.h)" >&2
  exit 1
fi
echo "OK: src/opt and src/core construct no IR analysis directly;" \
     "only codegen/MachineFlow.cpp solves machine-code data flow;" \
     "only eval/Compile.cpp calls compileToMachineE;" \
     "the lockstep campaigns compile only through SharedBuilds"
