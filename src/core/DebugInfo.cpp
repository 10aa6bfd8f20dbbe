//===- core/DebugInfo.cpp - DWARF-shaped debug-info export ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DebugInfo.h"

#include "core/Classifier.h"
#include "support/Trace.h"

#include <fstream>
#include <sstream>

using namespace sldb;

namespace {

/// \p S as a JSON string literal, quotes included.
std::string quoted(const std::string &S) {
  std::string Q;
  appendJsonString(Q, S);
  return Q;
}

const char *typeKindName(TypeKind K) {
  switch (K) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Double:
    return "double";
  case TypeKind::Ptr:
    return "ptr";
  case TypeKind::Void:
    return "void";
  }
  return "?";
}

/// Renders a variable's source type: "int", "double[8]", "int*", ...
std::string renderType(const VarInfo &VI) {
  std::string S;
  if (VI.Ty.Kind == TypeKind::Ptr) {
    S = typeKindName(VI.Ty.Pointee);
    S += "*";
  } else {
    S = typeKindName(VI.Ty.Kind);
  }
  if (!VI.isScalar()) {
    S += "[";
    S += std::to_string(VI.ArraySize);
    S += "]";
  }
  return S;
}

/// Renders the location a variable occupies at one address.  DWARF
/// analogue in the comment on each arm.
std::string locationAt(const MachineFunction &MF, VarId V,
                       std::uint32_t Addr) {
  auto It = MF.Storage.find(V);
  if (It == MF.Storage.end() || It->second.K == VarStorage::Kind::None)
    return "<optimized-out>"; // Empty DW_AT_location.
  const VarStorage &St = It->second;
  switch (St.K) {
  case VarStorage::Kind::InReg: {
    // DW_OP_regN, gated on the live-range residence bits: outside the
    // live range the register holds unrelated recycled values.
    auto RIt = MF.ResidentAt.find(V);
    if (RIt != MF.ResidentAt.end() && Addr < RIt->second.size() &&
        RIt->second.test(Addr))
      return "reg " + St.R.str();
    return "<optimized-out>";
  }
  case VarStorage::Kind::Frame:
    // DW_OP_fbreg <slot> — frame homes are valid for the whole function.
    return "frame+" + std::to_string(St.Frame);
  case VarStorage::Kind::GlobalMem:
    // DW_OP_addr <absolute word address>.
    return "addr+" + std::to_string(St.GlobalAddr);
  case VarStorage::Kind::None:
    break;
  }
  return "<optimized-out>";
}

/// Emits `[{"lo":..,"hi":..,"loc":".."}, ...]` by coalescing a
/// per-address location string into maximal half-open runs.  The runs
/// are monotone, non-overlapping, and cover [0, N) by construction.
void emitLocationList(std::ostringstream &Out, const MachineFunction &MF,
                      VarId V, std::uint32_t N) {
  Out << "[";
  bool FirstRange = true;
  std::uint32_t Lo = 0;
  std::string Cur;
  for (std::uint32_t A = 0; A <= N; ++A) {
    std::string Loc = A < N ? locationAt(MF, V, A) : std::string();
    if (A == 0) {
      Cur = Loc;
      continue;
    }
    if (A < N && Loc == Cur)
      continue;
    if (!FirstRange)
      Out << ",";
    FirstRange = false;
    Out << "{\"lo\":" << Lo << ",\"hi\":" << A << ",\"loc\":" << quoted(Cur)
        << "}";
    Lo = A;
    Cur = Loc;
  }
  Out << "]";
}

/// Emits availability ranges `[{"lo":..,"hi":..}, ...]`: the maximal
/// half-open address runs where \p Avail is set.
void emitAvailability(std::ostringstream &Out,
                      const std::vector<bool> &Avail) {
  Out << "[";
  bool FirstRange = true;
  std::uint32_t N = static_cast<std::uint32_t>(Avail.size());
  std::uint32_t A = 0;
  while (A < N) {
    if (!Avail[A]) {
      ++A;
      continue;
    }
    std::uint32_t Lo = A;
    while (A < N && Avail[A])
      ++A;
    if (!FirstRange)
      Out << ",";
    FirstRange = false;
    Out << "{\"lo\":" << Lo << ",\"hi\":" << A << "}";
  }
  Out << "]";
}

void emitFunction(std::ostringstream &Out, const MachineModule &MM,
                  const MachineFunction &MF) {
  const ProgramInfo &Info = *MM.Info;
  const FuncInfo &FI = Info.func(MF.Id);
  const std::uint32_t N = MF.numInstrs();

  Out << "{\"name\":" << quoted(MF.Name)
      << ",\"frame_size_words\":" << MF.FrameSize
      << ",\"num_instrs\":" << N << ",\"line_table\":[";

  bool First = true;
  for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
    if (MF.StmtAddr[S] < 0)
      continue; // Statement optimized away entirely.
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"stmt\":" << S << ",\"line\":" << FI.Stmts[S].Loc.Line
        << ",\"address\":" << MF.StmtAddr[S] << "}";
  }
  Out << "],\"variables\":[";

  // Availability comes from the classifier itself — the same dataflow
  // over markers and residence bits that answers interactive queries —
  // swept over every address.  classifyAll computes each address's
  // state once for all of the function's variables.
  Classifier C(MF, Info);
  First = true;
  std::vector<std::vector<bool>> Avail(FI.Locals.size(),
                                       std::vector<bool>(N, false));
  std::vector<Classification> Cs;
  for (std::uint32_t A = 0; A < N; ++A) {
    C.classifyAll(A, FI.Locals, Cs);
    for (std::size_t I = 0; I < FI.Locals.size(); ++I)
      Avail[I][A] = Cs[I].Kind == VarClass::Current;
  }
  for (std::size_t I = 0; I < FI.Locals.size(); ++I) {
    VarId V = FI.Locals[I];
    const VarInfo &VI = Info.var(V);
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":" << quoted(VI.Name)
        << ",\"type\":" << quoted(renderType(VI)) << ",\"param\":"
        << (VI.Storage == StorageKind::Param ? "true" : "false");
    Out << ",\"locations\":";
    emitLocationList(Out, MF, V, N);
    Out << ",\"availability\":";
    emitAvailability(Out, Avail[I]);
    Out << "}";
  }
  Out << "]}";
}

} // namespace

std::string sldb::renderDebugInfo(const MachineModule &MM) {
  std::ostringstream Out;
  Out << "{\"schema\":\"sldb-dwarf-0\",\"globals\":[";
  bool First = true;
  for (VarId V : MM.Info->Globals) {
    const VarInfo &VI = MM.Info->var(V);
    const std::size_t Addr = MM.globalAddr(V);
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":" << quoted(VI.Name)
        << ",\"type\":" << quoted(renderType(VI)) << ",\"address\":"
        << (Addr == MachineModule::NoGlobal ? 0 : Addr) << "}";
  }
  Out << "],\"functions\":[";
  First = true;
  for (const MachineFunction &MF : MM.Funcs) {
    if (!First)
      Out << ",";
    First = false;
    emitFunction(Out, MM, MF);
  }
  Out << "]}\n";
  return Out.str();
}

bool sldb::writeDebugInfoFile(const MachineModule &MM,
                              const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << renderDebugInfo(MM);
  return static_cast<bool>(Out);
}
