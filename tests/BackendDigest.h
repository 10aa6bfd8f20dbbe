//===- tests/BackendDigest.h - The back-end digest's parts -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus and the hash of the golden back-end and classifier digests.
/// The corpus is the eight eval programs plus generated programs 1-60
/// (aliasing grammar on even seeds, 10-30 top-level statements); the hash
/// folds everything the back end produces for a function.  Tests that
/// compare builds over the same programs share them from here.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_TESTS_BACKENDDIGEST_H
#define SLDB_TESTS_BACKENDDIGEST_H

#include "codegen/MachineIR.h"
#include "eval/Programs.h"
#include "fuzz/ProgramGen.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sldb {

/// (name, source) pairs in digest order.
inline std::vector<std::pair<std::string, std::string>> digestCorpus() {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const BenchProgram &P : benchmarkPrograms())
    Programs.emplace_back(P.Name, P.Source);
  for (std::uint32_t Seed = 1; Seed <= 60; ++Seed) {
    GenOptions GO;
    GO.Alias = Seed % 2 == 0;
    GO.TopStmts = 10 + Seed % 21;
    Programs.emplace_back("gen" + std::to_string(Seed),
                          generateProgram(Seed, GO));
  }
  return Programs;
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv1a {
  std::uint64_t H = 0xcbf29ce484222325ull;
  void bytes(const void *P, std::size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (std::size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ull;
    }
  }
  void str(const std::string &S) { bytes(S.data(), S.size()); }
  void num(std::int64_t V) { str(std::to_string(V) + ";"); }
  void bits(const BitVector &BV) {
    num(BV.size());
    for (unsigned I : BV)
      num(I);
  }
};

/// Folds everything the back end produces for \p MF into \p H: the code,
/// the frame, the statement map and the three debug tables, each table
/// in key order (the maps are unordered).
inline void hashFunction(Fnv1a &H, const MachineFunction &MF,
                         const ProgramInfo *Info) {
  H.str(printMachineFunction(MF, Info));
  H.num(MF.FrameSize);
  for (std::int32_t A : MF.StmtAddr)
    H.num(A);
  std::vector<VarId> Vars;
  for (const auto &[V, S] : MF.Storage)
    Vars.push_back(V);
  std::sort(Vars.begin(), Vars.end());
  for (VarId V : Vars) {
    const VarStorage &S = MF.Storage.at(V);
    H.num(V);
    H.num(static_cast<int>(S.K));
    H.num(static_cast<int>(S.R.Cls));
    H.num(S.R.N);
    H.num(S.Frame);
    H.num(static_cast<std::int64_t>(S.GlobalAddr));
  }
  Vars.clear();
  for (const auto &[V, BV] : MF.ResidentAt)
    Vars.push_back(V);
  std::sort(Vars.begin(), Vars.end());
  for (VarId V : Vars) {
    H.num(V);
    H.bits(MF.ResidentAt.at(V));
  }
  std::vector<std::uint32_t> Markers;
  for (const auto &[A, BV] : MF.RecoveryValidAt)
    Markers.push_back(A);
  std::sort(Markers.begin(), Markers.end());
  for (std::uint32_t A : Markers) {
    H.num(A);
    H.bits(MF.RecoveryValidAt.at(A));
  }
}

} // namespace sldb

#endif // SLDB_TESTS_BACKENDDIGEST_H
