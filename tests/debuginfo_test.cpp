//===- tests/debuginfo_test.cpp - DWARF-shaped export tests ----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the debug-info export (core/DebugInfo.h, schema
/// "sldb-dwarf-0"): golden documents for the paper's Figure 2-4 worked
/// examples plus an aliasing program, structural invariants (range
/// monotonicity, coverage, availability within bounds), determinism,
/// and consistency between exported availability and the interactive
/// classifier.  Goldens live in tests/golden/debuginfo/; regenerate
/// deliberately with SLDB_UPDATE_GOLDENS=1.
///
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "core/Classifier.h"
#include "core/DebugInfo.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(SLDB_GOLDEN_DIR) + "/debuginfo/" + Name;
}

bool updating() {
  const char *V = std::getenv("SLDB_UPDATE_GOLDENS");
  return V && *V && std::string(V) != "0";
}

void checkGolden(const std::string &Name, const std::string &Got) {
  if (updating()) {
    ::mkdir((std::string(SLDB_GOLDEN_DIR) + "/debuginfo").c_str(), 0755);
    std::ofstream Out(goldenPath(Name), std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << goldenPath(Name);
    Out << Got;
    return;
  }
  std::ifstream In(goldenPath(Name));
  ASSERT_TRUE(In) << "missing golden file " << goldenPath(Name)
                  << " (regenerate with SLDB_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Got, Buf.str())
      << "debug info for '" << Name
      << "' changed; if intended, regenerate with SLDB_UPDATE_GOLDENS=1";
}

// The paper's worked examples (as in tests/crosslevel_test.cpp).
const char *Fig2 = R"(
  int main() {
    int u = 7; int v = 3; int y = 2; int z = 4;
    int x = u - v;        // s4: E0
    if (u > v) {
      x = y + z;          // s6: E1
    } else {
      u = u + 1;          // s7 (hoisted E3 lands after this)
    }
    x = y + z;            // s8: E2 -> avail marker
    print(x);             // s9: Bkpt3
    print(u);
    return 0;
  }
)";

const char *Fig3 = R"(
  int main() {
    int u = 5; int v = 2; int y = 3; int z = 4;
    int x = y + z;       // s4: E0, partially dead -> sunk, marker here
    if (u > v) {
      x = u - v;         // s6: E1
      print(x);          // s7
    } else {
      print(x);          // s8 (sunk copy lands before this)
    }
    print(u);            // s9: join
    return 0;
  }
)";

const char *Fig4 = R"(
  int main() {
    int a = 7;
    int c = a;          // s1: dead (c never used) -> marker, recover=a
    print(a);           // s2
    return a;
  }
)";

// Aliasing coverage: an address-taken scalar pinned to the frame, an
// array written through a walked pointer, and an escape to a call.
const char *AliasProg = R"(
  int bump(int* q, int d) { *q = *q + d; return *q; }
  int main() {
    int x = 1;
    int acc = 0;
    int a[3];
    a[0] = 1;
    a[1] = 2;
    a[2] = 3;
    int* p = a;
    *p = 9;
    p = p + 1;
    *p = 8;
    acc = bump(&x, a[0]);
    print(acc);
    print(x);
    return acc;
  }
)";

//===----------------------------------------------------------------------===//
// Structural schema invariants (mirrors tools/check_debug_info_schema.sh
// for in-process coverage, without a JSON parser: the emitter's output
// is regular enough to scan.)
//===----------------------------------------------------------------------===//

/// Extracts every {"lo":A,"hi":B...} pair following position \p From up
/// to the closing ']' of the list that starts there.
std::vector<std::pair<long, long>> parseRanges(const std::string &S,
                                               std::size_t From) {
  std::vector<std::pair<long, long>> R;
  std::size_t Depth = 0, I = From;
  for (; I < S.size(); ++I) {
    if (S[I] == '[') {
      ++Depth;
      break;
    }
  }
  for (; I < S.size() && Depth; ++I) {
    if (S[I] == '[')
      ++Depth, --Depth; // Flat lists only.
    if (S[I] == ']')
      break;
    if (S.compare(I, 6, "{\"lo\":") == 0) {
      long Lo = std::strtol(S.c_str() + I + 6, nullptr, 10);
      std::size_t Hi = S.find("\"hi\":", I);
      EXPECT_NE(Hi, std::string::npos);
      R.push_back({Lo, std::strtol(S.c_str() + Hi + 5, nullptr, 10)});
      I += 5;
    }
  }
  return R;
}

void checkRangeInvariants(const std::string &Doc) {
  // Every "locations" and "availability" list: half-open, monotone,
  // non-overlapping.
  for (const char *Key : {"\"locations\":", "\"availability\":"}) {
    std::size_t Pos = 0;
    while ((Pos = Doc.find(Key, Pos)) != std::string::npos) {
      auto Ranges = parseRanges(Doc, Pos + std::strlen(Key));
      long PrevHi = -1;
      for (auto [Lo, Hi] : Ranges) {
        EXPECT_LT(Lo, Hi) << "empty or inverted range in " << Key;
        EXPECT_GE(Lo, PrevHi) << "overlapping/unsorted ranges in " << Key;
        PrevHi = Hi;
      }
      ++Pos;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Goldens
//===----------------------------------------------------------------------===//

TEST(DebugInfoGolden, Fig2) {
  auto [IR, MM] = compileOrAbort(Fig2, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  checkRangeInvariants(Doc);
  checkGolden("fig2.json", Doc);
}

TEST(DebugInfoGolden, Fig3) {
  auto [IR, MM] = compileOrAbort(Fig3, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  checkRangeInvariants(Doc);
  checkGolden("fig3.json", Doc);
}

TEST(DebugInfoGolden, Fig4) {
  auto [IR, MM] = compileOrAbort(Fig4, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  checkRangeInvariants(Doc);
  checkGolden("fig4.json", Doc);
}

TEST(DebugInfoGolden, AliasProgram) {
  auto [IR, MM] = compileOrAbort(AliasProg, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  checkRangeInvariants(Doc);
  checkGolden("alias.json", Doc);
}

//===----------------------------------------------------------------------===//
// Contracts beyond the goldens
//===----------------------------------------------------------------------===//

TEST(DebugInfo, DeterministicAcrossRenders) {
  auto [IR, MM] = compileOrAbort(Fig2, OptOptions::all());
  EXPECT_EQ(renderDebugInfo(MM), renderDebugInfo(MM));
  // A separately compiled module of the same source renders identically
  // too (no pointer values or iteration-order artifacts leak through).
  auto [IR2, MM2] = compileOrAbort(Fig2, OptOptions::all());
  EXPECT_EQ(renderDebugInfo(MM), renderDebugInfo(MM2));
}

TEST(DebugInfo, SchemaHeaderAndRequiredKeys) {
  auto [IR, MM] = compileOrAbort(Fig4, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  EXPECT_EQ(Doc.rfind("{\"schema\":\"sldb-dwarf-0\"", 0), 0u);
  for (const char *Key :
       {"\"globals\":", "\"functions\":", "\"name\":", "\"line_table\":",
        "\"variables\":", "\"locations\":", "\"availability\":",
        "\"frame_size_words\":", "\"num_instrs\":"})
    EXPECT_NE(Doc.find(Key), std::string::npos) << "missing " << Key;
  EXPECT_EQ(Doc.back(), '\n');
}

TEST(DebugInfo, AvailabilityMatchesInteractiveClassifier) {
  // The exported availability ranges must agree, address by address,
  // with what the classifier answers when queried directly.
  auto [IR, MM] = compileOrAbort(AliasProg, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  const MachineFunction *MF = MM.findFunc("main");
  ASSERT_NE(MF, nullptr);
  const FuncInfo &FI = MM.Info->func(MF->Id);
  Classifier C(*MF, *MM.Info);

  // Locate main's variable entries in the document, in order: FI.Locals.
  std::size_t Pos = Doc.find("\"name\":\"main\"");
  ASSERT_NE(Pos, std::string::npos);
  for (VarId V : FI.Locals) {
    const VarInfo &VI = MM.Info->var(V);
    Pos = Doc.find("{\"name\":\"" + VI.Name + "\"", Pos);
    ASSERT_NE(Pos, std::string::npos) << VI.Name;
    std::size_t APos = Doc.find("\"availability\":", Pos);
    ASSERT_NE(APos, std::string::npos);
    auto Ranges = parseRanges(Doc, APos + 15);
    for (std::uint32_t A = 0; A < MF->numInstrs(); ++A) {
      bool InRange = false;
      for (auto [Lo, Hi] : Ranges)
        InRange |= A >= static_cast<std::uint32_t>(Lo) &&
                   A < static_cast<std::uint32_t>(Hi);
      bool Current = C.classify(A, V).Kind == VarClass::Current;
      EXPECT_EQ(InRange, Current)
          << VI.Name << " at address " << A
          << ": export says " << InRange << ", classifier says " << Current;
    }
  }
}

TEST(DebugInfo, AddressTakenScalarHasFrameHome) {
  // x is address-taken in AliasProg: promotion must leave it in a frame
  // slot, so its location list must contain a frame location and its
  // type must render as "int".
  auto [IR, MM] = compileOrAbort(AliasProg, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  std::size_t Main = Doc.find("\"name\":\"main\"");
  std::size_t X = Doc.find("{\"name\":\"x\",\"type\":\"int\"", Main);
  ASSERT_NE(X, std::string::npos);
  std::size_t End = Doc.find("}]}", X);
  std::string Entry = Doc.substr(X, Doc.find("\"availability\":", X) - X);
  EXPECT_NE(Entry.find("frame+"), std::string::npos)
      << "address-taken x should live in a frame slot: " << Entry;
  (void)End;
}

TEST(DebugInfo, PointerAndArrayTypesRender) {
  auto [IR, MM] = compileOrAbort(AliasProg, OptOptions::all());
  std::string Doc = renderDebugInfo(MM);
  EXPECT_NE(Doc.find("\"type\":\"int[3]\""), std::string::npos);
  EXPECT_NE(Doc.find("\"type\":\"int*\""), std::string::npos);
}
