//===- tests/frontend_test.cpp - Lexer/Parser/Sema tests -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace sldb;

namespace {

std::vector<Token> lex(std::string_view Src) {
  DiagnosticEngine Diags;
  Lexer L(Src, Diags);
  auto Toks = L.lexAll();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Toks;
}

FrontendResult check(std::string_view Src) {
  DiagnosticEngine Diags;
  FrontendResult FR = runFrontend(Src, Diags);
  EXPECT_TRUE(FR.TU != nullptr) << Diags.str();
  EXPECT_TRUE(FR.Info != nullptr) << Diags.str();
  return FR;
}

std::string checkError(std::string_view Src) {
  DiagnosticEngine Diags;
  FrontendResult FR = runFrontend(Src, Diags);
  EXPECT_TRUE(FR.Info == nullptr);
  EXPECT_TRUE(Diags.hasErrors());
  return Diags.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, Keywords) {
  auto T = lex("int double void if else while do for return break continue");
  ASSERT_EQ(T.size(), 12u);
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::KwDouble);
  EXPECT_EQ(T[2].Kind, TokKind::KwVoid);
  EXPECT_EQ(T[3].Kind, TokKind::KwIf);
  EXPECT_EQ(T[4].Kind, TokKind::KwElse);
  EXPECT_EQ(T[5].Kind, TokKind::KwWhile);
  EXPECT_EQ(T[6].Kind, TokKind::KwDo);
  EXPECT_EQ(T[7].Kind, TokKind::KwFor);
  EXPECT_EQ(T[8].Kind, TokKind::KwReturn);
  EXPECT_EQ(T[9].Kind, TokKind::KwBreak);
  EXPECT_EQ(T[10].Kind, TokKind::KwContinue);
  EXPECT_EQ(T[11].Kind, TokKind::Eof);
}

TEST(Lexer, NumbersAndIdentifiers) {
  auto T = lex("x12 42 3.5 1e3 7.25e-2 _y");
  EXPECT_EQ(T[0].Kind, TokKind::Identifier);
  EXPECT_EQ(T[0].Text, "x12");
  EXPECT_EQ(T[1].Kind, TokKind::IntLiteral);
  EXPECT_EQ(T[1].IntVal, 42);
  EXPECT_EQ(T[2].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(T[2].DoubleVal, 3.5);
  EXPECT_EQ(T[3].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(T[3].DoubleVal, 1000.0);
  EXPECT_EQ(T[4].Kind, TokKind::DoubleLiteral);
  EXPECT_DOUBLE_EQ(T[4].DoubleVal, 0.0725);
  EXPECT_EQ(T[5].Kind, TokKind::Identifier);
  EXPECT_EQ(T[5].Text, "_y");
}

TEST(Lexer, OperatorsMaximalMunch) {
  auto T = lex("+ += ++ - -= -- << <= < >> >= > == = != ! && & || |");
  TokKind Expected[] = {
      TokKind::Plus,      TokKind::PlusAssign, TokKind::PlusPlus,
      TokKind::Minus,     TokKind::MinusAssign, TokKind::MinusMinus,
      TokKind::Shl,       TokKind::LessEq,     TokKind::Less,
      TokKind::Shr,       TokKind::GreaterEq,  TokKind::Greater,
      TokKind::EqEq,      TokKind::Assign,     TokKind::BangEq,
      TokKind::Bang,      TokKind::AmpAmp,     TokKind::Amp,
      TokKind::PipePipe,  TokKind::Pipe,       TokKind::Eof};
  ASSERT_EQ(T.size(), std::size(Expected));
  for (std::size_t I = 0; I < T.size(); ++I)
    EXPECT_EQ(T[I].Kind, Expected[I]) << I;
}

TEST(Lexer, CommentsAndLocations) {
  auto T = lex("a // line comment\n/* block\ncomment */ b");
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[0].Loc.Line, 1u);
  EXPECT_EQ(T[1].Loc.Line, 3u);
}

TEST(Lexer, LargestIntegerLiteral) {
  auto T = lex("9223372036854775807");
  ASSERT_EQ(T[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(T[0].IntVal, INT64_MAX);
}

TEST(Lexer, IntegerLiteralAboveInt64MaxIsAnError) {
  for (const char *Src : {"9223372036854775808", "99999999999999999999",
                          "000009223372036854775808"}) {
    DiagnosticEngine Diags;
    std::string Line = std::string("x = ") + Src + ";";
    Lexer L(Line, Diags);
    L.lexAll();
    EXPECT_EQ(Diags.str(), std::string("1:5: error: integer literal '") +
                               Src +
                               "' is too large (the largest int is "
                               "9223372036854775807)\n");
  }
}

TEST(Lexer, ErrorOnBadChar) {
  DiagnosticEngine Diags;
  Lexer L("int $", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser + Sema
//===----------------------------------------------------------------------===//

TEST(Frontend, MinimalProgram) {
  auto FR = check("int main() { return 0; }");
  ASSERT_EQ(FR.TU->Functions.size(), 1u);
  EXPECT_EQ(FR.Info->Funcs[0].Name, "main");
  EXPECT_EQ(FR.Info->Funcs[0].Stmts.size(), 1u);
}

TEST(Frontend, StatementIdsAreDense) {
  auto FR = check(R"(
    int main() {
      int x = 1;
      int y = 2;
      if (x < y) { x = y; } else { y = x; }
      while (x > 0) { x = x - 1; }
      return y;
    }
  )");
  const FuncInfo &FI = FR.Info->Funcs[0];
  // x=1, y=2, if, x=y, y=x, while, x=x-1, return  => 8 statements.
  EXPECT_EQ(FI.Stmts.size(), 8u);
}

TEST(Frontend, ScopeSnapshotPerStatement) {
  auto FR = check(R"(
    int main() {
      int a = 1;
      {
        int b = 2;
        a = b;
      }
      a = 3;
      return a;
    }
  )");
  const FuncInfo &FI = FR.Info->Funcs[0];
  ASSERT_EQ(FI.Stmts.size(), 5u);
  EXPECT_EQ(FI.Stmts[0].ScopeVars.size(), 1u); // a (its own decl).
  EXPECT_EQ(FI.Stmts[1].ScopeVars.size(), 2u); // a, b.
  EXPECT_EQ(FI.Stmts[2].ScopeVars.size(), 2u); // a = b.
  EXPECT_EQ(FI.Stmts[3].ScopeVars.size(), 1u); // b out of scope.
  EXPECT_EQ(FI.Stmts[4].ScopeVars.size(), 1u);
}

TEST(Frontend, ParamsAreInScope) {
  auto FR = check("int f(int a, double b) { return a; }");
  const FuncInfo &FI = FR.Info->Funcs[0];
  EXPECT_EQ(FI.Params.size(), 2u);
  ASSERT_EQ(FI.Stmts.size(), 1u);
  EXPECT_EQ(FI.Stmts[0].ScopeVars.size(), 2u);
}

TEST(Frontend, AddressTakenMarksVariable) {
  auto FR = check(R"(
    int main() {
      int x = 0;
      int* p = &x;
      *p = 5;
      return x;
    }
  )");
  bool FoundX = false;
  for (const VarInfo &VI : FR.Info->Vars)
    if (VI.Name == "x") {
      FoundX = true;
      EXPECT_TRUE(VI.AddressTaken);
      EXPECT_FALSE(VI.isPromotable());
    }
  EXPECT_TRUE(FoundX);
}

TEST(Frontend, ArrayDecaysToPointer) {
  auto FR = check(R"(
    int main() {
      int a[10];
      int* p = a;
      a[3] = 7;
      return p[3];
    }
  )");
  for (const VarInfo &VI : FR.Info->Vars)
    if (VI.Name == "a") {
      EXPECT_EQ(VI.ArraySize, 10u);
      EXPECT_FALSE(VI.isPromotable());
    }
}

TEST(Frontend, ArraySizesSpanOneTo32Bits) {
  auto FR = check("int g[4294967295];\n"
                  "int main() { int a[1]; a[0] = 2; return a[0]; }\n");
  for (const VarInfo &VI : FR.Info->Vars)
    EXPECT_EQ(VI.ArraySize, VI.Name == "g" ? 4294967295u : 1u) << VI.Name;
}

// A size of 0 used to declare a scalar, and a size past 32 bits was
// truncated (4294967298 made a 2-element array).
TEST(Frontend, ArraySizeOutOfRangeIsALocatedError) {
  EXPECT_EQ(checkError("int a[0];\nint main() { return 0; }"),
            "1:7: error: array size must be at least 1\n");
  EXPECT_EQ(checkError("int main() { int a[0]; a = 5; return 0; }"),
            "1:20: error: array size must be at least 1\n");
  EXPECT_EQ(checkError("int a[4294967296];\nint main() { return 0; }"),
            "1:7: error: array size 4294967296 is too large (the largest "
            "is 4294967295)\n");
  EXPECT_EQ(checkError("int main() {\n  int a[4294967298]; a[0] = 5; "
                       "return 0; }"),
            "2:9: error: array size 4294967298 is too large (the largest "
            "is 4294967295)\n");
  EXPECT_EQ(checkError("int main() { int a[9223372036854775807]; return 0; }"),
            "1:20: error: array size 9223372036854775807 is too large (the "
            "largest is 4294967295)\n");
}

TEST(Frontend, ImplicitConversions) {
  auto FR = check(R"(
    double f(double x) { return x; }
    int main() {
      double d = 1;       // int -> double
      int i = 2.5;        // double -> int
      d = f(3);           // arg conversion
      i = d + 1;          // result conversion
      return i;
    }
  )");
  (void)FR;
}

TEST(Frontend, ForLoopIncGetsOwnStmtId) {
  auto FR = check(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + i; }
      return s;
    }
  )");
  const auto &FI = FR.Info->Funcs[0];
  // s=0, i=0 (decl), for, s=s+i, i=i+1 (inc), return => 6.
  EXPECT_EQ(FI.Stmts.size(), 6u);
}

TEST(Frontend, GlobalsTracked) {
  auto FR = check(R"(
    int g = 5;
    int table[16];
    int main() { return g; }
  )");
  EXPECT_EQ(FR.Info->Globals.size(), 2u);
  EXPECT_EQ(FR.Info->var(FR.Info->Globals[0]).Storage, StorageKind::Global);
}

TEST(Frontend, ManyAndLongIdentifiersRoundTrip) {
  // 50,000 distinct globals grow the symbol table through many rehashes;
  // one 64 KB name crosses the table's arena slabs.
  const std::string Long(64 * 1024, 'q');
  std::string Src;
  for (int I = 0; I < 50000; ++I)
    Src += "int g" + std::to_string(I) + ";\n";
  Src += "int " + Long + " = 7;\n";
  Src += "int main() { return " + Long + " + g49999; }\n";
  auto FR = check(Src);
  ASSERT_TRUE(FR.Info);
  ASSERT_EQ(FR.Info->Vars.size(), 50001u);
  for (int I = 0; I < 50000; ++I)
    ASSERT_EQ(FR.Info->Vars[I].Name, "g" + std::to_string(I));
  EXPECT_EQ(FR.Info->Vars[50000].Name, Long);
  EXPECT_EQ(FR.Info->Funcs[0].Name, "main");

  auto Msg = checkError("int main() { return " + Long + "x; }");
  EXPECT_EQ(Msg, "1:21: error: use of undeclared identifier '" + Long +
                     "x'\n");
}

//===----------------------------------------------------------------------===//
// Sema errors
//===----------------------------------------------------------------------===//

TEST(SemaErrors, UndeclaredVariable) {
  auto Msg = checkError("int main() { return missing; }");
  EXPECT_NE(Msg.find("undeclared"), std::string::npos);
}

TEST(SemaErrors, Redefinition) {
  auto Msg = checkError("int main() { int x = 1; int x = 2; return x; }");
  EXPECT_NE(Msg.find("redefinition"), std::string::npos);
}

TEST(SemaErrors, BreakOutsideLoop) {
  auto Msg = checkError("int main() { break; return 0; }");
  EXPECT_NE(Msg.find("break"), std::string::npos);
}

TEST(SemaErrors, WrongArgCount) {
  auto Msg = checkError(R"(
    int f(int a) { return a; }
    int main() { return f(1, 2); }
  )");
  EXPECT_NE(Msg.find("wrong number of arguments"), std::string::npos);
}

TEST(SemaErrors, AssignToRValue) {
  auto Msg = checkError("int main() { 3 = 4; return 0; }");
  EXPECT_NE(Msg.find("lvalue"), std::string::npos);
}

TEST(SemaErrors, DerefNonPointer) {
  auto Msg = checkError("int main() { int x = 1; return *x; }");
  EXPECT_NE(Msg.find("dereference"), std::string::npos);
}

TEST(SemaErrors, VoidReturnWithValue) {
  auto Msg = checkError("void f() { return 3; } int main() { return 0; }");
  EXPECT_NE(Msg.find("void function"), std::string::npos);
}

TEST(Frontend, Int64MinIsWrittenAsASubtraction) {
  auto Msg = checkError("int main() {\n  int a = -9223372036854775808;\n"
                        "  return 0;\n}");
  EXPECT_EQ(Msg, "2:12: error: integer literal '9223372036854775808' is too "
                 "large (the largest int is 9223372036854775807)\n");
  auto FR = check("int main() { int a = -9223372036854775807 - 1; "
                  "print(a); return 0; }");
  EXPECT_EQ(FR.Info->Funcs[0].Stmts.size(), 3u);
}

TEST(Frontend, OutOfRangeLiteralsAreAllReported) {
  auto Msg = checkError("int main() { print(99999999999999999999); "
                        "return 18446744073709551616; }");
  EXPECT_EQ(Msg, "1:20: error: integer literal '99999999999999999999' is too "
                 "large (the largest int is 9223372036854775807)\n"
                 "1:50: error: integer literal '18446744073709551616' is too "
                 "large (the largest int is 9223372036854775807)\n");
}

TEST(SemaErrors, CallUndeclaredFunction) {
  auto Msg = checkError("int main() { return nosuch(1); }");
  EXPECT_NE(Msg.find("undeclared function"), std::string::npos);
}
