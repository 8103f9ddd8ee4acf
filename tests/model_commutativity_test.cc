#include "model/commutativity.h"

#include <gtest/gtest.h>

namespace oodb {
namespace {

Invocation Ins(const std::string& key) {
  return Invocation("insert", {Value(key)});
}
Invocation Sea(const std::string& key) {
  return Invocation("search", {Value(key)});
}

TEST(NeverCommutesTest, EverythingConflicts) {
  NeverCommutes spec;
  EXPECT_FALSE(spec.Commutes(Ins("a"), Ins("b")));
  EXPECT_TRUE(spec.Conflicts(Ins("a"), Sea("a")));
}

TEST(AlwaysCommutesTest, EverythingCommutes) {
  AlwaysCommutes spec;
  EXPECT_TRUE(spec.Commutes(Ins("a"), Ins("a")));
}

TEST(ReadWriteTest, ReadersCommute) {
  ReadWriteCommutativity spec({"read", "scan"});
  EXPECT_TRUE(spec.Commutes(Invocation("read"), Invocation("read")));
  EXPECT_TRUE(spec.Commutes(Invocation("read"), Invocation("scan")));
}

TEST(ReadWriteTest, WritersConflict) {
  ReadWriteCommutativity spec({"read"});
  EXPECT_FALSE(spec.Commutes(Invocation("read"), Invocation("write")));
  EXPECT_FALSE(spec.Commutes(Invocation("write"), Invocation("write")));
}

TEST(ReadWriteTest, UnknownMethodIsWriter) {
  ReadWriteCommutativity spec({"read"});
  EXPECT_FALSE(spec.Commutes(Invocation("mystery"), Invocation("read")));
}

TEST(MatrixTest, DefaultConflicts) {
  MatrixCommutativity spec;
  EXPECT_FALSE(spec.Commutes(Invocation("a"), Invocation("b")));
}

TEST(MatrixTest, DeclaredPairsCommuteSymmetrically) {
  MatrixCommutativity spec;
  spec.SetCommutes("append", "append");
  spec.SetCommutes("append", "size");
  EXPECT_TRUE(spec.Commutes(Invocation("append"), Invocation("append")));
  EXPECT_TRUE(spec.Commutes(Invocation("append"), Invocation("size")));
  EXPECT_TRUE(spec.Commutes(Invocation("size"), Invocation("append")));
  EXPECT_FALSE(spec.Commutes(Invocation("size"), Invocation("clear")));
}

TEST(MatrixTest, ParametersIgnored) {
  MatrixCommutativity spec;
  spec.SetCommutes("insert", "insert");
  EXPECT_TRUE(spec.Commutes(Ins("same"), Ins("same")));
}

TEST(PredicateTest, DifferentParamKeyedInserts) {
  // The paper's leaf semantics: insert(DBS) and insert(DBMS) commute,
  // insert(DBS) twice conflicts.
  PredicateCommutativity spec;
  spec.SetPredicate("insert", "insert",
                    PredicateCommutativity::DifferentParam(0));
  EXPECT_TRUE(spec.Commutes(Ins("DBS"), Ins("DBMS")));
  EXPECT_FALSE(spec.Commutes(Ins("DBS"), Ins("DBS")));
}

TEST(PredicateTest, InsertVsSearchSameKeyConflicts) {
  // Example 1: Leaf11.insert(DBS) and Leaf11.search(DBS) access the same
  // key and conflict.
  PredicateCommutativity spec;
  spec.SetPredicate("insert", "search",
                    PredicateCommutativity::DifferentParam(0));
  EXPECT_FALSE(spec.Commutes(Ins("DBS"), Sea("DBS")));
  EXPECT_TRUE(spec.Commutes(Ins("DBS"), Sea("DBMS")));
  // Symmetric registration: query in the other method order.
  EXPECT_FALSE(spec.Commutes(Sea("DBS"), Ins("DBS")));
  EXPECT_TRUE(spec.Commutes(Sea("DBMS"), Ins("DBS")));
}

TEST(PredicateTest, AsymmetricPredicateSeesRegistrationOrder) {
  // A predicate that commutes iff the *first* registered method's param
  // is smaller: checks that argument order is normalized.
  PredicateCommutativity spec;
  spec.SetPredicate("a", "b", [](const Invocation& a, const Invocation& b) {
    return a.params[0].AsInt() < b.params[0].AsInt();
  });
  Invocation a1("a", {Value(1)});
  Invocation b2("b", {Value(2)});
  EXPECT_TRUE(spec.Commutes(a1, b2));
  EXPECT_TRUE(spec.Commutes(b2, a1));  // swapped call, same answer
  Invocation a3("a", {Value(3)});
  EXPECT_FALSE(spec.Commutes(a3, b2));
  EXPECT_FALSE(spec.Commutes(b2, a3));
}

TEST(PredicateTest, ExplicitCommutesAndConflicts) {
  PredicateCommutativity spec;
  spec.SetCommutes("search", "search");
  spec.SetConflicts("clear", "search");
  EXPECT_TRUE(spec.Commutes(Sea("x"), Sea("y")));
  EXPECT_FALSE(spec.Commutes(Invocation("clear"), Sea("x")));
}

TEST(PredicateTest, UnregisteredPairConflicts) {
  PredicateCommutativity spec;
  EXPECT_FALSE(spec.Commutes(Invocation("foo"), Invocation("bar")));
}

TEST(PredicateTest, MissingParamsConflict) {
  PredicateCommutativity spec;
  spec.SetPredicate("insert", "insert",
                    PredicateCommutativity::DifferentParam(0));
  EXPECT_FALSE(spec.Commutes(Invocation("insert"), Ins("x")));
}

TEST(PredicateTest, SameParamPredicate) {
  PredicateCommutativity spec;
  spec.SetPredicate("inc", "inc", PredicateCommutativity::SameParam(0));
  Invocation a("inc", {Value(1)});
  Invocation b("inc", {Value(2)});
  EXPECT_TRUE(spec.Commutes(a, a));
  EXPECT_FALSE(spec.Commutes(a, b));
}

}  // namespace
}  // namespace oodb
