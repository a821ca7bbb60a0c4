// Unit tests for src/relational: Value, Schema, Table, Catalog, Expr, ops.

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"

namespace kathdb::rel {
namespace {

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypesAndNull) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(3).type(), DataType::kInt);
  EXPECT_EQ(Value::Double(3.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), DataType::kString);
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Bool(true).Compare(Value::Int(1)), 0);
}

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Str("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericHashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Str("abc").Hash(), Value::Str("abd").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Double(0.25).ToString(), "0.25");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema s({{"Title", DataType::kString}, {"year", DataType::kInt}});
  EXPECT_EQ(s.IndexOf("Title").value(), 0u);
  EXPECT_EQ(s.IndexOf("title").value(), 0u);
  EXPECT_EQ(s.IndexOf("YEAR").value(), 1u);
  EXPECT_FALSE(s.IndexOf("nope").has_value());
}

TEST(SchemaTest, ConcatPrefixesClashes) {
  Schema a({{"id", DataType::kInt}, {"name", DataType::kString}});
  Schema b({{"id", DataType::kInt}, {"score", DataType::kDouble}});
  Schema c = Schema::Concat(a, b, "r");
  ASSERT_EQ(c.num_columns(), 4u);
  EXPECT_EQ(c.column(2).name, "r.id");
  EXPECT_EQ(c.column(3).name, "score");
}

TEST(SchemaTest, ConcatDisambiguatesRepeatedClash) {
  Schema a({{"x", DataType::kInt}, {"r.x", DataType::kInt}});
  Schema b({{"x", DataType::kInt}});
  Schema c = Schema::Concat(a, b, "r");
  ASSERT_EQ(c.num_columns(), 3u);
  EXPECT_NE(c.column(2).name, "x");
  EXPECT_NE(c.column(2).name, "r.x");
}

// ----------------------------------------------------------------- Table

Table MakeMovies() {
  Table t("movies", Schema({{"title", DataType::kString},
                            {"year", DataType::kInt},
                            {"score", DataType::kDouble}}));
  t.AppendRow({Value::Str("Guilty by Suspicion"), Value::Int(1991),
               Value::Double(0.99)}, 101);
  t.AppendRow({Value::Str("Clean and Sober"), Value::Int(1988),
               Value::Double(0.97)}, 102);
  t.AppendRow({Value::Str("Quiet Meadow"), Value::Int(2005),
               Value::Double(0.11)}, 103);
  return t;
}

TEST(TableTest, AppendAndAccess) {
  Table t = MakeMovies();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsString(), "Guilty by Suspicion");
  EXPECT_EQ(t.GetByName(1, "year").AsInt(), 1988);
  EXPECT_TRUE(t.GetByName(0, "missing").is_null());
  EXPECT_EQ(t.row_lid(2), 103);
}

TEST(TableTest, ValidateCatchesRaggedRows) {
  Table t("bad", Schema({{"a", DataType::kInt}}));
  t.AppendRow({Value::Int(1)});
  EXPECT_TRUE(t.Validate().ok());
  t.AppendRow({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, HeadKeepsLids) {
  Table t = MakeMovies();
  Table h = t.Head(2);
  EXPECT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.row_lid(0), 101);
}

TEST(TableTest, ToTextContainsHeaderAndRows) {
  std::string text = MakeMovies().ToText();
  EXPECT_NE(text.find("title"), std::string::npos);
  EXPECT_NE(text.find("Guilty by Suspicion"), std::string::npos);
}

// --------------------------------------------------------------- Catalog

TEST(CatalogTest, RegisterGetDrop) {
  Catalog cat;
  auto t = std::make_shared<Table>(MakeMovies());
  ASSERT_TRUE(cat.Register(t).ok());
  EXPECT_FALSE(cat.Register(t).ok());  // duplicate
  ASSERT_TRUE(cat.Get("movies").ok());
  EXPECT_FALSE(cat.Get("nope").ok());
  EXPECT_TRUE(cat.Drop("movies").ok());
  EXPECT_FALSE(cat.Has("movies"));
}

TEST(CatalogTest, UpsertReplaces) {
  Catalog cat;
  cat.Upsert(std::make_shared<Table>(MakeMovies()));
  auto t2 = std::make_shared<Table>(MakeMovies());
  t2->AppendRow({Value::Str("X"), Value::Int(2000), Value::Double(0.5)});
  cat.Upsert(t2);
  EXPECT_EQ(cat.Get("movies").value()->num_rows(), 4u);
}

TEST(CatalogTest, SampleRowsAndDescribe) {
  Catalog cat;
  cat.Upsert(std::make_shared<Table>(MakeMovies()), RelationKind::kBaseTable);
  auto s = cat.SampleRows("movies", 2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().num_rows(), 2u);
  std::string d = cat.DescribeAll();
  EXPECT_NE(d.find("movies"), std::string::npos);
  EXPECT_NE(d.find("title:STRING"), std::string::npos);
}

TEST(CatalogTest, JoinableDetectsSharedKeyColumn) {
  Catalog cat;
  cat.Upsert(std::make_shared<Table>(MakeMovies()));
  Table p("posters", Schema({{"title", DataType::kString},
                             {"img", DataType::kString}}));
  p.AppendRow({Value::Str("Guilty by Suspicion"), Value::Str("a.simg")});
  cat.Upsert(std::make_shared<Table>(std::move(p)));
  std::string on;
  EXPECT_TRUE(cat.Joinable("movies", "posters", &on));
  EXPECT_EQ(on, "title");
  EXPECT_FALSE(cat.Joinable("movies", "nope", &on));
}

// ------------------------------------------------------------------ Expr

TEST(ExprTest, ArithmeticAndComparison) {
  Schema s({{"a", DataType::kInt}, {"b", DataType::kDouble}});
  Row r{Value::Int(4), Value::Double(2.5)};
  auto e = Expr::Binary(BinaryOp::kAdd, Expr::Column("a"), Expr::Column("b"));
  EXPECT_DOUBLE_EQ(e->Eval(r, s).value().AsDouble(), 6.5);

  auto cmp = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                          Expr::Literal(Value::Int(3)));
  EXPECT_TRUE(cmp->Eval(r, s).value().AsBool());
}

TEST(ExprTest, IntegerArithmeticStaysInt) {
  Schema s;
  Row r;
  auto e = Expr::Binary(BinaryOp::kMul, Expr::Literal(Value::Int(6)),
                        Expr::Literal(Value::Int(7)));
  Value v = e->Eval(r, s).value();
  EXPECT_EQ(v.type(), DataType::kInt);
  EXPECT_EQ(v.AsInt(), 42);
}

TEST(ExprTest, DivisionByZeroIsSyntacticError) {
  Schema s;
  Row r;
  auto e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int(1)),
                        Expr::Literal(Value::Int(0)));
  auto res = e->Eval(r, s);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsSyntacticError());
}

TEST(ExprTest, UnknownColumnIsSyntacticError) {
  Schema s({{"a", DataType::kInt}});
  Row r{Value::Int(1)};
  auto e = Expr::Column("ghost");
  auto res = e->Eval(r, s);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsSyntacticError());
}

TEST(ExprTest, LogicalShortCircuit) {
  Schema s({{"a", DataType::kInt}});
  Row r{Value::Int(0)};
  // (a <> 0) AND (1/a > 0) must not divide by zero.
  auto guard = Expr::Binary(BinaryOp::kNe, Expr::Column("a"),
                            Expr::Literal(Value::Int(0)));
  auto div = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int(1)),
                   Expr::Column("a")),
      Expr::Literal(Value::Int(0)));
  auto e = Expr::Binary(BinaryOp::kAnd, guard, div);
  auto res = e->Eval(r, s);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res.value().AsBool());
}

TEST(ExprTest, NullPropagatesThroughComparison) {
  Schema s({{"a", DataType::kInt}});
  Row r{Value::Null()};
  auto e = Expr::Binary(BinaryOp::kEq, Expr::Column("a"),
                        Expr::Literal(Value::Int(1)));
  EXPECT_TRUE(e->Eval(r, s).value().is_null());
}

TEST(ExprTest, BuiltinFunctions) {
  Schema s({{"t", DataType::kString}});
  Row r{Value::Str("Guilty by Suspicion")};
  EXPECT_EQ(Expr::Call("lower", {Expr::Column("t")})
                ->Eval(r, s).value().AsString(),
            "guilty by suspicion");
  EXPECT_EQ(Expr::Call("length", {Expr::Column("t")})
                ->Eval(r, s).value().AsInt(),
            19);
  EXPECT_TRUE(Expr::Call("contains",
                         {Expr::Column("t"),
                          Expr::Literal(Value::Str("suspicion"))})
                  ->Eval(r, s).value().AsBool());
  EXPECT_DOUBLE_EQ(Expr::Call("round", {Expr::Literal(Value::Double(2.456)),
                                        Expr::Literal(Value::Int(2))})
                       ->Eval(r, s).value().AsDouble(),
                   2.46);
  EXPECT_EQ(Expr::Call("if", {Expr::Literal(Value::Bool(true)),
                              Expr::Literal(Value::Int(1)),
                              Expr::Literal(Value::Int(2))})
                ->Eval(r, s).value().AsInt(),
            1);
}

TEST(ExprTest, UnknownFunctionIsSyntacticError) {
  Schema s;
  Row r;
  auto res = Expr::Call("frobnicate", {})->Eval(r, s);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsSyntacticError());
}

TEST(ExprTest, ReferencedColumnsDeduplicated) {
  auto e = Expr::Binary(
      BinaryOp::kAdd, Expr::Column("a"),
      Expr::Binary(BinaryOp::kMul, Expr::Column("a"), Expr::Column("b")));
  auto cols = e->ReferencedColumns();
  ASSERT_EQ(cols.size(), 2u);
}

TEST(ExprTest, ToStringReadable) {
  auto e = Expr::Binary(BinaryOp::kAnd,
                        Expr::Binary(BinaryOp::kGt, Expr::Column("year"),
                                     Expr::Literal(Value::Int(1990))),
                        Expr::Column("boring"));
  EXPECT_EQ(e->ToString(), "((year > 1990) AND boring)");
}

// ------------------------------------------------------------- Operators

TablePtr MoviesPtr() { return std::make_shared<Table>(MakeMovies()); }

TEST(OpsTest, SeqScanMaterializesAll) {
  auto scan = MakeSeqScan(MoviesPtr());
  auto t = Materialize(scan.get(), "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().num_rows(), 3u);
  EXPECT_EQ(t.value().row_lid(0), 101);
}

TEST(OpsTest, FilterKeepsMatching) {
  auto op = MakeFilter(MakeSeqScan(MoviesPtr()),
                       Expr::Binary(BinaryOp::kLt, Expr::Column("year"),
                                    Expr::Literal(Value::Int(1990))));
  auto t = Materialize(op.get(), "out");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().num_rows(), 1u);
  EXPECT_EQ(t.value().at(0, 0).AsString(), "Clean and Sober");
  EXPECT_EQ(t.value().row_lid(0), 102);  // lineage flows through filter
}

TEST(OpsTest, ProjectComputesAndRenames) {
  auto op = MakeProject(
      MakeSeqScan(MoviesPtr()),
      {Expr::Column("title"),
       Expr::Binary(BinaryOp::kMul, Expr::Column("score"),
                    Expr::Literal(Value::Double(100.0)))},
      {"t", "pct"});
  auto t = Materialize(op.get(), "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().schema().column(1).name, "pct");
  EXPECT_DOUBLE_EQ(t.value().at(0, 1).AsDouble(), 99.0);
}

TEST(OpsTest, HashJoinMatchesKeys) {
  Table p("posters", Schema({{"title", DataType::kString},
                             {"img", DataType::kString}}));
  p.AppendRow({Value::Str("Guilty by Suspicion"), Value::Str("g.simg")});
  p.AppendRow({Value::Str("Quiet Meadow"), Value::Str("q.simg")});
  auto op = MakeHashJoin(MakeSeqScan(MoviesPtr()),
                         MakeSeqScan(std::make_shared<Table>(std::move(p))),
                         "title", "title", "p");
  auto t = Materialize(op.get(), "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().num_rows(), 2u);
  // Right-side clash column got prefixed.
  EXPECT_TRUE(t.value().schema().HasColumn("p.title"));
}

TEST(OpsTest, HashJoinMissingColumnFails) {
  auto op = MakeHashJoin(MakeSeqScan(MoviesPtr()), MakeSeqScan(MoviesPtr()),
                         "title", "ghost", "r");
  auto t = Materialize(op.get(), "out");
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsSyntacticError());
}

TEST(OpsTest, NestedLoopJoinTheta) {
  auto pred = Expr::Binary(BinaryOp::kLt, Expr::Column("year"),
                           Expr::Column("r.year"));
  auto op = MakeNestedLoopJoin(MakeSeqScan(MoviesPtr()),
                               MakeSeqScan(MoviesPtr()), pred, "r");
  auto t = Materialize(op.get(), "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().num_rows(), 3u);  // (88,91) (88,05) (91,05)
}

TEST(OpsTest, AggregateGlobalAndGrouped) {
  auto global = MakeAggregate(
      MakeSeqScan(MoviesPtr()), {},
      {{AggFn::kCount, "", "n"}, {AggFn::kAvg, "score", "avg_score"}});
  auto t = Materialize(global.get(), "out");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().num_rows(), 1u);
  EXPECT_EQ(t.value().at(0, 0).AsInt(), 3);
  EXPECT_NEAR(t.value().at(0, 1).AsDouble(), (0.99 + 0.97 + 0.11) / 3, 1e-9);

  // Group by decade-ish: year itself here (3 groups).
  auto grouped = MakeAggregate(MakeSeqScan(MoviesPtr()), {"year"},
                               {{AggFn::kMax, "score", "max_score"}});
  auto g = Materialize(grouped.get(), "out");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_rows(), 3u);
}

TEST(OpsTest, AggregateOnEmptyInputGlobalRow) {
  Table empty("e", Schema({{"x", DataType::kInt}}));
  auto op = MakeAggregate(MakeSeqScan(std::make_shared<Table>(empty)), {},
                          {{AggFn::kCount, "", "n"},
                           {AggFn::kMin, "x", "mn"}});
  auto t = Materialize(op.get(), "out");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().num_rows(), 1u);
  EXPECT_EQ(t.value().at(0, 0).AsInt(), 0);
  EXPECT_TRUE(t.value().at(0, 1).is_null());
}

TEST(OpsTest, SortAscDescStable) {
  auto asc = MakeSort(MakeSeqScan(MoviesPtr()), {{"year", false}});
  auto t = Materialize(asc.get(), "out");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().at(0, 1).AsInt(), 1988);
  EXPECT_EQ(t.value().at(2, 1).AsInt(), 2005);

  auto desc = MakeSort(MakeSeqScan(MoviesPtr()), {{"score", true}});
  auto d = Materialize(desc.get(), "out");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().at(0, 0).AsString(), "Guilty by Suspicion");
}

TEST(OpsTest, LimitAndDistinct) {
  auto lim = MakeLimit(MakeSeqScan(MoviesPtr()), 2);
  EXPECT_EQ(Materialize(lim.get(), "out").value().num_rows(), 2u);

  Table dup("d", Schema({{"x", DataType::kInt}}));
  dup.AppendRow({Value::Int(1)});
  dup.AppendRow({Value::Int(1)});
  dup.AppendRow({Value::Int(2)});
  auto dis = MakeDistinct(MakeSeqScan(std::make_shared<Table>(dup)));
  EXPECT_EQ(Materialize(dis.get(), "out").value().num_rows(), 2u);
}

// Property-style sweep: filter then count == manual count, over predicates.
class FilterCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(FilterCountProperty, FilterMatchesManualCount) {
  int threshold = GetParam();
  Table t("nums", Schema({{"v", DataType::kInt}}));
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value::Int(i * 7 % 50)});
  }
  size_t manual = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (t.at(i, 0).AsInt() > threshold) ++manual;
  }
  auto op = MakeFilter(MakeSeqScan(std::make_shared<Table>(t)),
                       Expr::Binary(BinaryOp::kGt, Expr::Column("v"),
                                    Expr::Literal(Value::Int(threshold))));
  auto out = Materialize(op.get(), "out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows(), manual);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FilterCountProperty,
                         ::testing::Values(-1, 0, 10, 25, 49, 100));

}  // namespace
}  // namespace kathdb::rel
