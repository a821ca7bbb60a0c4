// Differential tests for the columnar storage engine: the vectorized
// operators against the row-at-a-time oracle (row_oracle.h), zero-copy
// slices, copy-on-write, and encoding-independent fingerprints.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fao/function.h"
#include "common/thread_pool.h"
#include "relational/column.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"
#include "row_oracle.h"
#include "service/result_cache.h"

namespace kathdb::rel {
namespace {

/// Deterministic mixed-type table with NULLs, repeated strings (dict
/// friendly) and per-row lids.
std::shared_ptr<Table> MakeMovies(size_t rows) {
  Schema schema;
  schema.AddColumn("mid", DataType::kInt);
  schema.AddColumn("year", DataType::kInt);
  schema.AddColumn("score", DataType::kDouble);
  schema.AddColumn("genre", DataType::kString);
  schema.AddColumn("watched", DataType::kBool);
  static const char* kGenres[] = {"action", "comedy", "drama", "horror"};
  auto t = std::make_shared<Table>("movies", schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(i % 7 == 3 ? Value::Null()
                             : Value::Int(1950 + static_cast<int64_t>(i % 70)));
    row.push_back(i % 5 == 2 ? Value::Null()
                             : Value::Double((i % 100) / 100.0));
    row.push_back(Value::Str(kGenres[i % 4]));
    row.push_back(Value::Bool(i % 3 == 0));
    t->AppendRow(std::move(row), static_cast<int64_t>(i + 1));
  }
  return t;
}

/// Cell-by-cell equality including value types and per-row lids.
void ExpectIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema())
      << a.schema().ToString() << " vs " << b.schema().ToString();
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row_lid(r), b.row_lid(r)) << "lid at row " << r;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      Value va = a.at(r, c);
      Value vb = b.at(r, c);
      EXPECT_EQ(va.type(), vb.type()) << "type at (" << r << "," << c << ")";
      EXPECT_EQ(va.ToString(), vb.ToString())
          << "value at (" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// ------------------------------------------------- ColumnVector encoding

TEST(ColumnVectorTest, EncodingFollowsFirstNonNull) {
  ColumnVector c;
  c.AppendNull();
  c.Append(Value::Int(7));
  EXPECT_EQ(c.encoding(), ColumnEncoding::kInt);
  EXPECT_TRUE(c.Get(0).is_null());
  EXPECT_EQ(c.Get(1).type(), DataType::kInt);
  EXPECT_EQ(c.Get(1).AsInt(), 7);
}

TEST(ColumnVectorTest, MixedTypesDemoteButRoundTrip) {
  ColumnVector c;
  c.Append(Value::Int(1));
  c.Append(Value::Str("two"));
  c.Append(Value::Double(3.5));
  c.AppendNull();
  EXPECT_EQ(c.encoding(), ColumnEncoding::kMixed);
  EXPECT_EQ(c.Get(0).type(), DataType::kInt);
  EXPECT_EQ(c.Get(1).AsString(), "two");
  EXPECT_EQ(c.Get(2).type(), DataType::kDouble);
  EXPECT_TRUE(c.Get(3).is_null());
}

TEST(ColumnVectorTest, DictEncodesRepeatedStrings) {
  ColumnVector c;
  for (int i = 0; i < 100; ++i) {
    c.Append(Value::Str(i % 2 == 0 ? "even" : "odd"));
  }
  EXPECT_EQ(c.encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(c.dict_size(), 2u);
  EXPECT_EQ(c.Get(40).AsString(), "even");
  EXPECT_EQ(c.Get(41).AsString(), "odd");
}

TEST(ColumnVectorTest, AppendRangeRemapsDictCodes) {
  ColumnVector a;
  a.Append(Value::Str("x"));
  a.Append(Value::Str("y"));
  ColumnVector b;
  b.Append(Value::Str("y"));  // "y" gets code 0 here, code 1 in `a`
  b.AppendRange(a, 0, 2);
  EXPECT_EQ(b.Get(1).AsString(), "x");
  EXPECT_EQ(b.Get(2).AsString(), "y");
}

TEST(ColumnVectorTest, HashAtMatchesValueHash) {
  auto t = MakeMovies(64);
  for (size_t c = 0; c < t->schema().num_columns(); ++c) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      EXPECT_EQ(t->column(c).HashAt(r), t->at(r, c).Hash())
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(ColumnVectorTest, FingerprintIsEncodingIndependent) {
  // Same logical strings stored dict-encoded vs demoted to kMixed: the
  // fingerprint hashes logical cells, not the physical layout.
  ColumnVector dict;
  dict.Append(Value::Str("a"));
  dict.Append(Value::Str("b"));
  dict.Append(Value::Str("a"));
  EXPECT_EQ(dict.encoding(), ColumnEncoding::kDict);
  ColumnVector demoted;
  demoted.Append(Value::Str("a"));
  demoted.Append(Value::Str("b"));
  demoted.Append(Value::Str("a"));
  demoted.Append(Value::Int(0));  // demotes the whole column after the fact
  EXPECT_EQ(demoted.encoding(), ColumnEncoding::kMixed);
  EXPECT_EQ(dict.FingerprintRange(0, 3), demoted.FingerprintRange(0, 3));
  // Numeric cells hash equal across INT and DOUBLE storage when the
  // values compare equal (3 == 3.0), matching Value::Hash.
  ColumnVector ints;
  ints.Append(Value::Int(3));
  ColumnVector doubles;
  doubles.Append(Value::Double(3.0));
  EXPECT_EQ(ints.FingerprintRange(0, 1), doubles.FingerprintRange(0, 1));
}

// ------------------------------------------------------ Table facade

TEST(ColumnarTableTest, RoundTripPreservesTypesAndLids) {
  auto t = MakeMovies(50);
  EXPECT_EQ(t->at(0, 0).type(), DataType::kInt);
  EXPECT_EQ(t->at(0, 2).type(), DataType::kDouble);
  EXPECT_EQ(t->at(0, 3).type(), DataType::kString);
  EXPECT_EQ(t->at(0, 4).type(), DataType::kBool);
  EXPECT_TRUE(t->at(3, 1).is_null());
  EXPECT_TRUE(t->at(2, 2).is_null());
  EXPECT_EQ(t->row_lid(49), 50);
  Row r7 = t->row(7);
  ASSERT_EQ(r7.size(), 5u);
  EXPECT_EQ(r7[0].AsInt(), 7);
}

TEST(ColumnarTableTest, SliceIsZeroCopyView) {
  auto t = MakeMovies(100);
  Table s = t->Slice(10, 30);
  EXPECT_TRUE(s.is_view());
  EXPECT_EQ(s.offset(), 10u);
  EXPECT_EQ(s.num_rows(), 20u);
  // Shares the parent's column buffers: same object identity.
  EXPECT_EQ(&s.column(0), &t->column(0));
  EXPECT_EQ(s.at(0, 0).AsInt(), 10);
  EXPECT_EQ(s.row_lid(0), 11);
  EXPECT_EQ(s.table_lid(), t->table_lid());
}

TEST(ColumnarTableTest, SliceClampsOutOfRangeBounds) {
  auto t = MakeMovies(10);
  EXPECT_EQ(t->Slice(20, 30).num_rows(), 0u);  // begin past the end
  EXPECT_EQ(t->Slice(5, 100).num_rows(), 5u);  // end clamped
  EXPECT_EQ(t->Slice(7, 3).num_rows(), 0u);    // inverted window
  EXPECT_EQ(t->Head(3).num_rows(), 3u);
  EXPECT_EQ(t->Head(3).name(), "movies_sample");
  EXPECT_EQ(t->Head(99).num_rows(), 10u);
}

TEST(ColumnarTableTest, MutatingViewDetachesFromParent) {
  auto t = MakeMovies(10);
  Table s = t->Slice(0, 5);
  s.AppendRow({Value::Int(999), Value::Int(2000), Value::Double(0.5),
               Value::Str("new"), Value::Bool(false)},
              777);
  EXPECT_EQ(s.num_rows(), 6u);
  EXPECT_EQ(s.at(5, 0).AsInt(), 999);
  EXPECT_EQ(s.row_lid(5), 777);
  // Parent untouched.
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(t->at(5, 0).AsInt(), 5);
}

TEST(ColumnarTableTest, CopyOnWritePreservesValueSemantics) {
  auto t = MakeMovies(10);
  Table copy = *t;
  copy.set_row_lid(0, 4242);
  EXPECT_EQ(copy.row_lid(0), 4242);
  EXPECT_EQ(t->row_lid(0), 1);
  copy.AppendRow(t->row(0), 0);
  EXPECT_EQ(copy.num_rows(), 11u);
  EXPECT_EQ(t->num_rows(), 10u);
}

TEST(ColumnarTableTest, AppendSliceAndGatherMatchRowAppends) {
  auto t = MakeMovies(40);
  Table by_rows("a", t->schema());
  for (size_t r = 5; r < 25; ++r) by_rows.AppendRow(t->row(r), t->row_lid(r));
  Table by_slice("a", t->schema());
  by_slice.AppendSlice(*t, 5, 25);
  ExpectIdentical(by_rows, by_slice);

  std::vector<uint32_t> sel = {3, 3, 17, 0, 39};
  Table by_rows2("g", t->schema());
  for (uint32_t r : sel) by_rows2.AppendRow(t->row(r), t->row_lid(r));
  Table by_gather("g", t->schema());
  by_gather.AppendGather(*t, sel.data(), sel.size());
  ExpectIdentical(by_rows2, by_gather);
}

TEST(ColumnarTableTest, AppendSliceFromViewTranslatesOffsets) {
  auto t = MakeMovies(30);
  Table view = t->Slice(10, 25);
  Table out("o", t->schema());
  out.AppendSlice(view, 2, 7);  // rows 12..17 of the parent
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.at(0, 0).AsInt(), 12);
  EXPECT_EQ(out.row_lid(4), 17);
}

TEST(ColumnarTableTest, FingerprintSameForViewAndCopy) {
  auto t = MakeMovies(64);
  Table view = t->Slice(16, 48);
  Table copy("copy", t->schema());
  copy.AppendSlice(*t, 16, 48);
  EXPECT_EQ(view.Fingerprint(), copy.Fingerprint());
  EXPECT_NE(view.Fingerprint(), t->Fingerprint());
}

TEST(ColumnarTableTest, ValidateStillCatchesRaggedRows) {
  Schema s({{"a", DataType::kInt}, {"b", DataType::kInt}});
  Table t("rag", s);
  t.AppendRow({Value::Int(1), Value::Int(2)});
  t.AppendRow({Value::Int(3)});
  Status st = t.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("row 1"), std::string::npos);
}

// -------------------------------------------- chunked vs row execution

ExprPtr Cmp(BinaryOp op, const std::string& col, Value v) {
  return Expr::Binary(op, Expr::Column(col), Expr::Literal(std::move(v)));
}

/// An operator tree and the same query written against the oracle.
struct OpCase {
  std::string name;
  std::function<OperatorPtr(TablePtr)> plan;
  std::function<Result<Table>(const Table&)> oracle;
};

std::vector<OpCase> DifferentialCases() {
  std::vector<OpCase> cases;
  cases.push_back({"scan", [](TablePtr t) { return MakeSeqScan(t); },
                   [](const Table& t) -> Result<Table> { return t; }});
  {
    // column <cmp> literal over INT: tight-loop select.
    ExprPtr pred = Cmp(BinaryOp::kGe, "year", Value::Int(1990));
    cases.push_back({"filter_fast_path",
                     [pred](TablePtr t) {
                       return MakeFilter(MakeSeqScan(t), pred);
                     },
                     [pred](const Table& t) {
                       return oracle::Filter(t, *pred);
                     }});
  }
  {
    ExprPtr pred = Expr::Binary(
        BinaryOp::kOr,
        Expr::Binary(BinaryOp::kAnd,
                     Cmp(BinaryOp::kLt, "score", Value::Double(0.3)),
                     Expr::Column("watched")),
        Cmp(BinaryOp::kEq, "genre", Value::Str("drama")));
    cases.push_back({"filter_and_or",
                     [pred](TablePtr t) {
                       return MakeFilter(MakeSeqScan(t), pred);
                     },
                     [pred](const Table& t) {
                       return oracle::Filter(t, *pred);
                     }});
  }
  {
    std::vector<ExprPtr> exprs = {
        Expr::Column("mid"),
        Expr::Binary(BinaryOp::kAdd, Expr::Column("score"),
                     Expr::Literal(Value::Double(1.0))),
        Expr::Call("upper", {Expr::Column("genre")}),
        Expr::Binary(BinaryOp::kAdd, Expr::Column("genre"),
                     Expr::Literal(Value::Str("!")))};
    std::vector<std::string> names = {"mid", "s1", "g", "gx"};
    cases.push_back({"project_exprs",
                     [=](TablePtr t) {
                       return MakeProject(MakeSeqScan(t), exprs, names);
                     },
                     [=](const Table& t) {
                       return oracle::Project(t, exprs, names);
                     }});
  }
  {
    ExprPtr pre = Cmp(BinaryOp::kGt, "score", Value::Double(0.25));
    std::vector<ExprPtr> exprs = {
        Expr::Column("genre"),
        Expr::Binary(BinaryOp::kMul, Expr::Column("mid"),
                     Expr::Column("mid"))};
    std::vector<std::string> names = {"genre", "mid_sq"};
    ExprPtr post = Cmp(BinaryOp::kNe, "genre", Value::Str("horror"));
    cases.push_back(
        {"filter_project_stack",
         [=](TablePtr t) {
           auto p = MakeProject(MakeFilter(MakeSeqScan(t), pre), exprs, names);
           return MakeFilter(std::move(p), post);
         },
         [=](const Table& t) -> Result<Table> {
           KATHDB_ASSIGN_OR_RETURN(Table f, oracle::Filter(t, *pre));
           KATHDB_ASSIGN_OR_RETURN(Table p, oracle::Project(f, exprs, names));
           return oracle::Filter(p, *post);
         }});
  }
  {
    // Self-join on genre against 6 build rows: ~1.5 matches per probe
    // row, so one probe chunk yields more than kChunkRows pairs.
    ExprPtr small = Cmp(BinaryOp::kLt, "mid", Value::Int(6));
    cases.push_back(
        {"join_columnar_build",
         [small](TablePtr t) {
           return MakeHashJoin(MakeSeqScan(t),
                               MakeFilter(MakeSeqScan(t), small), "genre",
                               "genre");
         },
         [small](const Table& t) -> Result<Table> {
           KATHDB_ASSIGN_OR_RETURN(Table right, oracle::Filter(t, *small));
           return oracle::HashJoin(t, right, "genre", "genre");
         }});
  }
  {
    // Selection-vector probe input, NULL join keys on both sides (year
    // is NULL on every 7th row).
    ExprPtr probe = Cmp(BinaryOp::kLt, "score", Value::Double(0.5));
    ExprPtr build = Cmp(BinaryOp::kLt, "mid", Value::Int(40));
    cases.push_back(
        {"hash_join_filtered_probe",
         [=](TablePtr t) {
           return MakeHashJoin(MakeFilter(MakeSeqScan(t), probe),
                               MakeFilter(MakeSeqScan(t), build), "year",
                               "year");
         },
         [=](const Table& t) -> Result<Table> {
           KATHDB_ASSIGN_OR_RETURN(Table left, oracle::Filter(t, *probe));
           KATHDB_ASSIGN_OR_RETURN(Table right, oracle::Filter(t, *build));
           return oracle::HashJoin(left, right, "year", "year");
         }});
  }
  {
    // Theta join over a selection-vector probe input: ~500 x 50 pairs,
    // evaluated in many kChunkRows batches.
    ExprPtr probe = Cmp(BinaryOp::kGe, "score", Value::Double(0.9));
    ExprPtr build = Cmp(BinaryOp::kLt, "mid", Value::Int(50));
    ExprPtr pred = Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kLt, Expr::Column("year"),
                     Expr::Column("r.year")),
        Expr::Binary(BinaryOp::kEq, Expr::Column("genre"),
                     Expr::Column("r.genre")));
    cases.push_back(
        {"nested_loop_join_filtered_probe",
         [=](TablePtr t) {
           return MakeNestedLoopJoin(MakeFilter(MakeSeqScan(t), probe),
                                     MakeFilter(MakeSeqScan(t), build), pred);
         },
         [=](const Table& t) -> Result<Table> {
           KATHDB_ASSIGN_OR_RETURN(Table left, oracle::Filter(t, *probe));
           KATHDB_ASSIGN_OR_RETURN(Table right, oracle::Filter(t, *build));
           return oracle::NestedLoopJoin(left, right, *pred);
         }});
  }
  {
    std::vector<std::string> groups = {"genre"};
    std::vector<AggSpec> aggs = {{AggFn::kCount, "", "n"},
                                 {AggFn::kAvg, "score", "avg_score"},
                                 {AggFn::kMax, "year", "max_year"}};
    cases.push_back({"aggregate",
                     [=](TablePtr t) {
                       return MakeAggregate(MakeSeqScan(t), groups, aggs);
                     },
                     [=](const Table& t) {
                       return oracle::Aggregate(t, groups, aggs);
                     }});
  }
  {
    ExprPtr pred = Cmp(BinaryOp::kGe, "year", Value::Int(1990));
    cases.push_back({"limit_mid_selection_chunk",
                     [pred](TablePtr t) {
                       return MakeLimit(MakeFilter(MakeSeqScan(t), pred), 1500);
                     },
                     [pred](const Table& t) -> Result<Table> {
                       KATHDB_ASSIGN_OR_RETURN(Table f,
                                               oracle::Filter(t, *pred));
                       return oracle::Limit(f, 1500);
                     }});
  }
  cases.push_back({"limit_mid_dense_chunk",
                   [](TablePtr t) {
                     return MakeLimit(MakeSeqScan(t), kChunkRows + 5);
                   },
                   [](const Table& t) {
                     return oracle::Limit(t, kChunkRows + 5);
                   }});
  cases.push_back({"limit_zero",
                   [](TablePtr t) { return MakeLimit(MakeSeqScan(t), 0); },
                   [](const Table& t) { return oracle::Limit(t, 0); }});
  // DISTINCT over projected columns of each encoding.
  auto distinct_case = [&cases](std::string name, std::vector<ExprPtr> exprs,
                                std::vector<std::string> names) {
    cases.push_back({std::move(name),
                     [=](TablePtr t) {
                       return MakeDistinct(
                           MakeProject(MakeSeqScan(t), exprs, names));
                     },
                     [=](const Table& t) -> Result<Table> {
                       KATHDB_ASSIGN_OR_RETURN(
                           Table p, oracle::Project(t, exprs, names));
                       return oracle::Distinct(p);
                     }});
  };
  distinct_case("distinct_dict_and_bool",
                {Expr::Column("genre"), Expr::Column("watched")},
                {"genre", "watched"});
  // score, negated on unwatched rows: -0.0 meets 0.0 (equal values) and
  // NULLs meet NULLs.
  distinct_case(
      "distinct_double",
      {Expr::Call("if", {Expr::Column("watched"), Expr::Column("score"),
                         Expr::Binary(BinaryOp::kMul, Expr::Column("score"),
                                      Expr::Literal(Value::Double(-1.0)))})},
      {"s"});
  // INT years, DOUBLE years (equal to the INT ones) and genre strings in
  // one type-mixed column.
  distinct_case(
      "distinct_mixed",
      {Expr::Call(
          "if",
          {Expr::Column("watched"), Expr::Column("year"),
           Expr::Call("if",
                      {Cmp(BinaryOp::kGt, "year", Value::Int(1990)),
                       Expr::Binary(BinaryOp::kMul, Expr::Column("year"),
                                    Expr::Literal(Value::Double(1.0))),
                       Expr::Column("genre")})})},
      {"m"});
  cases.push_back(
      {"sort_limit_distinct",
       [](TablePtr t) {
         auto p = MakeProject(MakeSeqScan(t), {Expr::Column("genre")},
                              {"genre"});
         auto s = MakeSort(MakeDistinct(std::move(p)), {{"genre", false}});
         return MakeLimit(std::move(s), 3);
       },
       [](const Table& t) -> Result<Table> {
         KATHDB_ASSIGN_OR_RETURN(
             Table p, oracle::Project(t, {Expr::Column("genre")}, {"genre"}));
         KATHDB_ASSIGN_OR_RETURN(Table d, oracle::Distinct(p));
         KATHDB_ASSIGN_OR_RETURN(Table s, oracle::Sort(d, {{"genre", false}}));
         return oracle::Limit(s, 3);
       }});
  return cases;
}

TEST(ChunkedExecutionTest, ByteIdenticalToRowExecution) {
  // Sized to cross several chunk boundaries (kChunkRows = 2048).
  auto t = MakeMovies(3 * kChunkRows + 123);
  for (const auto& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    auto op = c.plan(t);
    auto got = Materialize(op.get(), "out");
    auto want = c.oracle(*t);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(want.value(), got.value());
  }
}

TEST(ChunkedExecutionTest, ErrorsMatchOracleWordForWord) {
  auto t = MakeMovies(3 * kChunkRows + 123);
  auto expect_same_error = [&](const OpCase& c) {
    SCOPED_TRACE(c.name);
    auto op = c.plan(t);
    auto got = Materialize(op.get(), "out");
    auto want = c.oracle(*t);
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  };
  // Division by zero only on the last chunk's rows.
  ExprPtr late_div = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int(1)),
                   Expr::Binary(BinaryOp::kSub, Expr::Column("mid"),
                                Expr::Literal(Value::Int(3 * kChunkRows)))),
      Expr::Literal(Value::Int(0)));
  expect_same_error({"filter_division_by_zero",
                     [=](TablePtr in) {
                       return MakeFilter(MakeSeqScan(in), late_div);
                     },
                     [=](const Table& in) {
                       return oracle::Filter(in, *late_div);
                     }});
  expect_same_error({"hash_join_missing_right_column",
                     [](TablePtr in) {
                       return MakeHashJoin(MakeSeqScan(in), MakeSeqScan(in),
                                           "genre", "ghost");
                     },
                     [](const Table& in) {
                       return oracle::HashJoin(in, in, "genre", "ghost");
                     }});
  expect_same_error({"hash_join_missing_left_column",
                     [](TablePtr in) {
                       return MakeHashJoin(MakeSeqScan(in), MakeSeqScan(in),
                                           "ghost", "genre");
                     },
                     [](const Table& in) {
                       return oracle::HashJoin(in, in, "ghost", "genre");
                     }});
  ExprPtr ghost = Cmp(BinaryOp::kEq, "r.ghost", Value::Int(1));
  expect_same_error({"nested_loop_join_unknown_column",
                     [=](TablePtr in) {
                       return MakeNestedLoopJoin(MakeSeqScan(in),
                                                 MakeSeqScan(in), ghost);
                     },
                     [=](const Table& in) {
                       return oracle::NestedLoopJoin(in, in, *ghost);
                     }});
}

TEST(ChunkedExecutionTest, EmptyInputAndEmptySelection) {
  auto t = MakeMovies(0);
  auto op = MakeFilter(MakeSeqScan(t),
                       Expr::Binary(BinaryOp::kGt, Expr::Column("mid"),
                                    Expr::Literal(Value::Int(0))));
  auto r = Materialize(op.get(), "out");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);

  // Predicate selecting nothing over a non-empty table.
  auto t2 = MakeMovies(100);
  auto op2 = MakeFilter(MakeSeqScan(t2),
                        Expr::Binary(BinaryOp::kLt, Expr::Column("mid"),
                                     Expr::Literal(Value::Int(0))));
  auto r2 = Materialize(op2.get(), "out");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 0u);
}

TEST(ChunkedExecutionTest, DivisionByZeroSurfacesFromChunkPath) {
  auto t = MakeMovies(10);
  std::vector<ExprPtr> exprs;
  exprs.push_back(Expr::Binary(BinaryOp::kDiv, Expr::Column("mid"),
                               Expr::Literal(Value::Int(0))));
  auto op = MakeProject(MakeSeqScan(t), std::move(exprs), {"bad"});
  auto r = Materialize(op.get(), "out");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("division by zero"),
            std::string::npos);
}

TEST(ChunkedExecutionTest, ShortCircuitHidesErrorsLikeInterpreter) {
  // mid > 0 is false for row 0 only; the rhs divides by `mid`, which is
  // zero exactly on that row. AND must not evaluate the rhs there.
  auto t = MakeMovies(50);
  auto pred = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGt, Expr::Column("mid"),
                   Expr::Literal(Value::Int(0))),
      Expr::Binary(BinaryOp::kGt,
                   Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int(100)),
                                Expr::Column("mid")),
                   Expr::Literal(Value::Int(3))));
  auto op = MakeFilter(MakeSeqScan(t), pred);
  auto got = Materialize(op.get(), "out");
  auto want = oracle::Filter(*t, *pred);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(want.value(), got.value());
}

// -------------------------------------- morsel + cache differential

TEST(ColumnarCacheTest, FingerprintInvariantAcrossLayouts) {
  auto t = MakeMovies(200);
  // A flattened copy assembled row-at-a-time.
  Table rowwise("movies", t->schema());
  for (size_t r = 0; r < t->num_rows(); ++r) {
    rowwise.AppendRow(t->row(r), t->row_lid(r));
  }
  EXPECT_EQ(service::FingerprintTable(*t),
            service::FingerprintTable(rowwise));
  // A zero-copy view over the full range keys identically too.
  Table view = t->Slice(0, t->num_rows());
  EXPECT_EQ(service::FingerprintTable(*t), service::FingerprintTable(view));
}

TEST(ColumnarCacheTest, MorselEvaluationHitRateUnchanged) {
  // Evaluate a cacheable FAO function sequentially and morsel-parallel;
  // results and warm-run cache hit counts must agree (morsel slices are
  // zero-copy views now, so this also covers view fingerprinting).
  auto t = MakeMovies(64);

  fao::FunctionSpec spec;
  spec.name = "score_keywords";
  spec.template_id = "keyword_similarity_score";
  Json kw = Json::Array();
  kw.Append(Json::Str("action"));
  spec.params.Set("keywords", std::move(kw));
  spec.params.Set("did_column", Json::Str("mid"));
  spec.params.Set("output_column", Json::Str("kw_score"));

  Catalog catalog;  // empty: every did misses, scores stay deterministic
  auto run = [&](size_t morsel_size, common::ThreadPool* pool,
                 service::ResultCache* cache) -> Result<Table> {
    fao::ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.result_cache = cache;
    fao::MorselOptions morsels;
    morsels.morsel_size = morsel_size;
    morsels.pool = pool;
    return fao::EvaluateWithMorsels(spec, {t}, &ctx, morsels);
  };

  service::ResultCache cache_seq;
  auto seq_cold = run(0, nullptr, &cache_seq);
  auto seq_warm = run(0, nullptr, &cache_seq);
  ASSERT_TRUE(seq_cold.ok()) << seq_cold.status().ToString();
  ASSERT_TRUE(seq_warm.ok());

  common::ThreadPool pool(4);
  service::ResultCache cache_par;
  auto par_cold = run(16, &pool, &cache_par);
  auto par_warm = run(16, &pool, &cache_par);
  ASSERT_TRUE(par_cold.ok()) << par_cold.status().ToString();
  ASSERT_TRUE(par_warm.ok());

  ExpectIdentical(seq_cold.value(), seq_warm.value());
  ExpectIdentical(par_cold.value(), par_warm.value());
  // Same cells regardless of morsel partitioning (lids included).
  ExpectIdentical(seq_cold.value(), par_cold.value());

  // Warm hit rate: every morsel (or the whole table) hits on the rerun.
  auto seq_stats = cache_seq.stats();
  auto par_stats = cache_par.stats();
  EXPECT_GT(seq_stats.hits, 0);
  EXPECT_GT(par_stats.hits, 0);
  EXPECT_EQ(seq_stats.hits, seq_stats.insertions);
  EXPECT_EQ(par_stats.hits, par_stats.insertions);
}

}  // namespace
}  // namespace kathdb::rel
