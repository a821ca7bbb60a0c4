// Columnar storage research question — the ROADMAP's "as fast as the
// hardware allows" north star starts at the storage layout: how fast does
// the columnar engine (typed column arrays + vectorized predicates +
// selection-vector output assembly) run the classical scan+filter shape,
// and is the output still exactly the row-at-a-time reference's, lineage
// included?
//
// Drives a 1M-row synthetic fact table through SeqScan -> Filter with a
// ~2% selective numeric predicate. Before timing, a 20k-row subset is
// checked cell for cell (lids and fingerprints included) against the
// row oracle of tests/row_oracle.h.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"
#include "row_oracle.h"

using namespace kathdb::rel;  // NOLINT

namespace {

constexpr size_t kRows = 1'000'000;
constexpr size_t kCheckRows = 20'000;  // equivalence-checked subset size

/// Deterministic fact table: mid INT, year INT, score DOUBLE, genre
/// STRING (8 distinct values -> dictionary encodes), watched BOOL.
std::shared_ptr<Table> MakeFactTable(size_t rows) {
  Schema schema;
  schema.AddColumn("mid", DataType::kInt);
  schema.AddColumn("year", DataType::kInt);
  schema.AddColumn("score", DataType::kDouble);
  schema.AddColumn("genre", DataType::kString);
  schema.AddColumn("watched", DataType::kBool);
  static const char* kGenres[] = {"action", "comedy", "drama",   "horror",
                                  "romance", "sci-fi", "western", "noir"};
  auto t = std::make_shared<Table>("facts", schema);
  uint64_t s = 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < rows; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;  // xorshift64
    int64_t year = 1950 + static_cast<int64_t>(s % 75);
    double score = static_cast<double>(s % 10000) / 10000.0;
    t->AppendRow({Value::Int(static_cast<int64_t>(i)), Value::Int(year),
                  Value::Double(score), Value::Str(kGenres[s % 8]),
                  Value::Bool((s & 1) != 0)},
                 static_cast<int64_t>(i + 1));
  }
  return t;
}

/// score < 0.04 AND year >= 1990: ~2% selective, numeric fast path on the
/// first conjunct, vectorized sub-selection on the second.
ExprPtr ScanPredicate() {
  return Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLt, Expr::Column("score"),
                   Expr::Literal(Value::Double(0.04))),
      Expr::Binary(BinaryOp::kGe, Expr::Column("year"),
                   Expr::Literal(Value::Int(1990))));
}

OperatorPtr MakeScanFilter(std::shared_ptr<Table> table) {
  return MakeFilter(MakeSeqScan(std::move(table)), ScanPredicate());
}

bool Identical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() ||
      !(a.schema() == b.schema()) ||
      a.Fingerprint() != b.Fingerprint()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.row_lid(r) != b.row_lid(r)) return false;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (a.at(r, c) != b.at(r, c) ||
          a.at(r, c).type() != b.at(r, c).type()) {
        return false;
      }
    }
  }
  return true;
}

void CheckAgainstOracle() {
  auto check = MakeFactTable(kCheckRows);
  auto op = MakeScanFilter(check);
  auto got = Materialize(op.get(), "out");
  auto want = oracle::Filter(*check, *ScanPredicate());
  if (!got.ok() || !want.ok() || !Identical(*want, *got)) {
    std::fprintf(stderr, "columnar result differs from the row oracle\n");
    std::abort();
  }
}

void BM_ColumnarScanFilter(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto op = MakeScanFilter(facts);
    auto r = Materialize(op.get(), "out");
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarScanFilter)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  CheckAgainstOracle();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
