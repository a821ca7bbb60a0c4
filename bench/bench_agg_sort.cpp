// Back-half vectorization research question — how fast do the
// chunk-native aggregate and sort kernels (hash group-by over typed
// accumulator arrays, index-permutation sort with typed comparators) run
// on 1M-row inputs, and is their output still exactly the row-at-a-time
// reference's?
//
// Before timing, both pipelines are checked cell for cell (lids and
// fingerprints included) on a 20k-row subset against the row oracle of
// tests/row_oracle.h.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

/// GROUP BY genre, year with one aggregate of every function: 600 groups
/// out of 1M rows, dictionary + int keys.
const std::vector<std::string> kGroupCols = {"genre", "year"};
const std::vector<AggSpec> kAggs = {
    {AggFn::kCount, "", "n"},
    {AggFn::kSum, "score", "sum_score"},
    {AggFn::kAvg, "score", "avg_score"},
    {AggFn::kMin, "score", "min_score"},
    {AggFn::kMax, "mid", "max_mid"},
};

OperatorPtr MakeGroupBy(std::shared_ptr<Table> table) {
  return MakeAggregate(MakeSeqScan(std::move(table)), kGroupCols, kAggs);
}

/// ORDER BY score DESC, mid ASC: a double key with heavy ties broken by
/// a unique int key, full-width payload carried through.
const std::vector<SortKey> kSortKeys = {{"score", true}, {"mid", false}};

OperatorPtr MakeOrderBy(std::shared_ptr<Table> table) {
  return MakeSort(MakeSeqScan(std::move(table)), kSortKeys);
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

using MakeOp = std::function<OperatorPtr(std::shared_ptr<Table>)>;
using OracleFn = std::function<kathdb::Result<Table>(const Table&)>;

void CheckAgainstOracle(const char* label, const MakeOp& make,
                        const OracleFn& oracle) {
  auto check = MakeFactTable(kCheckRows);
  auto op = make(check);
  auto got = Materialize(op.get(), "out");
  auto want = oracle(*check);
  if (!got.ok() || !want.ok() || !Identical(*want, *got)) {
    std::fprintf(stderr, "%s: columnar result differs from the row oracle\n",
                 label);
    std::abort();
  }
}

void BM_ColumnarGroupBy(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto op = MakeGroupBy(facts);
    auto r = Materialize(op.get(), "out");
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarGroupBy)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ColumnarSort(benchmark::State& state) {
  auto facts = MakeFactTable(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto op = MakeOrderBy(facts);
    auto r = Materialize(op.get(), "out");
    if (!r.ok()) std::abort();
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarSort)
    ->Arg(kCheckRows)
    ->Arg(kRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  CheckAgainstOracle("group-by", MakeGroupBy, [](const Table& t) {
    return oracle::Aggregate(t, kGroupCols, kAggs);
  });
  CheckAgainstOracle("sort", MakeOrderBy, [](const Table& t) {
    return oracle::Sort(t, kSortKeys);
  });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
