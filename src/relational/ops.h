/// \file ops.h
/// \brief Vectorized physical operators over in-memory columnar tables.
///
/// These are KathDB's classical relational operators. FAO function bodies
/// of kind "SQL sub-query" lower to trees of these operators; the optimizer
/// also uses them directly for rewrites such as predicate pushdown.
///
/// \ingroup kathdb_relational

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/table.h"

namespace kathdb::rel {

/// Rows produced by one NextChunk() pull: the window [begin, end) of
/// `table`'s rows, optionally narrowed to the rows named by `sel`
/// (table-relative indices; empty = the whole dense window). The table is
/// shared, not copied — a scan chunk is a window over the scanned table
/// itself, and a filter chunk is the same window plus a selection vector.
struct Chunk {
  TablePtr table;
  size_t begin = 0;
  size_t end = 0;
  std::vector<uint32_t> sel;

  size_t size() const { return sel.empty() ? end - begin : sel.size(); }
};

/// Rows per chunk pulled by the vectorized operators (morsel-sized: the
/// working set of a chunk stays cache-resident).
inline constexpr size_t kChunkRows = 2048;

/// \brief Pull-based operator interface: Open / NextChunk / Close.
///
/// Execution is vector-at-a-time (after MonetDB/X100): every NextChunk()
/// pull yields up to kChunkRows rows as a window or selection vector over
/// a shared columnar table, so predicates, join probes and group-bys run
/// as loops over typed column arrays instead of one call per row.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  /// Produces the next batch of rows. Returns false when exhausted; never
  /// produces an empty chunk.
  virtual Result<bool> NextChunk(Chunk* chunk) = 0;
  virtual void Close() = 0;

  /// Output schema, valid after construction.
  virtual const Schema& output_schema() const = 0;

  /// One-line description for EXPLAIN-style rendering.
  virtual std::string Describe() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Runs an operator tree to completion into a named table, consuming
/// chunks with bulk column appends.
Result<Table> Materialize(Operator* op, const std::string& name);

/// Leaf scan over a materialized table.
OperatorPtr MakeSeqScan(TablePtr table);

/// Keeps rows where `predicate` evaluates to true (NULL drops the row).
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// Computes `exprs` per row; output columns named `names`. Output column
/// types are inferred from the first produced row (STRING when unknown).
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);

/// Equi-join: builds a hash table on `right_col` of the right input and
/// probes with `left_col`. Keys match by Value equality; a NULL key on
/// either side matches nothing (SQL `NULL = NULL` is not true). Output
/// rows follow probe order, then build order, and carry the probe row's
/// lid. Output schema is Concat(left, right, right name).
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::string left_col, std::string right_col,
                         std::string right_prefix = "r");

/// General theta-join: `predicate` is evaluated over the concatenated
/// (left, right) rows. Output order and lids as for MakeHashJoin.
OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               ExprPtr predicate,
                               std::string right_prefix = "r");

/// Aggregate function tags for MakeAggregate.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggFn fn;
  /// Input column; ignored for COUNT(*) (empty name).
  std::string column;
  std::string output_name;
};

/// Hash aggregation grouped by `group_cols` (may be empty = global).
/// Groups are keyed by a 64-bit hash of the key cells and emitted in
/// first-seen order; output rows carry no lid (wide dependency).
OperatorPtr MakeAggregate(OperatorPtr child,
                          std::vector<std::string> group_cols,
                          std::vector<AggSpec> aggs);

struct SortKey {
  std::string column;
  bool descending = false;
};

/// Blocking stable sort in Value::Compare order. Sorts an index
/// permutation over the materialized input with typed key comparators
/// (dictionary columns compare by precomputed code rank) and streams the
/// permutation out as selection-vector chunks.
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys);

/// Emits at most `limit` rows.
OperatorPtr MakeLimit(OperatorPtr child, size_t limit);

/// Removes duplicate rows, keeping each row's first occurrence (and its
/// lid). Rows are duplicates when every cell pair is equal under
/// Value::operator== (so 0.0 equals -0.0 and NULL equals NULL).
OperatorPtr MakeDistinct(OperatorPtr child);

}  // namespace kathdb::rel
