/// \file row_oracle.h
/// \brief Row-at-a-time reference semantics of the relational operators.
///
/// Plain whole-table functions over the boxed row facade (Table::row,
/// Expr::Eval, Table::AppendRow), written to be obviously right rather
/// than fast. The differential suites and the operator benches compare
/// the vectorized operators of relational/ops.h against them: schema,
/// cell types, cells, lids, fingerprints and error messages. Nothing
/// here is an Operator, so the oracle shares no execution code with the
/// engine beyond Value, Expr::Eval and the Table facade.

#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/ops.h"
#include "relational/table.h"

namespace kathdb::rel::oracle {

/// Value equality as the hash-keyed operators (join keys, DISTINCT rows,
/// group keys) apply it: Value::operator== with an equal Value::Hash. The
/// two agree except on NaN, which operator== ties with every number but
/// which hashes apart from every non-NaN number.
inline bool SameValue(const Value& a, const Value& b) {
  return a == b && a.Hash() == b.Hash();
}

inline bool SameRow(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (!SameValue(a[c], b[c])) return false;
  }
  return true;
}

inline Row Concat(Row left, const Row& right) {
  left.insert(left.end(), right.begin(), right.end());
  return left;
}

/// Rows where `pred` is non-NULL true; the first row whose evaluation
/// fails fails the call.
inline Result<Table> Filter(const Table& in, const Expr& pred) {
  Table out(in.name(), in.schema());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row row = in.row(r);
    KATHDB_ASSIGN_OR_RETURN(Value v, pred.Eval(row, in.schema()));
    if (!v.is_null() && v.AsBool()) {
      out.AppendRow(std::move(row), in.row_lid(r));
    }
  }
  return out;
}

/// One output row per input row. A column reference keeps its input
/// column's declared type; every other output column is declared STRING.
inline Result<Table> Project(const Table& in, const std::vector<ExprPtr>& exprs,
                             const std::vector<std::string>& names) {
  Schema schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    DataType t = DataType::kString;
    if (exprs[i]->kind() == ExprKind::kColumnRef) {
      auto idx = in.schema().IndexOf(exprs[i]->column_name());
      if (idx.has_value()) t = in.schema().column(*idx).type;
    }
    schema.AddColumn(names[i], t);
  }
  Table out(in.name(), schema);
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row row = in.row(r);
    Row projected;
    for (const auto& e : exprs) {
      KATHDB_ASSIGN_OR_RETURN(Value v, e->Eval(row, in.schema()));
      projected.push_back(std::move(v));
    }
    out.AppendRow(std::move(projected), in.row_lid(r));
  }
  return out;
}

/// Every (left, right) pair with equal, non-NULL keys, left-major, each
/// carrying its left row's lid.
inline Result<Table> HashJoin(const Table& left, const Table& right,
                              const std::string& left_col,
                              const std::string& right_col,
                              const std::string& right_prefix = "r") {
  auto ri = right.schema().IndexOf(right_col);
  if (!ri.has_value()) {
    return Status::SyntacticError("hash join: right column '" + right_col +
                                  "' not found");
  }
  auto li = left.schema().IndexOf(left_col);
  if (!li.has_value()) {
    return Status::SyntacticError("hash join: left column '" + left_col +
                                  "' not found");
  }
  Table out(left.name(),
            Schema::Concat(left.schema(), right.schema(), right_prefix));
  for (size_t l = 0; l < left.num_rows(); ++l) {
    Row lrow = left.row(l);
    for (size_t r = 0; r < right.num_rows(); ++r) {
      Row rrow = right.row(r);
      const Value& lk = lrow[*li];
      const Value& rk = rrow[*ri];
      if (lk.is_null() || rk.is_null() || !SameValue(lk, rk)) continue;
      out.AppendRow(Concat(lrow, rrow), left.row_lid(l));
    }
  }
  return out;
}

/// Every (left, right) pair whose concatenation satisfies `pred`,
/// left-major, each carrying its left row's lid.
inline Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                                    const Expr& pred,
                                    const std::string& right_prefix = "r") {
  Table out(left.name(),
            Schema::Concat(left.schema(), right.schema(), right_prefix));
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      Row joined = Concat(left.row(l), right.row(r));
      KATHDB_ASSIGN_OR_RETURN(Value v, pred.Eval(joined, out.schema()));
      if (!v.is_null() && v.AsBool()) {
        out.AppendRow(std::move(joined), left.row_lid(l));
      }
    }
  }
  return out;
}

/// Groups in first-seen order, keyed by SameValue on every key cell.
/// COUNT and AVG count every row of the group (NULL cells included); SUM
/// and AVG add AsDouble of the non-NULL cells in input order; MIN/MAX
/// keep the first of tied extremes under Value::Compare. A global
/// aggregate over no rows still yields one row. Output rows carry no lid.
inline Result<Table> Aggregate(const Table& in,
                               const std::vector<std::string>& group_cols,
                               const std::vector<AggSpec>& aggs) {
  Schema schema;
  std::vector<size_t> gidx;
  for (const auto& g : group_cols) {
    auto idx = in.schema().IndexOf(g);
    if (!idx.has_value()) {
      return Status::SyntacticError("group by unknown column '" + g + "'");
    }
    gidx.push_back(*idx);
    schema.AddColumn(g, in.schema().column(*idx).type);
  }
  std::vector<std::optional<size_t>> aidx;
  for (const auto& a : aggs) {
    DataType t = a.fn == AggFn::kCount ? DataType::kInt : DataType::kDouble;
    if (a.column.empty()) {
      aidx.push_back(std::nullopt);
    } else {
      auto idx = in.schema().IndexOf(a.column);
      if (!idx.has_value()) {
        return Status::SyntacticError("aggregate over unknown column '" +
                                      a.column + "'");
      }
      aidx.push_back(*idx);
      if (a.fn == AggFn::kMin || a.fn == AggFn::kMax) {
        t = in.schema().column(*idx).type;
      }
    }
    schema.AddColumn(a.output_name, t);
  }

  struct Acc {
    int64_t count = 0;
    double sum = 0.0;
    Value min, max;
    bool seen = false;
  };
  std::vector<Row> keys;
  std::vector<std::vector<Acc>> accs;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row row = in.row(r);
    Row key;
    for (size_t g : gidx) key.push_back(row[g]);
    size_t group = 0;
    while (group < keys.size() && !SameRow(keys[group], key)) ++group;
    if (group == keys.size()) {
      keys.push_back(std::move(key));
      accs.emplace_back(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = accs[group][a];
      ++acc.count;
      if (!aidx[a].has_value() || row[*aidx[a]].is_null()) continue;
      const Value& v = row[*aidx[a]];
      acc.sum += v.AsDouble();
      if (!acc.seen || v.Compare(acc.min) < 0) acc.min = v;
      if (!acc.seen || v.Compare(acc.max) > 0) acc.max = v;
      acc.seen = true;
    }
  }
  if (keys.empty() && group_cols.empty()) {
    keys.emplace_back();
    accs.emplace_back(aggs.size());
  }

  Table out(in.name(), schema);
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[g][a];
      switch (aggs[a].fn) {
        case AggFn::kCount:
          row.push_back(Value::Int(acc.count));
          break;
        case AggFn::kSum:
          row.push_back(Value::Double(acc.sum));
          break;
        case AggFn::kAvg:
          row.push_back(acc.count == 0
                            ? Value::Null()
                            : Value::Double(acc.sum /
                                            static_cast<double>(acc.count)));
          break;
        case AggFn::kMin:
          row.push_back(acc.seen ? acc.min : Value::Null());
          break;
        case AggFn::kMax:
          row.push_back(acc.seen ? acc.max : Value::Null());
          break;
      }
    }
    out.AppendRow(std::move(row));
  }
  return out;
}

/// Stable sort by `keys` under Value::Compare (NULL first ascending);
/// rows keep their lids.
inline Result<Table> Sort(const Table& in, const std::vector<SortKey>& keys) {
  std::vector<std::pair<size_t, bool>> kidx;
  for (const auto& k : keys) {
    auto idx = in.schema().IndexOf(k.column);
    if (!idx.has_value()) {
      return Status::SyntacticError("sort by unknown column '" + k.column +
                                    "'");
    }
    kidx.emplace_back(*idx, k.descending);
  }
  std::vector<std::pair<Row, int64_t>> rows;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    rows.emplace_back(in.row(r), in.row_lid(r));
  }
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    for (const auto& [idx, desc] : kidx) {
      int c = a.first[idx].Compare(b.first[idx]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  });
  Table out(in.name(), in.schema());
  for (auto& [row, lid] : rows) out.AppendRow(std::move(row), lid);
  return out;
}

/// The first `limit` rows.
inline Result<Table> Limit(const Table& in, size_t limit) {
  Table out(in.name(), in.schema());
  for (size_t r = 0; r < std::min(limit, in.num_rows()); ++r) {
    out.AppendRow(in.row(r), in.row_lid(r));
  }
  return out;
}

/// The first occurrence of every row, compared by SameValue cell by cell.
inline Result<Table> Distinct(const Table& in) {
  Table out(in.name(), in.schema());
  std::vector<Row> kept;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    Row row = in.row(r);
    bool dup = std::any_of(kept.begin(), kept.end(),
                           [&](const Row& k) { return SameRow(k, row); });
    if (dup) continue;
    out.AppendRow(row, in.row_lid(r));
    kept.push_back(std::move(row));
  }
  return out;
}

}  // namespace kathdb::rel::oracle
