#include "relational/ops.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/hash.h"
#include "relational/expr_vec.h"

namespace kathdb::rel {

namespace {

/// Pulls every remaining chunk of the opened `op` into `out` in order
/// (bulk column appends, lids carried).
Status DrainInto(Operator* op, Table* out) {
  Chunk chunk;
  while (true) {
    KATHDB_ASSIGN_OR_RETURN(bool has, op->NextChunk(&chunk));
    if (!has) return Status::OK();
    out->Reserve(out->num_rows() + chunk.size());
    if (chunk.sel.empty()) {
      out->AppendSlice(*chunk.table, chunk.begin, chunk.end);
    } else {
      out->AppendGather(*chunk.table, chunk.sel.data(), chunk.sel.size());
    }
  }
}

/// Table-relative rows of `chunk` in order: its selection vector (moved
/// out of the chunk), or its dense window spelled out.
std::vector<uint32_t> TakeRows(Chunk* chunk) {
  if (!chunk->sel.empty()) return std::move(chunk->sel);
  std::vector<uint32_t> rows(chunk->end - chunk->begin);
  std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(chunk->begin));
  return rows;
}

/// The seed/multiplier of the multiplicative row-hash fold over a row's
/// key cells (group-by keys, DISTINCT rows).
constexpr uint64_t kRowHashSeed = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kRowHashMul = 1315423911ULL;
/// Value::Null().Hash(), folded for cells of missing physical columns.
constexpr uint64_t kNullValueHash = 0x6b617468ULL;

/// One hash per physical row phys[i], folded over the cells of columns
/// `cols`: h = h * kRowHashMul + HashAt(cell), one typed pass per column.
void FoldRowHashes(const Table& t, const std::vector<uint32_t>& phys,
                   const std::vector<size_t>& cols,
                   std::vector<uint64_t>* hashes) {
  hashes->assign(phys.size(), kRowHashSeed);
  for (size_t c : cols) {
    if (c < t.num_physical_columns()) {
      t.column(c).FoldHashGather(phys.data(), phys.size(), kRowHashMul,
                                 hashes->data());
    } else {
      for (uint64_t& h : *hashes) h = h * kRowHashMul + kNullValueHash;
    }
  }
}

/// Column `c` of `t`, or null when `t` stores no cells for it (such a
/// column reads as all-NULL).
const ColumnVector* PhysColumn(const Table& t, size_t c) {
  return c < t.num_physical_columns() ? &t.column(c) : nullptr;
}

/// Value::operator== between physical cells a[i] and b[j] (a null column
/// holds NULLs), unboxed when both columns share a typed encoding.
bool CellsEqual(const ColumnVector* a, size_t i, const ColumnVector* b,
                size_t j) {
  bool a_null = a == nullptr || a->IsNull(i);
  bool b_null = b == nullptr || b->IsNull(j);
  if (a_null || b_null) return a_null && b_null;
  if (a->encoding() == b->encoding()) {
    switch (a->encoding()) {
      case ColumnEncoding::kBool:
        return a->BoolAt(i) == b->BoolAt(j);
      case ColumnEncoding::kInt:
        // Value::Compare ranks numerics as doubles.
        return static_cast<double>(a->IntAt(i)) ==
               static_cast<double>(b->IntAt(j));
      case ColumnEncoding::kDouble: {
        // Value::Compare ties NaN with every number.
        double x = a->DoubleAt(i);
        double y = b->DoubleAt(j);
        return !(x < y) && !(x > y);
      }
      case ColumnEncoding::kDict:
        return a->StrAt(i) == b->StrAt(j);
      default:
        break;
    }
  }
  return a->Get(i) == b->Get(j);
}

/// Cell-by-cell Value equality of table-relative rows a[ra] and b[rb]
/// (tables of equal width).
bool RowsEqual(const Table& a, size_t ra, const Table& b, size_t rb) {
  for (size_t c = 0; c < a.schema().num_columns(); ++c) {
    if (!CellsEqual(PhysColumn(a, c), a.offset() + ra, PhysColumn(b, c),
                    b.offset() + rb)) {
      return false;
    }
  }
  return true;
}

/// Join output: left rows lsel[0..n) beside right rows rsel[0..n)
/// (table-relative), carrying the left rows' lids.
TablePtr JoinRows(const Schema& schema, const Table& left,
                  const uint32_t* lsel, const Table& right,
                  const uint32_t* rsel, size_t n) {
  std::vector<ColumnPtr> cols;
  cols.reserve(schema.num_columns());
  auto gather = [&cols, n](const Table& side, const uint32_t* sel) {
    for (size_t c = 0; c < side.schema().num_columns(); ++c) {
      auto col = std::make_shared<ColumnVector>();
      side.GatherColumn(c, sel, n, col.get());
      cols.push_back(std::move(col));
    }
  };
  gather(left, lsel);
  gather(right, rsel);
  std::vector<int64_t> lids(n);
  for (size_t i = 0; i < n; ++i) lids[i] = left.row_lid(lsel[i]);
  return std::make_shared<Table>(Table::FromColumns(
      std::string(), schema, std::move(cols), std::move(lids)));
}

}  // namespace

Result<Table> Materialize(Operator* op, const std::string& name) {
  KATHDB_RETURN_IF_ERROR(op->Open());
  Table out(name, op->output_schema());
  KATHDB_RETURN_IF_ERROR(DrainInto(op, &out));
  op->Close();
  return out;
}

namespace {

// ---------------------------------------------------------------- SeqScan
class SeqScanOp : public Operator {
 public:
  explicit SeqScanOp(TablePtr table) : table_(std::move(table)) {}

  Status Open() override {
    pos_ = 0;
    return table_ == nullptr ? Status::InvalidArgument("null table scan")
                             : Status::OK();
  }
  Result<bool> NextChunk(Chunk* chunk) override {
    // Zero-copy: a chunk is a window over the scanned table itself.
    if (pos_ >= table_->num_rows()) return false;
    chunk->table = table_;
    chunk->begin = pos_;
    chunk->end = std::min(pos_ + kChunkRows, table_->num_rows());
    chunk->sel.clear();
    pos_ = chunk->end;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string Describe() const override {
    return "SeqScan(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------------- Filter
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> NextChunk(Chunk* chunk) override {
    // Vectorized: evaluate the predicate over the child's chunk into a
    // selection vector; the chunk's table passes through untouched.
    while (true) {
      Chunk in;
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&in));
      if (!has) return false;
      std::vector<uint32_t> keep;
      keep.reserve(in.size());
      if (in.sel.empty()) {
        KATHDB_RETURN_IF_ERROR(EvalPredicateSelect(*pred_, *in.table,
                                                   in.begin, in.end, &keep));
      } else {
        KATHDB_RETURN_IF_ERROR(
            EvalPredicateSelectOn(*pred_, *in.table, in.sel, &keep));
      }
      if (keep.empty()) continue;
      chunk->table = std::move(in.table);
      chunk->begin = in.begin;
      chunk->end = in.end;
      chunk->sel = std::move(keep);
      return true;
    }
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    return "Filter(" + pred_->ToString() + ")";
  }

 private:
  OperatorPtr child_;
  ExprPtr pred_;
};

// ---------------------------------------------------------------- Project
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {
    // Best-effort schema: column refs keep their input type; everything
    // else starts as STRING and is refined from the first produced row.
    for (size_t i = 0; i < exprs_.size(); ++i) {
      DataType t = DataType::kString;
      if (exprs_[i]->kind() == ExprKind::kColumnRef) {
        auto idx = child_->output_schema().IndexOf(exprs_[i]->column_name());
        if (idx.has_value()) {
          t = child_->output_schema().column(*idx).type;
        }
      }
      schema_.AddColumn(names_[i], t);
    }
  }

  Status Open() override { return child_->Open(); }

  Result<bool> NextChunk(Chunk* chunk) override {
    // Vectorized: evaluate every output expression column-at-a-time over
    // the child's chunk and assemble the output table from the columns.
    Chunk in;
    KATHDB_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&in));
    if (!has) return false;
    std::vector<uint32_t> rows = TakeRows(&in);
    const size_t n = rows.size();
    std::vector<ColumnPtr> cols;
    cols.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      auto col = std::make_shared<ColumnVector>();
      col->Reserve(n);
      KATHDB_RETURN_IF_ERROR(EvalExprVector(*e, *in.table, rows.data(), n,
                                            col.get()));
      cols.push_back(std::move(col));
    }
    std::vector<int64_t> lids(n);
    for (size_t i = 0; i < n; ++i) lids[i] = in.table->row_lid(rows[i]);
    if (!typed_) {
      // Refine declared types from the first produced row.
      Schema refined;
      for (size_t i = 0; i < cols.size(); ++i) {
        DataType t = cols[i]->Get(0).type();
        refined.AddColumn(names_[i],
                          t == DataType::kNull ? schema_.column(i).type : t);
      }
      schema_ = refined;
      typed_ = true;
    }
    chunk->table = std::make_shared<Table>(Table::FromColumns(
        std::string(), schema_, std::move(cols), std::move(lids)));
    chunk->begin = 0;
    chunk->end = n;
    chunk->sel.clear();
    return true;
  }

  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    std::string out = "Project(";
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += exprs_[i]->ToString() + " AS " + names_[i];
    }
    return out + ")";
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  Schema schema_;
  bool typed_ = false;
};

// --------------------------------------------------------------- HashJoin
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::string lcol,
             std::string rcol, std::string right_prefix)
      : left_(std::move(left)),
        right_(std::move(right)),
        lcol_(std::move(lcol)),
        rcol_(std::move(rcol)) {
    schema_ = Schema::Concat(left_->output_schema(), right_->output_schema(),
                             right_prefix);
  }

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(left_->Open());
    KATHDB_RETURN_IF_ERROR(right_->Open());
    ridx_ = right_->output_schema().IndexOf(rcol_);
    if (!ridx_.has_value()) {
      return Status::SyntacticError("hash join: right column '" + rcol_ +
                                    "' not found");
    }
    lidx_ = left_->output_schema().IndexOf(lcol_);
    if (!lidx_.has_value()) {
      return Status::SyntacticError("hash join: left column '" + lcol_ +
                                    "' not found");
    }
    // Build side: materialize the right input columnar and index its rows
    // by the hash of their key cell — the index holds row numbers, not
    // copies of rows. NULL keys match nothing, so they are not indexed.
    build_ = Table(std::string(), right_->output_schema());
    KATHDB_RETURN_IF_ERROR(DrainInto(right_.get(), &build_));
    right_->Close();
    index_.clear();
    if (const ColumnVector* key = PhysColumn(build_, *ridx_)) {
      index_.reserve(build_.num_rows());
      for (size_t r = 0; r < build_.num_rows(); ++r) {
        if (!key->IsNull(r)) {
          index_[key->HashAt(r)].push_back(static_cast<uint32_t>(r));
        }
      }
    }
    lsel_.clear();
    rsel_.clear();
    next_ = 0;
    return Status::OK();
  }

  Result<bool> NextChunk(Chunk* chunk) override {
    // Matches one probe chunk at a time into (probe row, build row)
    // pairs, then emits them kChunkRows at a time.
    while (next_ == lsel_.size()) {
      Chunk in;
      KATHDB_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&in));
      if (!has) return false;
      std::vector<uint32_t> rows = TakeRows(&in);
      probe_ = std::move(in.table);
      lsel_.clear();
      rsel_.clear();
      next_ = 0;
      const ColumnVector* pkey = PhysColumn(*probe_, *lidx_);
      const ColumnVector* bkey = PhysColumn(build_, *ridx_);
      if (pkey == nullptr || index_.empty()) continue;
      const size_t off = probe_->offset();
      for (uint32_t r : rows) {
        auto it = index_.find(pkey->HashAt(off + r));
        if (it == index_.end()) continue;
        for (uint32_t b : it->second) {
          // Only genuine equals: hash collisions, and NULL probe keys
          // (the build side indexes none), are filtered here.
          if (CellsEqual(pkey, off + r, bkey, b)) {
            lsel_.push_back(r);
            rsel_.push_back(b);
          }
        }
      }
    }
    const size_t n = std::min(kChunkRows, lsel_.size() - next_);
    chunk->table = JoinRows(schema_, *probe_, lsel_.data() + next_, build_,
                            rsel_.data() + next_, n);
    chunk->begin = 0;
    chunk->end = n;
    chunk->sel.clear();
    next_ += n;
    return true;
  }

  void Close() override {
    left_->Close();
    index_.clear();
    build_ = Table();
    probe_.reset();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "HashJoin(" + lcol_ + " = " + rcol_ + ")";
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::string lcol_;
  std::string rcol_;
  Schema schema_;
  std::optional<size_t> lidx_;
  std::optional<size_t> ridx_;
  Table build_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_;
  TablePtr probe_;             // table of the probe chunk being emitted
  std::vector<uint32_t> lsel_;  // its matched rows (table-relative) ...
  std::vector<uint32_t> rsel_;  // ... and their build rows, pairwise
  size_t next_ = 0;             // first pair not yet emitted
};

// --------------------------------------------------------- NestedLoopJoin
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr pred,
                   std::string right_prefix)
      : left_(std::move(left)), right_(std::move(right)),
        pred_(std::move(pred)) {
    schema_ = Schema::Concat(left_->output_schema(), right_->output_schema(),
                             right_prefix);
  }

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(left_->Open());
    KATHDB_RETURN_IF_ERROR(right_->Open());
    build_ = Table(std::string(), right_->output_schema());
    KATHDB_RETURN_IF_ERROR(DrainInto(right_.get(), &build_));
    right_->Close();
    rows_.clear();
    next_ = 0;
    rpos_ = 0;
    return Status::OK();
  }

  Result<bool> NextChunk(Chunk* chunk) override {
    // Walks the (left, right) pairs left-major in batches of kChunkRows
    // and evaluates the predicate vectorized over each batch's
    // concatenated rows.
    const size_t m = build_.num_rows();
    while (true) {
      if (next_ == rows_.size()) {
        Chunk in;
        KATHDB_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&in));
        if (!has) return false;
        rows_ = TakeRows(&in);
        probe_ = std::move(in.table);
        next_ = m == 0 ? rows_.size() : 0;  // no right rows: no pairs
        rpos_ = 0;
        continue;
      }
      std::vector<uint32_t> lsel;
      std::vector<uint32_t> rsel;
      while (lsel.size() < kChunkRows && next_ < rows_.size()) {
        lsel.push_back(rows_[next_]);
        rsel.push_back(static_cast<uint32_t>(rpos_));
        if (++rpos_ == m) {
          rpos_ = 0;
          ++next_;
        }
      }
      TablePtr pairs = JoinRows(schema_, *probe_, lsel.data(), build_,
                                rsel.data(), lsel.size());
      std::vector<uint32_t> keep;
      KATHDB_RETURN_IF_ERROR(
          EvalPredicateSelect(*pred_, *pairs, 0, pairs->num_rows(), &keep));
      if (keep.empty()) continue;
      chunk->begin = 0;
      chunk->end = pairs->num_rows();
      chunk->table = std::move(pairs);
      chunk->sel = std::move(keep);
      return true;
    }
  }

  void Close() override {
    left_->Close();
    build_ = Table();
    probe_.reset();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "NestedLoopJoin(" + pred_->ToString() + ")";
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr pred_;
  Schema schema_;
  Table build_;
  TablePtr probe_;             // table of the left chunk being joined
  std::vector<uint32_t> rows_;  // its rows (table-relative)
  size_t next_ = 0;             // current left row, index into rows_
  size_t rpos_ = 0;             // next right row to pair it with
};

// -------------------------------------------------------------- Aggregate

/// Aggregate output schema: group columns keep their input type, COUNT
/// is INT, SUM/AVG are DOUBLE, MIN/MAX keep the input column's declared
/// type.
Schema AggOutputSchema(const Schema& in,
                       const std::vector<std::string>& group_cols,
                       const std::vector<AggSpec>& aggs) {
  Schema schema;
  for (const auto& g : group_cols) {
    auto idx = in.IndexOf(g);
    schema.AddColumn(g, idx.has_value() ? in.column(*idx).type
                                        : DataType::kString);
  }
  for (const auto& a : aggs) {
    DataType t = DataType::kDouble;
    if (a.fn == AggFn::kCount) t = DataType::kInt;
    if ((a.fn == AggFn::kMin || a.fn == AggFn::kMax) && !a.column.empty()) {
      auto idx = in.IndexOf(a.column);
      if (idx.has_value()) t = in.column(*idx).type;
    }
    schema.AddColumn(a.output_name, t);
  }
  return schema;
}

/// Resolves group/aggregate input columns against the child schema.
Status ResolveAggColumns(const Schema& in,
                         const std::vector<std::string>& group_cols,
                         const std::vector<AggSpec>& aggs,
                         std::vector<size_t>* gidx,
                         std::vector<std::optional<size_t>>* aidx) {
  for (const auto& g : group_cols) {
    auto idx = in.IndexOf(g);
    if (!idx.has_value()) {
      return Status::SyntacticError("group by unknown column '" + g + "'");
    }
    gidx->push_back(*idx);
  }
  for (const auto& a : aggs) {
    if (a.column.empty()) {
      aidx->push_back(std::nullopt);
    } else {
      auto idx = in.IndexOf(a.column);
      if (!idx.has_value()) {
        return Status::SyntacticError("aggregate over unknown column '" +
                                      a.column + "'");
      }
      aidx->push_back(*idx);
    }
  }
  return Status::OK();
}

// ----------------------------------------------------------------- Kernels

/// Open-addressing linear-probe map from 64-bit group hash to dense group
/// id: two flat arrays, power-of-two capacity, <= 50% load — the
/// SHIP/Othello-style memory-dense lookup layout, no per-node allocation
/// on the hot path.
class GroupIndex {
 public:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  /// Returns the group id for `h`, assigning `next_gid` (and setting
  /// *inserted) when the hash is new.
  uint32_t LookupOrInsert(uint64_t h, uint32_t next_gid, bool* inserted) {
    if ((used_ + 1) * 2 > gids_.size()) Grow();
    size_t mask = gids_.size() - 1;
    size_t i = common::Mix64(h) & mask;
    while (true) {
      if (gids_[i] == kEmptySlot) {
        hashes_[i] = h;
        gids_[i] = next_gid;
        ++used_;
        *inserted = true;
        return next_gid;
      }
      if (hashes_[i] == h) {
        *inserted = false;
        return gids_[i];
      }
      i = (i + 1) & mask;
    }
  }

 private:
  void Grow() {
    size_t cap = gids_.empty() ? 1024 : gids_.size() * 2;
    std::vector<uint64_t> oh = std::move(hashes_);
    std::vector<uint32_t> og = std::move(gids_);
    hashes_.assign(cap, 0);
    gids_.assign(cap, kEmptySlot);
    size_t mask = cap - 1;
    for (size_t s = 0; s < og.size(); ++s) {
      if (og[s] == kEmptySlot) continue;
      size_t i = common::Mix64(oh[s]) & mask;
      while (gids_[i] != kEmptySlot) i = (i + 1) & mask;
      hashes_[i] = oh[s];
      gids_[i] = og[s];
    }
  }

  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> gids_;
  size_t used_ = 0;
};

/// Typed MIN/MAX accumulator: one dense array per group in the storage
/// matching the input column's encoding, demoted to boxed Values only
/// when a column genuinely mixes types. Replacement uses the exact
/// Value::Compare ordering (numerics compare as doubles, strict compare
/// keeps the first value on ties).
struct MinMaxAcc {
  ColumnEncoding mode = ColumnEncoding::kEmpty;  // active storage
  std::vector<uint8_t> seen;
  std::vector<uint8_t> b8;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::vector<Value> val;  // generic fallback (mode == kMixed)

  void Resize(size_t n) {
    seen.resize(n, 0);
    switch (mode) {
      case ColumnEncoding::kBool:
        b8.resize(n, 0);
        break;
      case ColumnEncoding::kInt:
        i64.resize(n, 0);
        break;
      case ColumnEncoding::kDouble:
        f64.resize(n, 0.0);
        break;
      case ColumnEncoding::kDict:
        str.resize(n);
        break;
      case ColumnEncoding::kMixed:
        val.resize(n);
        break;
      case ColumnEncoding::kEmpty:
        break;
    }
  }

  void SetMode(ColumnEncoding m) {
    mode = m;
    Resize(seen.size());
  }

  /// Re-boxes the typed extrema as Values; from then on the generic loop
  /// (Value::Compare) takes over. Ties already resolved stay resolved.
  void DemoteToGeneric() {
    std::vector<Value> boxed(seen.size());
    for (size_t g = 0; g < seen.size(); ++g) {
      if (seen[g]) boxed[g] = Extreme(g);
    }
    val = std::move(boxed);
    b8.clear();
    i64.clear();
    f64.clear();
    str.clear();
    mode = ColumnEncoding::kMixed;
  }

  Value Extreme(size_t g) const {
    if (g >= seen.size() || !seen[g]) return Value::Null();
    switch (mode) {
      case ColumnEncoding::kBool:
        return Value::Bool(b8[g] != 0);
      case ColumnEncoding::kInt:
        return Value::Int(i64[g]);
      case ColumnEncoding::kDouble:
        return Value::Double(f64[g]);
      case ColumnEncoding::kDict:
        return Value::Str(str[g]);
      case ColumnEncoding::kMixed:
        return val[g];
      case ColumnEncoding::kEmpty:
        break;
    }
    return Value::Null();
  }
};

/// sums[gid[i]] += AsDouble(col[phys[i]]) for non-NULL cells, in row
/// order, so the floating-point accumulation order is the input order.
/// Strings coerce to 0.0 (kDict is a no-op) and kEmpty columns are all
/// NULL.
void AccumulateSum(const ColumnVector& col, const std::vector<uint32_t>& phys,
                   const std::vector<uint32_t>& gid, double* sums) {
  const size_t n = phys.size();
  switch (col.encoding()) {
    case ColumnEncoding::kBool:
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (!col.IsNull(p)) sums[gid[i]] += col.BoolAt(p) ? 1.0 : 0.0;
      }
      break;
    case ColumnEncoding::kInt:
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (!col.IsNull(p)) {
          sums[gid[i]] += static_cast<double>(col.IntAt(p));
        }
      }
      break;
    case ColumnEncoding::kDouble:
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (!col.IsNull(p)) sums[gid[i]] += col.DoubleAt(p);
      }
      break;
    case ColumnEncoding::kMixed:
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (!col.IsNull(p)) sums[gid[i]] += col.MixedAt(p).AsDouble();
      }
      break;
    case ColumnEncoding::kDict:
    case ColumnEncoding::kEmpty:
      break;
  }
}

template <bool kIsMin>
void AccumulateMinMax(const ColumnVector& col,
                      const std::vector<uint32_t>& phys,
                      const std::vector<uint32_t>& gid, MinMaxAcc* acc) {
  ColumnEncoding enc = col.encoding();
  if (enc == ColumnEncoding::kEmpty) return;  // all NULL: nothing to fold
  if (acc->mode == ColumnEncoding::kEmpty) {
    acc->SetMode(enc);
  } else if (acc->mode != enc && acc->mode != ColumnEncoding::kMixed) {
    acc->DemoteToGeneric();
  }
  const size_t n = phys.size();
  uint8_t* seen = acc->seen.data();
  switch (acc->mode) {
    case ColumnEncoding::kBool: {
      uint8_t* cur = acc->b8.data();
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (col.IsNull(p)) continue;
        uint8_t x = col.BoolAt(p) ? 1 : 0;
        uint32_t g = gid[i];
        if (!seen[g] || (kIsMin ? x < cur[g] : x > cur[g])) cur[g] = x;
        seen[g] = 1;
      }
      break;
    }
    case ColumnEncoding::kInt: {
      // Replacement is a strict *double* comparison — exactly
      // Value::Compare — so large-int64 precision ties keep the first
      // value.
      int64_t* cur = acc->i64.data();
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (col.IsNull(p)) continue;
        int64_t x = col.IntAt(p);
        uint32_t g = gid[i];
        double xd = static_cast<double>(x);
        double cd = static_cast<double>(cur[g]);
        if (!seen[g] || (kIsMin ? xd < cd : xd > cd)) cur[g] = x;
        seen[g] = 1;
      }
      break;
    }
    case ColumnEncoding::kDouble: {
      double* cur = acc->f64.data();
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (col.IsNull(p)) continue;
        double x = col.DoubleAt(p);
        uint32_t g = gid[i];
        if (!seen[g] || (kIsMin ? x < cur[g] : x > cur[g])) cur[g] = x;
        seen[g] = 1;
      }
      break;
    }
    case ColumnEncoding::kDict: {
      std::string* cur = acc->str.data();
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (col.IsNull(p)) continue;
        const std::string& x = col.StrAt(p);
        uint32_t g = gid[i];
        if (!seen[g] || (kIsMin ? x < cur[g] : x > cur[g])) cur[g] = x;
        seen[g] = 1;
      }
      break;
    }
    case ColumnEncoding::kMixed: {
      // Generic: the accumulator or the column mixes value types.
      Value* cur = acc->val.data();
      for (size_t i = 0; i < n; ++i) {
        uint32_t p = phys[i];
        if (col.IsNull(p)) continue;
        Value x = col.Get(p);
        uint32_t g = gid[i];
        if (!seen[g] ||
            (kIsMin ? x.Compare(cur[g]) < 0 : x.Compare(cur[g]) > 0)) {
          cur[g] = std::move(x);
        }
        seen[g] = 1;
      }
      break;
    }
    case ColumnEncoding::kEmpty:
      break;
  }
}

class AggregateOp : public Operator {
 public:
  AggregateOp(OperatorPtr child, std::vector<std::string> group_cols,
              std::vector<AggSpec> aggs)
      : child_(std::move(child)),
        group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)),
        schema_(AggOutputSchema(child_->output_schema(), group_cols_,
                                aggs_)) {}

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(child_->Open());
    const Schema& in = child_->output_schema();
    std::vector<size_t> gidx;
    std::vector<std::optional<size_t>> aidx;
    KATHDB_RETURN_IF_ERROR(
        ResolveAggColumns(in, group_cols_, aggs_, &gidx, &aidx));

    const size_t nag = aggs_.size();
    GroupIndex index;
    uint32_t ngroups = 0;
    std::vector<int64_t> counts;  // rows per group (every agg counts all)
    std::vector<std::vector<double>> sums(nag);
    std::vector<MinMaxAcc> extrema(nag);
    std::vector<ColumnPtr> key_cols;
    key_cols.reserve(gidx.size());
    for (size_t k = 0; k < gidx.size(); ++k) {
      key_cols.push_back(std::make_shared<ColumnVector>());
    }

    Chunk chunk;
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> gid;
    std::vector<uint32_t> new_rows;
    while (true) {
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&chunk));
      if (!has) break;
      const Table& t = *chunk.table;
      // Physical row index per chunk position, shared by every pass.
      std::vector<uint32_t> phys = TakeRows(&chunk);
      for (uint32_t& p : phys) p += static_cast<uint32_t>(t.offset());
      const size_t n = phys.size();
      // Groups are keyed purely on the folded hash of their key cells:
      // two key tuples whose hashes collide (astronomically unlikely)
      // share a group.
      FoldRowHashes(t, phys, gidx, &hashes);
      // Group-id pass; rows that created a group gather their key cells
      // in bulk below (first-seen order).
      gid.resize(n);
      new_rows.clear();
      for (size_t i = 0; i < n; ++i) {
        bool inserted = false;
        gid[i] = index.LookupOrInsert(hashes[i], ngroups, &inserted);
        if (inserted) {
          ++ngroups;
          new_rows.push_back(phys[i]);
        }
      }
      if (!new_rows.empty()) {
        for (size_t k = 0; k < key_cols.size(); ++k) {
          if (gidx[k] < t.num_physical_columns()) {
            key_cols[k]->Reserve(ngroups);
            key_cols[k]->AppendGather(t.column(gidx[k]), new_rows.data(),
                                      new_rows.size());
          } else {
            for (size_t i = 0; i < new_rows.size(); ++i) {
              key_cols[k]->AppendNull();
            }
          }
        }
        counts.resize(ngroups, 0);
        for (size_t a = 0; a < nag; ++a) {
          if (aggs_[a].fn == AggFn::kSum || aggs_[a].fn == AggFn::kAvg) {
            sums[a].resize(ngroups, 0.0);
          } else if (aggs_[a].fn == AggFn::kMin ||
                     aggs_[a].fn == AggFn::kMax) {
            extrema[a].Resize(ngroups);
          }
        }
      }
      // Accumulate: counts first (every agg counts all group rows), then
      // one tight typed loop per aggregate over the chunk.
      for (size_t i = 0; i < n; ++i) ++counts[gid[i]];
      for (size_t a = 0; a < nag; ++a) {
        if (!aidx[a].has_value() || *aidx[a] >= t.num_physical_columns()) {
          continue;  // COUNT(*) or a missing (all-NULL) column
        }
        const ColumnVector& col = t.column(*aidx[a]);
        switch (aggs_[a].fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
            AccumulateSum(col, phys, gid, sums[a].data());
            break;
          case AggFn::kMin:
            AccumulateMinMax<true>(col, phys, gid, &extrema[a]);
            break;
          case AggFn::kMax:
            AccumulateMinMax<false>(col, phys, gid, &extrema[a]);
            break;
          case AggFn::kCount:
            break;
        }
      }
    }
    child_->Close();

    // Global aggregate over empty input still yields one row.
    if (ngroups == 0 && group_cols_.empty()) {
      ngroups = 1;
      counts.assign(1, 0);
      for (size_t a = 0; a < nag; ++a) {
        if (aggs_[a].fn == AggFn::kSum || aggs_[a].fn == AggFn::kAvg) {
          sums[a].assign(1, 0.0);
        } else if (aggs_[a].fn == AggFn::kMin || aggs_[a].fn == AggFn::kMax) {
          extrema[a].Resize(1);
        }
      }
    }

    result_ = std::make_shared<Table>(
        BuildOutput(ngroups, std::move(key_cols), counts, sums, extrema));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextChunk(Chunk* chunk) override {
    if (result_ == nullptr || pos_ >= result_->num_rows()) return false;
    chunk->table = result_;
    chunk->begin = pos_;
    chunk->end = std::min(pos_ + kChunkRows, result_->num_rows());
    chunk->sel.clear();
    pos_ = chunk->end;
    return true;
  }

  void Close() override { result_.reset(); }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "Aggregate(groups=" + std::to_string(group_cols_.size()) +
           ", aggs=" + std::to_string(aggs_.size()) + ")";
  }

 private:
  /// Assembles the result table straight from the accumulator arrays —
  /// no per-group Value boxing except string/mixed extrema.
  Table BuildOutput(uint32_t ngroups, std::vector<ColumnPtr> key_cols,
                    const std::vector<int64_t>& counts,
                    const std::vector<std::vector<double>>& sums,
                    const std::vector<MinMaxAcc>& extrema) const {
    if (schema_.num_columns() == 0) {
      // Degenerate aggregate with no outputs: keep the row count.
      Table out((std::string()), schema_);
      for (uint32_t g = 0; g < ngroups; ++g) out.AppendRow({});
      return out;
    }
    auto all_valid = [](size_t n) {
      return std::vector<uint64_t>((n + 63) / 64, ~uint64_t{0});
    };
    std::vector<ColumnPtr> cols = std::move(key_cols);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].fn) {
        case AggFn::kCount:
          cols.push_back(
              ColumnVector::FromInts(counts, all_valid(ngroups)));
          break;
        case AggFn::kSum:
          cols.push_back(
              ColumnVector::FromDoubles(sums[a], all_valid(ngroups)));
          break;
        case AggFn::kAvg: {
          std::vector<double> v(ngroups, 0.0);
          std::vector<uint64_t> bits((ngroups + 63) / 64, 0);
          for (uint32_t g = 0; g < ngroups; ++g) {
            if (counts[g] != 0) {
              v[g] = sums[a][g] / static_cast<double>(counts[g]);
              bits[g >> 6] |= uint64_t{1} << (g & 63);
            }
          }
          cols.push_back(
              ColumnVector::FromDoubles(std::move(v), std::move(bits)));
          break;
        }
        case AggFn::kMin:
        case AggFn::kMax:
          cols.push_back(ExtremeColumn(extrema[a], ngroups));
          break;
      }
    }
    return Table::FromColumns(std::string(), schema_, std::move(cols), {});
  }

  static ColumnPtr ExtremeColumn(const MinMaxAcc& acc, uint32_t ngroups) {
    std::vector<uint64_t> bits((ngroups + 63) / 64, 0);
    for (uint32_t g = 0; g < ngroups; ++g) {
      if (g < acc.seen.size() && acc.seen[g]) {
        bits[g >> 6] |= uint64_t{1} << (g & 63);
      }
    }
    switch (acc.mode) {
      case ColumnEncoding::kBool:
        return ColumnVector::FromBools(acc.b8, std::move(bits));
      case ColumnEncoding::kInt:
        return ColumnVector::FromInts(acc.i64, std::move(bits));
      case ColumnEncoding::kDouble:
        return ColumnVector::FromDoubles(acc.f64, std::move(bits));
      case ColumnEncoding::kDict:
      case ColumnEncoding::kMixed: {
        // Boxed assembly: one cell per group.
        auto col = std::make_shared<ColumnVector>();
        col->Reserve(ngroups);
        for (uint32_t g = 0; g < ngroups; ++g) {
          if (!acc.seen[g]) {
            col->AppendNull();
          } else if (acc.mode == ColumnEncoding::kDict) {
            col->Append(Value::Str(acc.str[g]));
          } else {
            col->Append(acc.val[g]);
          }
        }
        return col;
      }
      case ColumnEncoding::kEmpty:
        break;
    }
    return ColumnVector::AllNulls(ngroups);
  }

  OperatorPtr child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  TablePtr result_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------------- Sort

/// One resolved sort key over the gathered input: typed comparator state.
/// Dictionary columns compare by precomputed code rank — one string sort
/// over the dictionary instead of a string compare per row pair.
struct SortKeyCol {
  const ColumnVector* col = nullptr;
  size_t off = 0;
  bool desc = false;
  ColumnEncoding enc = ColumnEncoding::kEmpty;
  std::vector<uint32_t> rank;  // kDict: dictionary code -> sorted rank
};

/// Three-way compare of rows a/b under one key, replicating
/// Value::Compare exactly: NULL first, numerics as doubles (NaN compares
/// equal to everything numeric), strings lexicographic.
int CompareKeyAt(const SortKeyCol& k, uint32_t a, uint32_t b) {
  const ColumnVector& col = *k.col;
  size_t pa = k.off + a;
  size_t pb = k.off + b;
  bool na = col.IsNull(pa);
  bool nb = col.IsNull(pb);
  if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
  switch (k.enc) {
    case ColumnEncoding::kBool: {
      int x = col.BoolAt(pa) ? 1 : 0;
      int y = col.BoolAt(pb) ? 1 : 0;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnEncoding::kInt: {
      // Value::Compare ranks numerics as doubles; match it exactly so
      // large-int64 precision ties stay ties (stable order preserved).
      double x = static_cast<double>(col.IntAt(pa));
      double y = static_cast<double>(col.IntAt(pb));
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnEncoding::kDouble: {
      double x = col.DoubleAt(pa);
      double y = col.DoubleAt(pb);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnEncoding::kDict: {
      uint32_t x = k.rank[col.CodeAt(pa)];
      uint32_t y = k.rank[col.CodeAt(pb)];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ColumnEncoding::kMixed:
      return col.MixedAt(pa).Compare(col.MixedAt(pb));
    case ColumnEncoding::kEmpty:
      return 0;
  }
  return 0;
}

/// Monotone map from doubles (no NaN) onto u64: a < b iff image(a) <
/// image(b), equal doubles share an image. -0.0 collapses onto +0.0 so
/// the pair stays a tie, exactly as `x < y ? -1 : (x > y ? 1 : 0)` ranks
/// it. Never returns 0, so the caller can reserve 0 for NULL.
uint64_t OrderedDoubleBits(double x) {
  if (x == 0.0) x = 0.0;
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return (b >> 63) ? ~b : (b | (1ull << 63));
}

/// Whether `k` can be rendered as an order-preserving u64 per row.
/// kMixed has no cheap total-order image, and a double column holding
/// NaN cannot be packed at all: CompareKeyAt ties NaN with every
/// numeric, which no total order reproduces.
bool KeyIsPackable(const SortKeyCol& k, size_t n) {
  if (k.enc == ColumnEncoding::kMixed) return false;
  if (k.enc == ColumnEncoding::kDouble) {
    for (size_t r = 0; r < n; ++r) {
      size_t p = k.off + r;
      if (!k.col->IsNull(p)) {
        double x = k.col->DoubleAt(p);
        if (x != x) return false;
      }
    }
  }
  return true;
}

/// u64 image of row `p` under key `k`, ordered exactly as CompareKeyAt
/// orders cells: NULL is 0 (first), everything else lands above it.
/// DESC keys are handled by the caller inverting the image bits.
uint64_t PackSortKey(const SortKeyCol& k, size_t p) {
  if (k.col->IsNull(p)) return 0;
  switch (k.enc) {
    case ColumnEncoding::kBool:
      return k.col->BoolAt(p) ? 2 : 1;
    case ColumnEncoding::kInt:
      // Same double rounding as CompareKeyAt: large int64s that collide
      // as doubles stay ties.
      return OrderedDoubleBits(static_cast<double>(k.col->IntAt(p)));
    case ColumnEncoding::kDouble:
      return OrderedDoubleBits(k.col->DoubleAt(p));
    case ColumnEncoding::kDict:
      return 1ull + k.rank[k.col->CodeAt(p)];
    default:
      return 1;  // kEmpty: every non-NULL comparison ties
  }
}

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(child_->Open());
    const Schema& in = child_->output_schema();
    std::vector<std::pair<size_t, bool>> kidx;
    for (const auto& k : keys_) {
      auto idx = in.IndexOf(k.column);
      if (!idx.has_value()) {
        return Status::SyntacticError("sort by unknown column '" + k.column +
                                      "'");
      }
      kidx.emplace_back(*idx, k.descending);
    }
    // Gather the input once (chunked bulk appends), then sort an index
    // permutation: rows are never boxed and never move until a consumer
    // gathers the permutation out.
    input_ = std::make_shared<Table>(std::string(), in);
    KATHDB_RETURN_IF_ERROR(DrainInto(child_.get(), input_.get()));
    child_->Close();
    const size_t n = input_->num_rows();
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0u);
    std::vector<SortKeyCol> cmp;
    for (const auto& [idx, desc] : kidx) {
      // Missing physical columns read as all-NULL: every comparison under
      // that key ties, so it contributes nothing — skip it.
      if (idx >= input_->num_physical_columns()) continue;
      SortKeyCol k;
      k.col = &input_->column(idx);
      k.off = input_->offset();
      k.desc = desc;
      k.enc = k.col->encoding();
      if (k.enc == ColumnEncoding::kDict) {
        // Rank the dictionary once: distinct codes are distinct strings,
        // so rank order == lexicographic order, compared as uint32.
        size_t dn = k.col->dict_size();
        std::vector<uint32_t> order(dn);
        std::iota(order.begin(), order.end(), 0u);
        const ColumnVector* c = k.col;
        std::sort(order.begin(), order.end(), [c](uint32_t x, uint32_t y) {
          return c->DictEntry(x) < c->DictEntry(y);
        });
        k.rank.resize(dn);
        for (size_t r = 0; r < dn; ++r) {
          k.rank[order[r]] = static_cast<uint32_t>(r);
        }
      }
      cmp.push_back(std::move(k));
    }
    if (!cmp.empty() && n > 1 && !TrySortPacked(cmp, n)) {
      std::stable_sort(perm_.begin(), perm_.end(),
                       [&cmp](uint32_t a, uint32_t b) {
                         for (const auto& k : cmp) {
                           int c = CompareKeyAt(k, a, b);
                           if (c != 0) return k.desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    pos_ = 0;
    return Status::OK();
  }

  /// Fast path for totally-ordered keys: render each key as an
  /// order-preserving u64 per row, then stable_sort contiguous
  /// {keys..., index} records. The merge passes stream sequentially
  /// through one packed array instead of chasing the permutation into
  /// per-column storage and re-deciding NULL/encoding on every
  /// comparison, which is where the generic comparator spends its time.
  /// Returns false (perm_ untouched) when any key resists packing.
  bool TrySortPacked(const std::vector<SortKeyCol>& cmp, size_t n) {
    for (const auto& k : cmp) {
      if (!KeyIsPackable(k, n)) return false;
    }
    auto key_at = [](const SortKeyCol& k, size_t r) {
      uint64_t v = PackSortKey(k, k.off + r);
      // Bit inversion flips the whole order, NULL placement included —
      // the same effect as CompareKeyAt's per-key DESC sign flip.
      return k.desc ? ~v : v;
    };
    if (cmp.size() == 1) {
      struct E {
        uint64_t k0;
        uint32_t idx;
      };
      std::vector<E> e(n);
      for (size_t r = 0; r < n; ++r) {
        e[r] = {key_at(cmp[0], r), static_cast<uint32_t>(r)};
      }
      std::stable_sort(e.begin(), e.end(),
                       [](const E& a, const E& b) { return a.k0 < b.k0; });
      for (size_t r = 0; r < n; ++r) perm_[r] = e[r].idx;
      return true;
    }
    if (cmp.size() == 2) {
      struct E {
        uint64_t k0;
        uint64_t k1;
        uint32_t idx;
      };
      std::vector<E> e(n);
      for (size_t r = 0; r < n; ++r) {
        e[r] = {key_at(cmp[0], r), key_at(cmp[1], r),
                static_cast<uint32_t>(r)};
      }
      std::stable_sort(e.begin(), e.end(), [](const E& a, const E& b) {
        if (a.k0 != b.k0) return a.k0 < b.k0;
        return a.k1 < b.k1;
      });
      for (size_t r = 0; r < n; ++r) perm_[r] = e[r].idx;
      return true;
    }
    // Three or more keys: row-major key matrix, permutation sort. Less
    // cache-friendly than the struct forms but still branch-cheap.
    const size_t nk = cmp.size();
    std::vector<uint64_t> keys(n * nk);
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < nk; ++j) keys[r * nk + j] = key_at(cmp[j], r);
    }
    std::stable_sort(perm_.begin(), perm_.end(),
                     [&keys, nk](uint32_t a, uint32_t b) {
                       const uint64_t* ka = &keys[a * nk];
                       const uint64_t* kb = &keys[b * nk];
                       for (size_t j = 0; j < nk; ++j) {
                         if (ka[j] != kb[j]) return ka[j] < kb[j];
                       }
                       return false;
                     });
    return true;
  }

  Result<bool> NextChunk(Chunk* chunk) override {
    // Zero extra materialization: chunks are selection-vector windows of
    // the permutation over the gathered input; AppendGather carries the
    // cells and lids out in sorted order.
    if (pos_ >= perm_.size()) return false;
    size_t end = std::min(pos_ + kChunkRows, perm_.size());
    chunk->table = input_;
    chunk->begin = 0;
    chunk->end = input_->num_rows();
    chunk->sel.assign(perm_.begin() + pos_, perm_.begin() + end);
    pos_ = end;
    return true;
  }

  void Close() override {
    input_.reset();
    perm_.clear();
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    std::string out = "Sort(";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) out += ", ";
      out += keys_[i].column + (keys_[i].descending ? " DESC" : " ASC");
    }
    return out + ")";
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  TablePtr input_;
  std::vector<uint32_t> perm_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------------ Limit
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> NextChunk(Chunk* chunk) override {
    // Passes chunks through, cutting the one that reaches the limit.
    if (emitted_ >= limit_) return false;
    KATHDB_ASSIGN_OR_RETURN(bool has, child_->NextChunk(chunk));
    if (!has) return false;
    const size_t take = std::min(chunk->size(), limit_ - emitted_);
    if (chunk->sel.empty()) {
      chunk->end = chunk->begin + take;
    } else {
      chunk->sel.resize(take);
    }
    emitted_ += take;
    return true;
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

// --------------------------------------------------------------- Distinct
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}

  Status Open() override {
    const size_t width = child_->output_schema().num_columns();
    cols_.resize(width);
    std::iota(cols_.begin(), cols_.end(), size_t{0});
    kept_ = Table(std::string(), child_->output_schema());
    buckets_.clear();
    return child_->Open();
  }
  Result<bool> NextChunk(Chunk* chunk) override {
    // Rows are bucketed by the hash of all their cells; a bucket hit is
    // confirmed cell by cell, so distinct rows never merge. The chunk's
    // table passes through with a selection vector of first occurrences.
    while (true) {
      Chunk in;
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&in));
      if (!has) return false;
      const Table& t = *in.table;
      std::vector<uint32_t> rows = TakeRows(&in);
      std::vector<uint32_t> phys = rows;
      for (uint32_t& p : phys) p += static_cast<uint32_t>(t.offset());
      std::vector<uint64_t> hashes;
      FoldRowHashes(t, phys, cols_, &hashes);
      // Bucket entries number kept rows: below `base` they live in kept_,
      // from `base` on they are this chunk's keep[k - base].
      const size_t base = kept_.num_rows();
      std::vector<uint32_t> keep;
      for (size_t i = 0; i < rows.size(); ++i) {
        std::vector<uint32_t>& bucket = buckets_[hashes[i]];
        bool dup = std::any_of(bucket.begin(), bucket.end(), [&](uint32_t k) {
          return k < base ? RowsEqual(kept_, k, t, rows[i])
                          : RowsEqual(t, keep[k - base], t, rows[i]);
        });
        if (dup) continue;
        bucket.push_back(static_cast<uint32_t>(base + keep.size()));
        keep.push_back(rows[i]);
      }
      if (keep.empty()) continue;
      kept_.AppendGather(t, keep.data(), keep.size());
      chunk->table = std::move(in.table);
      chunk->begin = in.begin;
      chunk->end = in.end;
      chunk->sel = std::move(keep);
      return true;
    }
  }
  void Close() override {
    child_->Close();
    kept_ = Table();
    buckets_.clear();
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override { return "Distinct"; }

 private:
  OperatorPtr child_;
  std::vector<size_t> cols_;  // every column: rows compare whole
  Table kept_;                // first occurrences seen so far
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

}  // namespace

OperatorPtr MakeSeqScan(TablePtr table) {
  return std::make_unique<SeqScanOp>(std::move(table));
}
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs),
                                     std::move(names));
}
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::string left_col, std::string right_col,
                         std::string right_prefix) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_col),
                                      std::move(right_col),
                                      std::move(right_prefix));
}
OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               ExprPtr predicate, std::string right_prefix) {
  return std::make_unique<NestedLoopJoinOp>(std::move(left), std::move(right),
                                            std::move(predicate),
                                            std::move(right_prefix));
}
OperatorPtr MakeAggregate(OperatorPtr child,
                          std::vector<std::string> group_cols,
                          std::vector<AggSpec> aggs) {
  return std::make_unique<AggregateOp>(std::move(child), std::move(group_cols),
                                       std::move(aggs));
}
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}
OperatorPtr MakeLimit(OperatorPtr child, size_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}
OperatorPtr MakeDistinct(OperatorPtr child) {
  return std::make_unique<DistinctOp>(std::move(child));
}

}  // namespace kathdb::rel
