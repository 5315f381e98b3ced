#include "relational/spill.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/flat_hash.h"
#include "relational/serialize.h"
#include "relational/tuple.h"

namespace qf {
namespace {

// splitmix64-style finalizer over (hash, level): each recursion level
// sees a statistically independent partition assignment, so a partition
// that collides at level k spreads at level k+1 — unless the keys are
// genuinely equal, in which case no hash can separate them and max_depth
// ends the recursion.
std::uint64_t MixLevel(std::uint64_t h, std::size_t level) {
  std::uint64_t x =
      h + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(level) + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::size_t PartitionOf(std::uint64_t hash, std::size_t level,
                        std::size_t fanout) {
  return static_cast<std::size_t>(MixLevel(hash, level) % fanout);
}

// Deadline/cancel poll at the usual stride; `i` is the caller's loop
// counter. Returns the latched typed error once the context trips.
Status PollCtx(QueryContext* ctx, std::size_t i) {
  if (ctx == nullptr) return Status::Ok();
  if (i % QueryContext::kPollStride == 0 && !ctx->Poll()) return ctx->Check();
  if (!ctx->ok()) return ctx->Check();
  return Status::Ok();
}

// The flat-hash kernels address rows by 32-bit refs (same bound as
// relational/ops.cc); one partition never legitimately exceeds it.
void CheckRefRange(std::size_t rows) {
  QF_CHECK_MSG(rows < 0xFFFFFFFFull,
               "flat-hash kernels address at most 2^32-1 rows");
}

// --- record codecs ---------------------------------------------------
// Every spill record leads with the row's 64-bit group-key hash so
// recursion can redistribute records without decoding the values.

void EncodeRecord(std::string& out, std::uint64_t hash,
                  std::span<const Value> row) {
  out.clear();
  PutU64(out, hash);
  for (const Value& v : row) PutValue(out, v);
}

Status CorruptRecord() { return IoError("corrupt spill record"); }

Status PeekHash(std::string_view record, std::uint64_t* hash) {
  ByteReader r(record);
  if (!r.GetU64(hash)) return CorruptRecord();
  return Status::Ok();
}

Status DecodeRecord(std::string_view record, std::size_t arity,
                    std::uint64_t* hash, Tuple* row) {
  ByteReader r(record);
  if (!r.GetU64(hash)) return CorruptRecord();
  row->resize(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    if (!r.GetValue(&(*row)[i])) return CorruptRecord();
  }
  if (!r.AtEnd()) return CorruptRecord();  // arity mismatch
  return Status::Ok();
}

// --- partition plumbing ----------------------------------------------

std::vector<std::unique_ptr<SpillWriter>> MakeWriters(SpillEnv& env) {
  std::vector<std::unique_ptr<SpillWriter>> writers;
  writers.reserve(env.fanout);
  for (std::size_t i = 0; i < env.fanout; ++i) {
    writers.push_back(std::make_unique<SpillWriter>(env));
  }
  return writers;
}

Status FinishWriters(std::vector<std::unique_ptr<SpillWriter>>& writers) {
  for (auto& w : writers) {
    if (Status s = w->Finish(); !s.ok()) return s;
  }
  return Status::Ok();
}

// Streams `path` and redistributes its records into fresh writers
// partitioned at `level` by each record's leading key hash. The caller
// owns the returned writers (their destructors remove the sub-files).
Status Repartition(SpillEnv& env, const std::string& path, std::size_t level,
                   std::vector<std::unique_ptr<SpillWriter>>& out,
                   QueryContext* ctx) {
  out = MakeWriters(env);
  env.stats.recursions.fetch_add(1, std::memory_order_relaxed);
  SpillReader reader(*env.vfs, path, &env);
  std::string_view rec;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    if (Status s = PollCtx(ctx, ++i); !s.ok()) return s;
    std::uint64_t h = 0;
    if (Status s = PeekHash(rec, &h); !s.ok()) return s;
    if (Status s = out[PartitionOf(h, level, env.fanout)]->Add(rec); !s.ok()) {
      return s;
    }
  }
  if (!reader.status().ok()) return reader.status();
  return FinishWriters(out);
}

// True when loading `records` more rows of the given footprint would
// breach the hard budget and another split level is still allowed.
bool ShouldRecurse(QueryContext* ctx, const SpillEnv& env, std::size_t level,
                   std::uint64_t load_bytes) {
  if (ctx == nullptr || ctx->budget_bytes() == 0) return false;
  if (level + 1 >= env.max_depth) return false;
  return ctx->used_bytes() + load_bytes > ctx->budget_bytes();
}

}  // namespace

// ---------------------------------------------------------------------
// Activation and file management.

bool SpillWanted(const QueryContext* ctx, std::uint64_t projected_bytes) {
  if (ctx == nullptr) return false;
  SpillEnv* env = ctx->spill_env();
  if (env == nullptr || env->vfs == nullptr) return false;
  if (ctx->budget_bytes() == 0) return false;
  double limit = env->activation * static_cast<double>(ctx->budget_bytes());
  return static_cast<double>(ctx->used_bytes()) +
             static_cast<double>(projected_bytes) >
         limit;
}

std::string NewSpillPath(SpillEnv& env) {
  std::uint64_t n = env.seq.fetch_add(1, std::memory_order_relaxed);
  return env.dir + "/" + kSpillFilePrefix + std::to_string(n);
}

Result<std::size_t> RemoveSpillFiles(Vfs& vfs, const std::string& dir) {
  Result<std::vector<std::string>> names = vfs.ListDir(dir);
  if (!names.ok()) return names.status();
  std::size_t removed = 0;
  for (const std::string& name : *names) {
    if (!name.starts_with(kSpillFilePrefix)) continue;
    if (Status s = vfs.Remove(dir + "/" + name); !s.ok()) return s;
    ++removed;
  }
  return removed;
}

// ---------------------------------------------------------------------
// SpillWriter / SpillReader.

SpillWriter::SpillWriter(SpillEnv& env) : env_(env), path_(NewSpillPath(env)) {}

SpillWriter::~SpillWriter() {
  if (file_ != nullptr) file_->Close();
  // RAII cleanup: an aborted statement unwinds its writers and leaves no
  // temp files behind; orphans only survive a process kill.
  if (created_) env_.vfs->Remove(path_);
}

Status SpillWriter::Add(std::string_view record) {
  if (!status_.ok()) return status_;
  PutU32(block_, static_cast<std::uint32_t>(record.size()));
  block_.append(record);
  ++records_;
  env_.stats.spilled_rows.fetch_add(1, std::memory_order_relaxed);
  if (block_.size() >= env_.block_bytes) return FlushBlock();
  return Status::Ok();
}

Status SpillWriter::FlushBlock() {
  if (!status_.ok()) return status_;
  if (block_.empty()) return Status::Ok();
  if (file_ == nullptr) {
    created_ = true;  // before opening: cleanup is attempted regardless
    if (Status s = env_.vfs->CreateDirs(env_.dir); !s.ok()) {
      return status_ = s;
    }
    Result<std::unique_ptr<WritableFile>> f = env_.vfs->OpenTrunc(path_);
    if (!f.ok()) return status_ = f.status();
    file_ = std::move(*f);
    env_.stats.partitions.fetch_add(1, std::memory_order_relaxed);
  }
  std::string header;
  PutU32(header, static_cast<std::uint32_t>(block_.size()));
  PutU32(header, Crc32cMask(Crc32c(block_)));
  if (Status s = file_->Append(header); !s.ok()) return status_ = s;
  if (Status s = file_->Append(block_); !s.ok()) return status_ = s;
  std::uint64_t wrote = header.size() + block_.size();
  bytes_ += wrote;
  env_.stats.bytes_written.fetch_add(wrote, std::memory_order_relaxed);
  block_.clear();
  return Status::Ok();
}

Status SpillWriter::Finish() {
  if (Status s = FlushBlock(); !s.ok()) return s;
  if (file_ != nullptr) {
    // No Sync: spill files are transient; a crash loses them by design.
    if (Status s = file_->Close(); !s.ok()) return status_ = s;
    file_ = nullptr;
  }
  return Status::Ok();
}

SpillReader::SpillReader(Vfs& vfs, std::string path, SpillEnv* env)
    : vfs_(vfs), path_(std::move(path)), env_(env) {}

Status SpillReader::LoadBlock() {
  Result<std::string> header = vfs_.ReadAt(path_, offset_, 8);
  if (!header.ok()) return header.status();
  if (header->empty()) {
    eof_ = true;
    return Status::Ok();
  }
  if (header->size() < 8) {
    return IoError("torn spill block header in " + path_);
  }
  ByteReader r(*header);
  std::uint32_t len = 0, masked = 0;
  r.GetU32(&len);
  r.GetU32(&masked);
  Result<std::string> payload = vfs_.ReadAt(path_, offset_ + 8, len);
  if (!payload.ok()) return payload.status();
  if (payload->size() != len) {
    return IoError("truncated spill block in " + path_);
  }
  if (Crc32c(*payload) != Crc32cUnmask(masked)) {
    return IoError("spill block checksum mismatch in " + path_);
  }
  offset_ += 8 + static_cast<std::uint64_t>(len);
  if (env_ != nullptr) {
    env_->stats.bytes_read.fetch_add(8 + static_cast<std::uint64_t>(len),
                                     std::memory_order_relaxed);
  }
  block_ = std::move(*payload);
  pos_ = 0;
  return Status::Ok();
}

bool SpillReader::Next(std::string_view* record) {
  if (!status_.ok() || eof_) return false;
  while (pos_ >= block_.size()) {
    status_ = LoadBlock();
    if (!status_.ok() || eof_) return false;
  }
  if (block_.size() - pos_ < 4) {
    status_ = IoError("torn spill record in " + path_);
    return false;
  }
  ByteReader r(std::string_view(block_).substr(pos_, 4));
  std::uint32_t len = 0;
  r.GetU32(&len);
  pos_ += 4;
  if (block_.size() - pos_ < len) {
    status_ = IoError("torn spill record in " + path_);
    return false;
  }
  *record = std::string_view(block_).substr(pos_, len);
  pos_ += len;
  return true;
}

// ---------------------------------------------------------------------
// SpillGroupSink.

// Accounted bytes of one group: its key-table slot and stored hash, its
// first-row id and its accumulator. Rows are charged ApproxTupleBytes.
constexpr std::size_t kGroupBytes = 16 + sizeof(std::uint64_t) +
                                    sizeof(std::uint32_t) +
                                    sizeof(AggAccumulator);

// Distinct rows and their groups in memory: the sink's whole state before
// a spill, one partition's while Finish drains it.
class SpillGroupSink::Table {
 public:
  Table(std::size_t arity, std::size_t key_n)
      : arity_(arity), key_n_(key_n) {}

  std::size_t rows() const { return row_ids_.size(); }
  std::size_t groups() const { return accs_.size(); }
  std::span<const Value> row(std::size_t r) const {
    return {values_.data() + r * arity_, arity_};
  }

  // Stores `row` unless an equal row is already present; true when new.
  bool InsertRow(std::span<const Value> row, std::uint64_t& probes) {
    CheckRefRange(rows());
    bool inserted = row_ids_.Upsert(
        TupleHash::Of(row),
        [&](std::uint32_t r) {
          return std::equal(row.begin(), row.end(),
                            values_.begin() + r * arity_);
        },
        probes).second;
    if (inserted) values_.insert(values_.end(), row.begin(), row.end());
    return inserted;
  }

  // Folds the newest row into its group, upserting the group.
  void AccumulateNewest(std::uint64_t key_hash, AggKind kind,
                        std::size_t agg_idx, std::uint64_t& probes) {
    const std::uint32_t r = static_cast<std::uint32_t>(rows() - 1);
    std::span<const Value> newest = row(r);
    auto [group, inserted] = group_ids_.Upsert(
        key_hash,
        [&](std::uint32_t g) {
          return std::equal(newest.begin(), newest.begin() + key_n_,
                            values_.begin() + first_row_[g] * arity_);
        },
        probes);
    if (inserted) {
      first_row_.push_back(r);
      accs_.emplace_back();
    }
    accs_[group].Add(kind, newest, agg_idx);
  }

  // Appends key + aggregate of every group whose aggregate passes `keep`.
  void Emit(AggKind kind, const std::function<bool(const Value&)>& keep,
            std::vector<Tuple>& out) const {
    for (std::size_t g = 0; g < accs_.size(); ++g) {
      Value v = accs_[g].Result(kind);
      if (keep != nullptr && !keep(v)) continue;
      std::span<const Value> first = row(first_row_[g]);
      Tuple t(first.begin(), first.begin() + key_n_);
      t.push_back(v);
      out.push_back(std::move(t));
    }
  }

 private:
  std::size_t arity_;
  std::size_t key_n_;
  std::vector<Value> values_;            // distinct rows, arity-strided
  FlatIdTable row_ids_;                  // full-row hash -> row id
  FlatIdTable group_ids_;                // key hash -> group id
  std::vector<std::uint32_t> first_row_;  // group id -> its first row
  std::vector<AggAccumulator> accs_;      // group id -> aggregate
};

SpillGroupSink::SpillGroupSink(Schema schema, std::size_t key_columns,
                               AggKind kind, const std::string& agg_column,
                               std::string output_column,
                               std::function<Status(const Tuple&)> row_check,
                               SpillEnv* env, QueryContext* ctx,
                               OpMetrics* metrics)
    : arity_(schema.arity()),
      key_n_(key_columns),
      kind_(kind),
      row_check_(std::move(row_check)),
      env_(env),
      ctx_(ctx),
      metrics_(metrics),
      table_(std::make_unique<Table>(arity_, key_n_)) {
  QF_CHECK_MSG(key_n_ <= arity_, "group key wider than the row");
  if (kind_ != AggKind::kCount) agg_idx_ = schema.IndexOfOrDie(agg_column);
  for (std::size_t i = 0; i < key_n_; ++i) {
    out_columns_.push_back(schema.column(i));
  }
  out_columns_.push_back(std::move(output_column));
}

SpillGroupSink::~SpillGroupSink() {
  if (ctx_ != nullptr) ctx_->Release(charged_);
}

std::uint64_t SpillGroupSink::KeyHash(std::span<const Value> row) const {
  // The key is the row's leading prefix: this is KeyCols::Hash over
  // columns 0..key_n-1, so in-memory and partition hashes agree.
  return TupleHash::Of(row.first(key_n_));
}

Status SpillGroupSink::AddToTable(Table& table, std::span<const Value> row,
                                  std::uint64_t key_hash) {
  if (!table.InsertRow(row, probes_)) return Status::Ok();
  if (row_check_ != nullptr) {
    check_row_.assign(row.begin(), row.end());
    if (Status s = row_check_(check_row_); !s.ok()) return s;
  }
  table.AccumulateNewest(key_hash, kind_, agg_idx_, probes_);
  return Status::Ok();
}

Status SpillGroupSink::Push(std::span<const Value> row) {
  if (!status_.ok()) return status_;
  QF_CHECK_MSG(row.size() == arity_, "pushed row arity mismatch");
  if (Status s = PollCtx(ctx_, ++pushed_rows_); !s.ok()) return status_ = s;
  const std::uint64_t key_hash = KeyHash(row);
  if (table_ == nullptr) return status_ = WriteRecord(row, key_hash);
  const std::size_t before = table_->rows();
  const std::size_t groups_before = table_->groups();
  if (Status s = AddToTable(*table_, row, key_hash); !s.ok()) {
    // A failed row check is the statement's answer, reported by Finish.
    if (check_status_.ok()) check_status_ = s;
    return Status::Ok();
  }
  uncharged_groups_ += table_->groups() - groups_before;
  if (table_->rows() != before &&
      ++uncharged_ == QueryContext::kPollStride) {
    return status_ = ChargePoint();
  }
  return Status::Ok();
}

// Charges the rows and groups added since the last charge point — or,
// when the spill rule fires for them, moves the whole state to disk
// instead.
Status SpillGroupSink::ChargePoint() {
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(uncharged_) * ApproxTupleBytes(arity_) +
      static_cast<std::uint64_t>(uncharged_groups_) * kGroupBytes;
  uncharged_ = 0;
  uncharged_groups_ = 0;
  if (ctx_ == nullptr) return Status::Ok();
  if (env_ != nullptr && SpillWanted(ctx_, bytes)) return Spill();
  if (!ctx_->Charge(bytes)) return ctx_->Check();
  charged_ += bytes;
  mem_bytes_ += bytes;
  return Status::Ok();
}

Status SpillGroupSink::Spill() {
  env_->stats.activations.fetch_add(1, std::memory_order_relaxed);
  writers_ = MakeWriters(*env_);
  std::unique_ptr<Table> table = std::move(table_);
  for (std::size_t r = 0; r < table->rows(); ++r) {
    if (Status s = PollCtx(ctx_, r + 1); !s.ok()) return s;
    std::span<const Value> row = table->row(r);
    if (Status s = WriteRecord(row, KeyHash(row)); !s.ok()) return s;
  }
  ctx_->Release(charged_);
  charged_ = 0;
  return Status::Ok();
}

Status SpillGroupSink::WriteRecord(std::span<const Value> row,
                                   std::uint64_t key_hash) {
  EncodeRecord(scratch_, key_hash, row);
  return writers_[PartitionOf(key_hash, 0, env_->fanout)]->Add(scratch_);
}

Status SpillGroupSink::ProcessPartition(
    const std::string& path, std::uint64_t records, std::size_t level,
    const std::function<bool(const Value&)>& keep, std::vector<Tuple>& out) {
  // Every record may be a new row of a new group.
  const std::size_t row_bytes = ApproxTupleBytes(arity_);
  if (ShouldRecurse(ctx_, *env_, level,
                    records * (row_bytes + kGroupBytes))) {
    std::vector<std::unique_ptr<SpillWriter>> subs;
    if (Status s = Repartition(*env_, path, level + 1, subs, ctx_); !s.ok()) {
      return s;
    }
    for (auto& sub : subs) {
      if (sub->records() == 0) continue;
      if (Status s = ProcessPartition(sub->path(), sub->records(), level + 1,
                                      keep, out);
          !s.ok()) {
        return s;
      }
    }
    return Status::Ok();  // subs destruct here -> sub-files removed
  }

  // Leaf: stream the partition through a fresh in-memory table. A group's
  // rows all land here, in push order, so its accumulation order matches
  // the unspilled sink's exactly.
  Table table(arity_, key_n_);
  OpGovernor gov(ctx_, row_bytes);
  OpGovernor group_gov(ctx_, kGroupBytes);
  SpillReader reader(*env_->vfs, path, env_);
  std::string_view rec;
  Tuple row;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    if (Status s = PollCtx(ctx_, ++i); !s.ok()) return s;
    std::uint64_t h = 0;
    if (Status s = DecodeRecord(rec, arity_, &h, &row); !s.ok()) return s;
    const std::size_t before = table.rows();
    const std::size_t groups_before = table.groups();
    if (Status s = AddToTable(table, row, h); !s.ok()) return s;
    if (table.rows() != before && !gov.Admit()) return ctx_->Check();
    if (table.groups() != groups_before && !group_gov.Admit()) {
      return ctx_->Check();
    }
  }
  if (!reader.status().ok()) return reader.status();
  if ((!gov.Flush() || !group_gov.Flush()) && ctx_ != nullptr) {
    return ctx_->Check();
  }
  const std::uint64_t table_bytes =
      gov.total_bytes() + group_gov.total_bytes();
  answer_rows_ += table.rows();
  groups_ += table.groups();
  mem_bytes_ += table_bytes;
  table.Emit(kind_, keep, out);
  if (ctx_ != nullptr) ctx_->Release(table_bytes);  // drop the table
  return Status::Ok();
}

Result<Relation> SpillGroupSink::Finish(
    const std::function<bool(const Value&)>& keep) {
  if (!status_.ok()) return status_;
  if (!check_status_.ok()) return check_status_;
  if (table_ != nullptr && uncharged_ > 0) {
    if (Status s = ChargePoint(); !s.ok()) return status_ = s;
  }
  std::vector<Tuple> rows;
  if (table_ != nullptr) {
    answer_rows_ = table_->rows();
    groups_ = table_->groups();
    table_->Emit(kind_, keep, rows);
    table_.reset();
    if (ctx_ != nullptr) ctx_->Release(charged_);
    charged_ = 0;
  } else {
    if (Status s = FinishWriters(writers_); !s.ok()) return status_ = s;
    for (auto& w : writers_) {
      if (w->records() == 0) continue;
      if (Status s = ProcessPartition(w->path(), w->records(), 0, keep, rows);
          !s.ok()) {
        return status_ = s;
      }
    }
  }
  // Group keys are unique (across partitions too), so one sort yields the
  // canonical order of the in-memory kernel.
  Relation out{Schema(out_columns_)};
  out.mutable_rows() = std::move(rows);
  out.SortRows();
  std::uint64_t out_bytes =
      static_cast<std::uint64_t>(out.size()) * ApproxTupleBytes(out.arity());
  if (ctx_ != nullptr && !ctx_->Charge(out_bytes)) return ctx_->Check();
  if (metrics_ != nullptr) {
    metrics_->rows_in += answer_rows_;
    metrics_->rows_out += groups_;
    metrics_->tuples_probed += probes_;
    metrics_->mem_bytes += mem_bytes_ + out_bytes;
  }
  return out;
}

}  // namespace qf
