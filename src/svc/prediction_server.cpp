#include "svc/prediction_server.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "serialize/binary.h"
#include "trace/parallel_loader.h"

namespace helios::svc {

namespace {

constexpr std::uint32_t kSvcTag = serialize::fourcc("SVCK");
constexpr std::uint32_t kSvcVersion = 1;

/// Parses headerless CSV rows into a batch trace. Batches of at least
/// `parallel_parse_bytes` shard-parse on the global pool, the rest inline;
/// appending the batch to a trace assigns the same interner ids as
/// appending its rows one by one.
trace::Trace parse_rows(std::string_view csv_rows,
                        std::size_t parallel_parse_bytes) {
  trace::LoadOptions opts;
  opts.min_chunk_bytes = parallel_parse_bytes;
  return trace::ParallelLoader(opts).load_rows(csv_rows);
}

/// `previous` when it holds the same table as `current` (interners only
/// grow, so equal sizes mean equal tables), else a copy of `current`.
std::shared_ptr<const StringInterner> share_interner(
    std::shared_ptr<const StringInterner> previous,
    const StringInterner& current) {
  if (previous != nullptr && previous->size() == current.size()) {
    return previous;
  }
  return std::make_shared<const StringInterner>(current);
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot::Snapshot(const core::QssfService& service, const trace::Trace& stream,
                   std::uint64_t rows_ingested, std::uint64_t gpu_jobs_ingested,
                   const Snapshot* previous)
    : service_(service.query_copy()),
      users_(share_interner(previous ? previous->users_ : nullptr,
                            stream.users())),
      vcs_(share_interner(previous ? previous->vcs_ : nullptr, stream.vcs())),
      rows_(rows_ingested),
      gpu_jobs_(gpu_jobs_ingested) {}

core::JobQuery Snapshot::resolve(const QueryRequest& request) const {
  core::JobQuery q;
  q.user = request.user;
  q.job_name = request.job_name;
  const std::uint32_t user_id = users_->find(request.user);
  q.user_id = user_id == StringInterner::kNotFound
                  ? static_cast<std::uint32_t>(users_->size())
                  : user_id;
  const std::uint32_t vc_id = vcs_->find(request.vc);
  q.vc_id = vc_id == StringInterner::kNotFound
                ? static_cast<std::uint32_t>(vcs_->size())
                : vc_id;
  q.num_gpus = request.num_gpus;
  q.num_cpus = request.num_cpus;
  q.submit_time = request.submit_time;
  return q;
}

QueryResult Snapshot::query(const QueryRequest& request) const {
  const core::JobQuery q = resolve(request);
  const double duration = service_.predict_duration(q);
  return {core::QssfService::expected_gpu_time(q.num_gpus, duration), duration};
}

// ---------------------------------------------------------------------------
// PredictionServer
// ---------------------------------------------------------------------------

PredictionServer::PredictionServer(core::QssfService service,
                                   trace::Trace context, ServerConfig config)
    : config_(std::move(config)),
      service_(std::move(service)),
      stream_(std::move(context)),
      context_rows_(stream_.size()),
      context_users_(stream_.users().size()),
      context_vcs_(stream_.vcs().size()),
      context_names_(stream_.names().size()),
      snapshot_(std::make_unique<SnapshotSlot>()) {
  publish();
}

void PredictionServer::publish() {
  // Only this (ingest) thread replaces the snapshot, so the one read here
  // stays current while its successor is built outside the lock.
  const std::shared_ptr<const Snapshot> replaced = snapshot();
  auto fresh = std::make_shared<const Snapshot>(
      service_, stream_, rows_ingested_, gpu_jobs_ingested_, replaced.get());
  {
    const std::lock_guard lock(snapshot_->mutex);
    snapshot_->current.swap(fresh);
  }
  // `fresh` and `replaced` now both hold the old snapshot; it is freed here,
  // outside the lock, once no reader holds it either.
}

std::size_t PredictionServer::ingest_csv(std::string_view csv_rows) {
  if (csv_rows.empty()) return 0;
  const std::size_t first = stream_.size();
  // A malformed row throws here, before stream_ is touched.
  stream_.append(parse_rows(csv_rows, config_.parallel_parse_bytes));
  bytes_ingested_ += csv_rows.size();
  const std::size_t appended = stream_.size() - first;
  rows_ingested_ += appended;
  if (appended == 0) return 0;

  for (std::size_t i = first; i < stream_.size(); ++i) {
    const trace::JobRecord& job = stream_.jobs()[i];
    if (!job.is_gpu_job()) continue;
    // Absolute stream indices shift the evaluator's eval-local ones
    // uniformly, so the queue's (finish, index) pop order is preserved.
    const double p = core::causal_step(service_, queue_, stream_,
                                       static_cast<std::uint32_t>(i));
    log_.push_back({job.job_id, p});
    ++gpu_jobs_ingested_;
    if (config_.publish_every != 0 &&
        gpu_jobs_ingested_ % config_.publish_every == 0) {
      publish();
    }
  }

  if (config_.checkpoint_every != 0 &&
      gpu_jobs_ingested_ - jobs_at_last_checkpoint_ >= config_.checkpoint_every) {
    checkpoint();
  } else {
    publish();
  }
  return appended;
}

std::string PredictionServer::checkpoint() {
  const std::string path =
      config_.checkpoint_prefix + "." + std::to_string(checkpoint_seq_);
  ++checkpoint_seq_;  // the file records the incremented value, so a restored
                      // server continues the sequence without overwriting
  jobs_at_last_checkpoint_ = gpu_jobs_ingested_;
  serialize::save_file(path, *this);
  publish();
  return path;
}

void PredictionServer::save(serialize::Writer& w) const {
  w.begin_section(kSvcTag);
  w.u32(kSvcVersion);
  w.u64(context_rows_);
  w.u64(context_users_);
  w.u64(context_vcs_);
  w.u64(context_names_);
  w.u64(rows_ingested_);
  w.u64(gpu_jobs_ingested_);
  w.u64(bytes_ingested_);
  w.u64(checkpoint_seq_);
  service_.save(w);
  // Streamed rows travel as CSV — every field is an integer or a verbatim
  // interned string, and re-appending them in order onto the (validated)
  // context reproduces bit-identical records and interner ids.
  std::string rows;
  stream_.save_csv_rows(rows, context_rows_,
                        static_cast<std::size_t>(rows_ingested_));
  w.str(rows);
  w.u64(queue_.entries().size());
  for (const core::ReplayQueue::Entry& e : queue_.entries()) {
    w.i64(e.finish);
    w.u32(e.index);
  }
  w.u64(log_.size());
  for (const PricedJob& p : log_) {
    w.u64(p.job_id);
    w.f64(p.priority);
  }
  w.end_section();
}

void PredictionServer::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kSvcTag);
  const std::uint32_t version = s.u32();
  if (version != kSvcVersion) {
    throw serialize::Error(serialize::ErrorCode::kUnsupportedVersion,
                           "svc section version " + std::to_string(version));
  }
  if (rows_ingested_ != 0) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc load requires a freshly constructed server");
  }
  const std::uint64_t ctx_rows = s.u64();
  const std::uint64_t ctx_users = s.u64();
  const std::uint64_t ctx_vcs = s.u64();
  const std::uint64_t ctx_names = s.u64();
  if (ctx_rows != context_rows_ || ctx_users != context_users_ ||
      ctx_vcs != context_vcs_ || ctx_names != context_names_) {
    throw serialize::Error(
        serialize::ErrorCode::kCorrupt,
        "svc checkpoint was taken against a different trace context");
  }
  const std::uint64_t rows_ingested = s.u64();
  const std::uint64_t gpu_jobs = s.u64();
  const std::uint64_t bytes = s.u64();
  const std::uint64_t seq = s.u64();

  core::QssfService service;
  service.load(s);

  trace::Trace rows;  // appended onto stream_ only on full success
  try {
    rows = parse_rows(s.str(), config_.parallel_parse_bytes);
  } catch (const std::runtime_error& e) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           std::string("svc streamed rows: ") + e.what());
  }
  if (rows.size() != rows_ingested) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc streamed row count mismatch");
  }
  const std::size_t stream_rows = context_rows_ + rows.size();

  const std::size_t n_queue = s.length(12);  // i64 + u32 per entry
  std::vector<core::ReplayQueue::Entry> entries(n_queue);
  for (core::ReplayQueue::Entry& e : entries) {
    e.finish = s.i64();
    e.index = s.u32();
    if (e.index < context_rows_ || e.index >= stream_rows) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "svc queue entry outside the streamed rows");
    }
  }

  const std::size_t n_log = s.length(16);  // u64 + f64 per entry
  if (n_log != gpu_jobs) {
    throw serialize::Error(serialize::ErrorCode::kCorrupt,
                           "svc priority log length mismatch");
  }
  std::vector<PricedJob> log(n_log);
  for (PricedJob& p : log) {
    p.job_id = s.u64();
    p.priority = s.f64();
  }
  s.close("svc");

  service_ = std::move(service);
  stream_.append(rows);
  queue_.restore(std::move(entries));
  log_ = std::move(log);
  rows_ingested_ = rows_ingested;
  gpu_jobs_ingested_ = gpu_jobs;
  bytes_ingested_ = bytes;
  checkpoint_seq_ = seq;
  jobs_at_last_checkpoint_ = gpu_jobs;
  publish();
}

}  // namespace helios::svc
