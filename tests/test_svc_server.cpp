// svc::PredictionServer determinism suite (smoke):
//
//  * incremental feed — the server's priority log over a streamed September,
//    however the rows are batched, must be bit-identical to the batch
//    OnlinePriorityEvaluator over the same jobs;
//  * kill / restore — loading the latest checkpoint into a fresh server and
//    re-feeding the remaining bytes must land on the identical final log and
//    state, also for a streamed job id at the top of the u64 range;
//  * frozen queries — Snapshot::query must reproduce the Trace-based
//    priority path bitwise for jobs the service could price, with and
//    without job names and with an untrained GBDT;
//  * rejected batch — a batch with a malformed row changes nothing, and a
//    clean retry and a checkpoint taken after it both stay bit-exact, and a
//    checkpoint whose streamed rows are malformed is refused;
//  * concurrent queries — snapshot reads race ingest without synchronization
//    (the ASan job of ci.sh runs this suite);
//  * CsvTailer — header skip, partial-line handling, checkpoint resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "common/exec_mode.h"
#include "core/qssf_service.h"
#include "forecast/models.h"
#include "golden_digest.h"
#include "serialize/binary.h"
#include "svc/csv_tailer.h"
#include "svc/prediction_server.h"
#include "trace/synthetic.h"

namespace helios::svc {
namespace {

// The ExecMode unification is complete: the per-layer compat aliases are
// gone, and the one enum has exactly the two contractual values.
static_assert(common::ExecMode::kSerial != common::ExecMode::kParallel);

/// Deterministic workload: seed-42 Venus, April-August train / September
/// stream — the same split the batch pipeline evaluates.
struct Fixture {
  trace::Trace train;
  trace::Trace eval;
  core::QssfService fitted;
  std::string rows_csv;  // September as data rows (no header)

  explicit Fixture(double scale = 0.02) {
    auto gen = trace::GeneratorConfig::helios(trace::helios_cluster("Venus"),
                                              /*seed=*/42, scale);
    const trace::Trace t = trace::SyntheticTraceGenerator(gen).generate();
    train = t.between(trace::helios_trace_begin(), from_civil(2020, 9, 1));
    eval = t.between(from_civil(2020, 9, 1), trace::helios_trace_end());
    core::QssfConfig cfg;
    cfg.gbdt.n_trees = 10;
    fitted = core::QssfService(cfg);
    fitted.fit(train);
    std::ostringstream rows;
    eval.save_csv_rows(rows, 0, eval.size());
    rows_csv = std::move(rows).str();
  }

  /// The batch reference: serial evaluator priorities in stream order.
  [[nodiscard]] std::vector<PricedJob> batch_log() const {
    core::QssfService svc = fitted;
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    core::OnlinePriorityEvaluator evaluator(svc, eval, opts);
    std::vector<PricedJob> log;
    for (const auto& j : eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      log.push_back({j.job_id, evaluator.priority_of(j)});
    }
    return log;
  }

  /// Split the September rows into irregular line-aligned batches.
  [[nodiscard]] std::vector<std::string> batches(std::size_t base) const {
    std::vector<std::string> out;
    std::size_t lo = 0;
    std::size_t lines_in_batch = 0;
    std::size_t target = 1;
    for (std::size_t pos = 0; pos < rows_csv.size(); ++pos) {
      if (rows_csv[pos] != '\n') continue;
      if (++lines_in_batch < target) continue;
      out.push_back(rows_csv.substr(lo, pos + 1 - lo));
      lo = pos + 1;
      lines_in_batch = 0;
      target = target % (2 * base) + base / 2 + 1;  // vary the batch size
    }
    if (lo < rows_csv.size()) out.push_back(rows_csv.substr(lo));
    return out;
  }
};

TEST(SvcServer, IncrementalFeedMatchesBatchBitwise) {
  const Fixture fx;
  const std::vector<PricedJob> want = fx.batch_log();
  ASSERT_GT(want.size(), 100u);

  PredictionServer server(fx.fitted, fx.train);
  for (const std::string& batch : fx.batches(64)) server.ingest_csv(batch);

  ASSERT_EQ(server.priority_log().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(server.priority_log()[i], want[i]) << "job #" << i;
  }
  EXPECT_EQ(server.rows_ingested(), fx.eval.size());
  EXPECT_EQ(server.bytes_ingested(), fx.rows_csv.size());
  // The snapshot reflects the fully fed state.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap->gpu_jobs_ingested(), want.size());
}

TEST(SvcServer, LargeSingleBlockShardedParseMatchesBatchBitwise) {
  // One ingest_csv call with the whole month and a tiny parallel_parse_bytes
  // forces the ParallelLoader sharded-parse branch of append_rows whenever
  // the pool is wider than one thread (run with HELIOS_THREADS=8 on 1-core
  // machines); ids — and therefore priorities — must not depend on it.
  const Fixture fx;
  const std::vector<PricedJob> want = fx.batch_log();
  ServerConfig cfg;
  cfg.parallel_parse_bytes = 1024;
  PredictionServer server(fx.fitted, fx.train, cfg);
  server.ingest_csv(fx.rows_csv);
  ASSERT_EQ(server.priority_log().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(server.priority_log()[i], want[i]) << "job #" << i;
  }
  EXPECT_EQ(server.rows_ingested(), fx.eval.size());
}

TEST(SvcServer, KillAfterCheckpointRestoresAndResumesBitIdentical) {
  const Fixture fx;
  const std::string prefix =
      testing::TempDir() + "helios_svc_ck_" + std::to_string(::getpid());
  ServerConfig cfg;
  cfg.checkpoint_every = 150;
  cfg.checkpoint_prefix = prefix;

  // Uninterrupted run = the reference.
  PredictionServer full(fx.fitted, fx.train, cfg);
  for (const std::string& batch : fx.batches(64)) full.ingest_csv(batch);
  ASSERT_GE(full.checkpoints_written(), 2u);

  // Interrupted run: stop ingesting after the first checkpoint lands.
  ServerConfig cfg2 = cfg;
  cfg2.checkpoint_prefix = prefix + "_b";
  PredictionServer killed(fx.fitted, fx.train, cfg2);
  for (const std::string& batch : fx.batches(64)) {
    killed.ingest_csv(batch);
    if (killed.checkpoints_written() >= 1) break;
  }
  ASSERT_LT(killed.gpu_jobs_ingested(), full.gpu_jobs_ingested());
  const std::string latest =
      cfg2.checkpoint_prefix + "." +
      std::to_string(killed.checkpoints_written() - 1);

  // Restore into a fresh server over the same context and feed the bytes the
  // checkpoint had not seen.
  PredictionServer restored(fx.fitted, fx.train, cfg2);
  serialize::load_file(latest, restored);
  EXPECT_EQ(restored.checkpoints_written(), killed.checkpoints_written());
  const std::size_t resume = static_cast<std::size_t>(restored.bytes_ingested());
  ASSERT_LT(resume, fx.rows_csv.size());
  restored.ingest_csv(std::string_view(fx.rows_csv).substr(resume));

  ASSERT_EQ(restored.priority_log().size(), full.priority_log().size());
  for (std::size_t i = 0; i < full.priority_log().size(); ++i) {
    ASSERT_EQ(restored.priority_log()[i], full.priority_log()[i])
        << "job #" << i;
  }
  EXPECT_EQ(restored.rows_ingested(), full.rows_ingested());
  EXPECT_TRUE(restored.stream().contents_equal(full.stream()));

  // A checkpoint against a different context must be refused.
  PredictionServer other(fx.fitted, fx.eval, cfg2);
  EXPECT_THROW(serialize::load_file(latest, other), serialize::Error);
  // As must loading into a server that already ingested rows.
  EXPECT_THROW(serialize::load_file(latest, restored), serialize::Error);

  for (std::uint64_t i = 0; i < full.checkpoints_written(); ++i) {
    std::remove((prefix + "." + std::to_string(i)).c_str());
  }
  for (std::uint64_t i = 0; i < restored.checkpoints_written(); ++i) {
    std::remove((cfg2.checkpoint_prefix + "." + std::to_string(i)).c_str());
  }
}

TEST(SvcServer, RejectedBatchLeavesServerUntouched) {
  const Fixture fx;
  const std::vector<PricedJob> want = fx.batch_log();
  const std::string prefix =
      testing::TempDir() + "helios_svc_reject_" + std::to_string(::getpid());
  ServerConfig cfg;
  cfg.checkpoint_prefix = prefix;
  PredictionServer server(fx.fitted, fx.train, cfg);

  // Some clean state first, then a 6-row batch whose 4th row is malformed.
  const std::string_view rows(fx.rows_csv);
  const auto end_of_lines = [&rows](std::size_t from, int lines) {
    for (int i = 0; i < lines; ++i) from = rows.find('\n', from) + 1;
    return from;
  };
  const std::size_t head = end_of_lines(0, 40);
  server.ingest_csv(rows.substr(0, head));
  std::string bad(rows.substr(head, end_of_lines(head, 3) - head));
  bad += "not,a,row\n";
  const std::size_t after_bad = end_of_lines(head, 4);
  bad += rows.substr(after_bad, end_of_lines(after_bad, 2) - after_bad);

  const trace::Trace stream_before = server.stream();
  const std::vector<PricedJob> log_before = server.priority_log();
  const std::uint64_t rows_before = server.rows_ingested();
  const std::uint64_t bytes_before = server.bytes_ingested();
  const std::uint64_t jobs_before = server.gpu_jobs_ingested();
  const auto snap_before = server.snapshot();
  EXPECT_THROW(server.ingest_csv(bad), std::runtime_error);
  EXPECT_TRUE(server.stream().contents_equal(stream_before));
  EXPECT_EQ(server.stream().size(), stream_before.size());
  EXPECT_EQ(server.priority_log(), log_before);
  EXPECT_EQ(server.rows_ingested(), rows_before);
  EXPECT_EQ(server.bytes_ingested(), bytes_before);
  EXPECT_EQ(server.gpu_jobs_ingested(), jobs_before);
  EXPECT_EQ(server.snapshot(), snap_before);

  // A numeric prefix ("12x") is as malformed as a short row.
  const std::string_view next = rows.substr(head, end_of_lines(head, 1) - head);
  std::string prefix_bad(next.substr(0, next.find(',') + 1));
  prefix_bad += "12x";
  prefix_bad += next.substr(next.find(',', next.find(',') + 1));
  EXPECT_THROW(server.ingest_csv(prefix_bad), std::runtime_error);
  EXPECT_TRUE(server.stream().contents_equal(stream_before));
  EXPECT_EQ(server.priority_log(), log_before);
  EXPECT_EQ(server.bytes_ingested(), bytes_before);
  EXPECT_EQ(server.snapshot(), snap_before);

  // A checkpoint after the rejection restores, and both the live server and
  // the restored one finish on the batch evaluator's log bit for bit.
  const std::string path = server.checkpoint();
  server.ingest_csv(rows.substr(head));
  PredictionServer restored(fx.fitted, fx.train, cfg);
  serialize::load_file(path, restored);
  ASSERT_EQ(restored.bytes_ingested(), head);
  restored.ingest_csv(rows.substr(head));
  for (const PredictionServer* s : {&server, &restored}) {
    ASSERT_EQ(s->priority_log().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(s->priority_log()[i], want[i]) << "job #" << i;
    }
    EXPECT_EQ(s->rows_ingested(), fx.eval.size());
    EXPECT_EQ(s->bytes_ingested(), fx.rows_csv.size());
  }
  EXPECT_TRUE(restored.stream().contents_equal(server.stream()));
  std::remove(path.c_str());

  // A checkpoint whose streamed rows hold a numeric prefix ("...12x") is
  // refused as corrupt; every length field of the image stays valid.
  serialize::Writer w;
  server.save(w);
  std::vector<std::uint8_t> image = w.buffer();
  const std::string_view row = rows.substr(0, rows.find('\n'));
  const auto at =
      std::search(image.begin(), image.end(), row.begin(), row.end());
  ASSERT_NE(at, image.end());
  const std::size_t submit_end = row.find(',', row.find(',') + 1);
  *(at + static_cast<std::ptrdiff_t>(submit_end) - 1) = 'x';
  PredictionServer fresh(fx.fitted, fx.train, cfg);
  serialize::Reader r(image);
  EXPECT_THROW(fresh.load(r), serialize::Error);
  EXPECT_EQ(fresh.rows_ingested(), 0u);
  EXPECT_TRUE(fresh.priority_log().empty());
}

TEST(SvcServer, UnknownStateRejectsBatchAndCheckpoint) {
  const Fixture fx;
  ServerConfig cfg;
  PredictionServer server(fx.fitted, fx.train, cfg);
  const std::string_view rows(fx.rows_csv);
  const std::size_t first_end = rows.find('\n') + 1;
  server.ingest_csv(rows.substr(0, first_end));

  // The next row with its state spelled as no known status: the whole
  // batch is refused and nothing moves.
  const std::size_t second_end = rows.find('\n', first_end) + 1;
  const std::string_view next = rows.substr(first_end, second_end - first_end);
  std::string bad(next.substr(0, next.rfind(',') + 1));
  bad += "BOGUS\n";
  const trace::Trace stream_before = server.stream();
  const std::vector<PricedJob> log_before = server.priority_log();
  const std::uint64_t bytes_before = server.bytes_ingested();
  const auto snap_before = server.snapshot();
  EXPECT_THROW(server.ingest_csv(bad), std::runtime_error);
  EXPECT_TRUE(server.stream().contents_equal(stream_before));
  EXPECT_EQ(server.priority_log(), log_before);
  EXPECT_EQ(server.bytes_ingested(), bytes_before);
  EXPECT_EQ(server.snapshot(), snap_before);

  // A checkpoint whose streamed row carries an unknown state of the same
  // length is refused with a typed error; every length field stays valid.
  serialize::Writer w;
  server.save(w);
  std::vector<std::uint8_t> image = w.buffer();
  const std::string_view row = rows.substr(0, first_end - 1);
  const auto at =
      std::search(image.begin(), image.end(), row.begin(), row.end());
  ASSERT_NE(at, image.end());
  std::fill(at + static_cast<std::ptrdiff_t>(row.rfind(',') + 1),
            at + static_cast<std::ptrdiff_t>(row.size()), 'z');
  PredictionServer fresh(fx.fitted, fx.train, cfg);
  serialize::Reader r(image);
  EXPECT_THROW(fresh.load(r), serialize::Error);
  EXPECT_EQ(fresh.rows_ingested(), 0u);
}

TEST(SvcServer, CheckpointKeepsFullRangeJobIds) {
  const Fixture fx;
  // job_id is u64: a streamed row with the largest id must survive the
  // checkpoint's CSV rows and restore bit-identically.
  const std::string_view rows(fx.rows_csv);
  const std::size_t first_end = rows.find('\n') + 1;
  std::string head = "18446744073709551615";
  head += rows.substr(rows.find(','), first_end - rows.find(','));
  const std::size_t second_end = rows.find('\n', first_end) + 1;
  head += rows.substr(first_end, second_end - first_end);

  ServerConfig cfg;
  PredictionServer server(fx.fitted, fx.train, cfg);
  server.ingest_csv(head);
  const trace::Trace& stream = server.stream();  // context rows, then ours
  ASSERT_EQ(stream.jobs()[stream.size() - 2].job_id,
            std::numeric_limits<std::uint64_t>::max());
  serialize::Writer w;
  server.save(w);
  PredictionServer restored(fx.fitted, fx.train, cfg);
  serialize::Reader r(w.buffer());
  restored.load(r);
  EXPECT_TRUE(restored.stream().contents_equal(server.stream()));
  EXPECT_EQ(restored.priority_log(), server.priority_log());
  EXPECT_EQ(restored.bytes_ingested(), server.bytes_ingested());

  // Both go on to the same log for the rest of September.
  server.ingest_csv(rows.substr(second_end));
  restored.ingest_csv(rows.substr(second_end));
  EXPECT_EQ(restored.priority_log(), server.priority_log());
  EXPECT_TRUE(restored.stream().contents_equal(server.stream()));
}

TEST(SvcServer, FrozenQueryMatchesTracePathBitwise) {
  const Fixture fx;
  // Three services, one per shape of the query path: the fitted fixture
  // (name buckets), a fitted limited-information one (name column 0), and an
  // untrained one that has only observed history (GBDT half falls back to
  // the rolling estimate).
  core::QssfConfig no_names_cfg = fx.fitted.config();
  no_names_cfg.use_names = false;
  core::QssfService no_names(no_names_cfg);
  no_names.fit(fx.train);
  core::QssfService untrained(fx.fitted.config());
  for (const auto& j : fx.train.jobs()) untrained.observe(fx.train, j);
  ASSERT_FALSE(untrained.trained());

  const core::QssfService* const services[] = {&fx.fitted, &no_names,
                                               &untrained};
  for (const core::QssfService* service : services) {
    PredictionServer server(*service, fx.train);
    const auto snap = server.snapshot();
    std::size_t checked = 0;
    for (const auto& j : fx.eval.jobs()) {
      if (!j.is_gpu_job()) continue;
      QueryRequest req;
      req.user = fx.eval.user_name(j);
      req.vc = fx.eval.vc_name(j);
      req.job_name = fx.eval.job_name(j);
      req.num_gpus = j.num_gpus;
      req.num_cpus = j.num_cpus;
      req.submit_time = j.submit_time;
      // Fresh copy per job: the mutating path memoizes name buckets, and the
      // frozen path must equal the first mutating call on identical state.
      core::QssfService mutating = *service;
      const QueryResult got = snap->query(req);
      ASSERT_EQ(got.priority, mutating.priority(fx.eval, j))
          << "job " << j.job_id;
      ASSERT_EQ(got.expected_duration, mutating.predict_duration(fx.eval, j));
      if (++checked >= 200) break;
    }
    ASSERT_EQ(checked, 200u);
  }
}

TEST(SvcServer, SnapshotHeldAcrossIngestIsPointInTime) {
  // A reader holds the snapshot published after the first half of
  // September while the rest is ingested: it must keep pricing every shape
  // exactly as a service copy taken at that publish (the serial evaluator
  // over the same rows leaves the service in that state).
  const Fixture fx;
  const UnixTime mid = from_civil(2020, 9, 15);
  const trace::Trace first = fx.eval.between(from_civil(2020, 9, 1), mid);
  const trace::Trace rest = fx.eval.between(mid, trace::helios_trace_end());
  ASSERT_GT(first.size(), 50u);
  ASSERT_GT(rest.size(), 50u);
  std::string first_csv;
  first.save_csv_rows(first_csv, 0, first.size());
  std::string rest_csv;
  rest.save_csv_rows(rest_csv, 0, rest.size());

  ServerConfig cfg;
  cfg.publish_every = 16;
  PredictionServer server(fx.fitted, fx.train, cfg);
  server.ingest_csv(first_csv);
  const std::shared_ptr<const Snapshot> held = server.snapshot();
  core::QssfService at_publish = fx.fitted;
  {
    core::EvalOptions opts;
    opts.execution = common::ExecMode::kSerial;
    const core::OnlinePriorityEvaluator evaluator(at_publish, first, opts);
  }

  std::vector<QueryRequest> shapes;
  for (const auto& j : fx.eval.jobs()) {
    if (!j.is_gpu_job()) continue;
    QueryRequest req;
    req.user = fx.eval.user_name(j);
    req.vc = fx.eval.vc_name(j);
    req.job_name = fx.eval.job_name(j);
    req.num_gpus = j.num_gpus;
    req.num_cpus = j.num_cpus;
    req.submit_time = j.submit_time;
    shapes.push_back(req);
  }
  QueryRequest stranger = shapes.front();
  stranger.user = "nobody_seen";
  stranger.vc = "vc_nobody";
  stranger.job_name = "zzz_unseen_template";
  shapes.push_back(stranger);

  const std::size_t log_at_publish = server.priority_log().size();
  const auto batches = [&rest_csv] {
    std::vector<std::string_view> out;
    const std::string_view rows(rest_csv);
    for (std::size_t lo = 0, n = 0; lo < rows.size(); n = 0) {
      std::size_t hi = lo;
      while (hi < rows.size() && n++ < 37) hi = rows.find('\n', hi) + 1;
      out.push_back(rows.substr(lo, hi - lo));
      lo = hi;
    }
    return out;
  }();
  for (const std::string_view batch : batches) server.ingest_csv(batch);
  ASSERT_GT(server.priority_log().size(), log_at_publish);
  EXPECT_EQ(held->gpu_jobs_ingested(), log_at_publish);
  EXPECT_EQ(held->rows_ingested(), first.size());

  const std::shared_ptr<const Snapshot> now = server.snapshot();
  std::size_t moved = 0;
  for (const QueryRequest& req : shapes) {
    const core::JobQuery q = held->resolve(req);
    const double duration = at_publish.predict_duration(q);
    const QueryResult got = held->query(req);
    ASSERT_EQ(got.expected_duration, duration) << req.user << " " << req.job_name;
    ASSERT_EQ(got.priority,
              core::QssfService::expected_gpu_time(q.num_gpus, duration));
    moved += now->query(req).priority != got.priority ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);  // the live state did move past the held snapshot
}

TEST(SvcServer, CheckpointBytesGolden) {
  // The SVCK bytes (QSSF service, ROLL dedupe ids, streamed CSV rows, queue
  // and log) after September in irregular batches. The digest was recorded
  // before the flat rolling estimator, the radix-sorted dedupe ids and the
  // in-place CSV rows, so equal bytes show none of them moved the format.
  const Fixture fx;
  PredictionServer server(fx.fitted, fx.train);
  for (const std::string& batch : fx.batches(64)) server.ingest_csv(batch);
  serialize::Writer w;
  server.save(w);
  golden::Fnv digest;
  for (const std::uint8_t b : w.buffer()) digest.add(b);
  EXPECT_EQ(digest.hex(), "aa59815f25d3726c") << w.buffer().size() << " bytes";
}

TEST(SvcServer, ConcurrentQueriesDuringIngest) {
  const Fixture fx;
  ServerConfig cfg;
  cfg.publish_every = 64;
  PredictionServer server(fx.fitted, fx.train, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&server, &stop, &queries, r] {
      QueryRequest req;
      req.user = "user" + std::to_string(r);
      req.vc = "vc0";
      req.job_name = "train_model_" + std::to_string(r);
      req.num_gpus = 1 + r;
      req.submit_time = from_civil(2020, 9, 10);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = server.snapshot();
        const QueryResult res = snap->query(req);
        ASSERT_GT(res.priority, 0.0);
        ASSERT_GE(res.priority,
                  static_cast<double>(req.num_gpus) * res.expected_duration *
                      0.999);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const std::string& batch : fx.batches(32)) server.ingest_csv(batch);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.priority_log().size(), fx.batch_log().size());
}

TEST(CsvTailer, HeaderSkipPartialLinesAndResume) {
  const std::string path = testing::TempDir() + "helios_tailer_" +
                           std::to_string(::getpid()) + ".csv";
  std::remove(path.c_str());

  CsvTailer tailer(path);
  EXPECT_EQ(tailer.poll(), "");  // file does not exist yet

  std::ofstream out(path, std::ios::binary);
  out << "job_id,submit_time\n";
  out.flush();
  EXPECT_EQ(tailer.poll(), "");  // header only: nothing for the caller

  out << "1,100\n2,200\n3,3";  // third row still partial
  out.flush();
  EXPECT_EQ(tailer.poll(), "1,100\n2,200\n");
  EXPECT_EQ(tailer.poll(), "");  // partial line stays unconsumed

  out << "00\n";
  out.flush();
  EXPECT_EQ(tailer.poll(), "3,300\n");
  EXPECT_EQ(tailer.data_bytes(), 18u);

  // Resume as a checkpoint restore would: skip the first row's 6 bytes.
  CsvTailer resumed(path);
  resumed.resume_at_data_bytes(6);
  EXPECT_EQ(resumed.poll(), "2,200\n3,300\n");
  EXPECT_EQ(resumed.data_bytes(), tailer.data_bytes());
  EXPECT_EQ(resumed.offset(), tailer.offset());

  // A resume point past the file is refused.
  CsvTailer bad(path);
  EXPECT_THROW(bad.resume_at_data_bytes(1000), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace helios::svc
