#include "sim/vc_simulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

namespace helios::sim {

using trace::JobRecord;
using trace::Trace;

namespace {

/// Maps a priority to unsigned bits whose order is the queue's priority
/// order: numeric order, with -0 equal to +0 and every NaN (an EQSSF job
/// with a NaN draw), whatever its sign or payload, equal to every other NaN
/// and after +inf. Equal bits tie, and the tie goes to the earlier arrival.
std::uint64_t order_bits(double priority) noexcept {
  if (std::isnan(priority)) return ~std::uint64_t{0};
  if (priority == 0.0) priority = 0.0;  // -0 -> +0
  const auto b = std::bit_cast<std::uint64_t>(priority);
  return (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
}

/// Policy-queue ordering: priority, then submit time, then shard-local id as
/// the final deterministic tie-break. Local ids are assigned in trace order,
/// so the local-id tie-break is exactly the trace-index tie-break the
/// cluster-wide loop used. Arrivals come in submit order (ClusterSimulator
/// rejects a trace that is not), so (submit, local) orders like local alone,
/// and the key holds just the priority's order_bits() and the local id.
struct QueueKey {
  std::uint64_t priority = 0;
  std::size_t local = 0;  ///< position in this shard's arrivals

  bool operator<(const QueueKey& o) const noexcept {
    return priority != o.priority ? priority < o.priority : local < o.local;
  }
};

/// Dense shard-local copy of the per-job fields the event loop touches, so
/// the hot path never chases outcomes[arrivals[lj]] through two indirections
/// into the (globally interleaved) outcomes array.
struct LocalJob {
  UnixTime submit = 0;
  std::int64_t remaining = 0;  ///< seconds left to run (updates on preempt)
  std::int64_t total = 0;      ///< full duration (FaultRestart::kRestart)
  std::size_t trace_index = 0;
  std::int32_t gpus = 0;
  double priority = 0.0;
  double watts = 0.0;  ///< total draw while running: gpus × per-GPU watts
};

struct RunningJob {
  std::size_t local = 0;  ///< arrivals position of the job
  Allocation alloc;
  std::int64_t run_start = 0;
  std::int64_t remaining = 0;  ///< at run_start
  double watts = 0.0;  ///< draw added at start; subtracted verbatim on stop
  std::uint64_t generation = 0;
  bool active = false;
};

struct FinishEvent {
  std::int64_t time = 0;
  std::size_t slot = 0;
  std::uint64_t generation = 0;

  bool operator>(const FinishEvent& o) const noexcept { return time > o.time; }
};

/// Two-level bitmap over a fixed total order: bit p set <=> the job at
/// sorted position p is queued. set/clear are O(1); first(), next_from() and
/// nth_from() skip empty 64-bit words through a summary bitmap, so a search
/// costs O(n/4096) summary words plus the words it lands on.
class OrderedBitmap {
 public:
  void reserve(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    bits_.assign(words, 0);
    summary_.assign((words + 63) / 64, 0);
  }

  void set(std::size_t p) {
    bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
    summary_[p >> 12] |= std::uint64_t{1} << ((p >> 6) & 63);
  }

  void clear(std::size_t p) {
    const std::size_t w = p >> 6;
    bits_[w] &= ~(std::uint64_t{1} << (p & 63));
    if (bits_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  }

  /// Lowest set position; call only when at least one bit is set.
  [[nodiscard]] std::size_t first() const noexcept {
    std::size_t sw = 0;
    while (summary_[sw] == 0) ++sw;
    const std::size_t w =
        (sw << 6) + static_cast<std::size_t>(std::countr_zero(summary_[sw]));
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits_[w]));
  }

  /// Lowest set position >= `p`, or SIZE_MAX.
  [[nodiscard]] std::size_t next_from(std::size_t p) const noexcept {
    return nth_from(p, 1);
  }

  /// Position of the k-th (k >= 1) set bit at or after `p`, or SIZE_MAX when
  /// fewer than k follow. Popcounts whole words and selects inside the word
  /// that holds it.
  [[nodiscard]] std::size_t nth_from(std::size_t p, std::size_t k) const noexcept {
    std::size_t w = p >> 6;
    if (w >= bits_.size()) return SIZE_MAX;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (p & 63));
    for (;;) {
      const auto count = static_cast<std::size_t>(std::popcount(word));
      if (count >= k) {
        while (--k != 0) word &= word - 1;  // drop the k-1 lower set bits
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      }
      k -= count;
      w = next_word_after(w);
      if (w == SIZE_MAX) return SIZE_MAX;
      word = bits_[w];
    }
  }

 private:
  /// Lowest non-empty word index strictly greater than `w`, or SIZE_MAX.
  [[nodiscard]] std::size_t next_word_after(std::size_t w) const noexcept {
    for (std::size_t sw = w >> 6; sw < summary_.size(); ++sw) {
      std::uint64_t s = summary_[sw];
      if (sw == (w >> 6)) {
        // Only summary bits for words strictly greater than w.
        const std::size_t k = w & 63;
        s = k == 63 ? 0 : s & (~std::uint64_t{0} << (k + 1));
      }
      if (s != 0) {
        return (sw << 6) + static_cast<std::size_t>(std::countr_zero(s));
      }
    }
    return SIZE_MAX;
  }

  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> summary_;
};

/// What a backfill visit did to the candidate it was handed.
enum class Visit {
  kSkipped,  ///< failed a gate; the shard state is unchanged
  kStarted,  ///< started and dequeued; free GPUs and headroom moved
  kStop,     ///< end the pass
};

/// Head-of-line queue over shard-local job ids, one design for every policy.
/// init() ranks the jobs by their initial QueueKeys with a stable LSD radix
/// sort of order_bits(priority): arrivals are in (submit, local) order, so a
/// stable sort by priority alone gives QueueKey order. A queued job whose
/// current key is its initial key sits on an OrderedBitmap over those ranks:
/// O(1) push/remove and an O(1)-ish head. FIFO, SJF, QSSF and EQSSF never
/// change a key, so all their jobs live there, a job requeued after a
/// node-failure kill included. Only SRTF changes keys: a job requeued by a
/// preemption or a kill with a new remaining time goes to a small ordered
/// overflow set of QueueKeys, and head() and backfill_pass() merge the two.
///
/// With backfill, the queue is also indexed by GPU demand: each distinct
/// demand in the shard (clamped like DemandTracker) is a DemandClass whose
/// bitmap, over the same ranks, holds its queued ranked jobs. A pass then
/// visits only the classes that can pass both O(1) gates (see
/// backfill_pass).
class PolicyQueue {
 public:
  /// Queued jobs of one GPU demand, plus the smallest draw among all of the
  /// shard's jobs with that demand (computed once, queued or not).
  struct DemandClass {
    int gpus = 0;
    double min_watts = std::numeric_limits<double>::infinity();
    /// Some job draws a negative or NaN wattage: min_watts bounds nothing,
    /// so the class is never skipped on power.
    bool power_exempt = false;
    OrderedBitmap queued;
  };

  explicit PolicyQueue(bool backfill) : backfill_(backfill) {}

  /// A job's current key is read from `jobs` (its priority may change only
  /// while it is not queued). `capacity` is the VC's GPU total; larger
  /// demands share one class.
  void init(const std::vector<LocalJob>& jobs, int capacity) {
    jobs_ = &jobs;
    rank_jobs(jobs);
    bitmap_.reserve(jobs.size());
    if (backfill_) init_classes(jobs, capacity);
  }

  void push(std::size_t lj) {
    if (!at_rank(lj)) {
      overflow_.insert(key_of(lj));
      return;
    }
    const std::size_t r = rank_of_[lj];
    ++ranked_;
    bitmap_.set(r);
    if (!class_of_.empty()) classes_[class_of_[lj]].queued.set(r);
  }

  [[nodiscard]] bool empty() const noexcept {
    return ranked_ == 0 && overflow_.empty();
  }

  /// Local id of the highest-priority queued job; call only when !empty().
  [[nodiscard]] std::size_t head() const {
    if (overflow_.empty()) return local_of_[bitmap_.first()];
    const QueueKey& o = *overflow_.begin();
    if (ranked_ == 0) return o.local;
    const std::size_t r = bitmap_.first();
    return o < key_at(r) ? o.local : local_of_[r];
  }

  /// Does queued job `a` outrank queued job `b`?
  [[nodiscard]] bool before(std::size_t a, std::size_t b) const noexcept {
    return key_of(a) < key_of(b);
  }

  void remove(std::size_t lj) {
    if (!at_rank(lj)) {
      overflow_.erase(key_of(lj));
      return;
    }
    const std::size_t r = rank_of_[lj];
    --ranked_;
    bitmap_.clear(r);
    if (!class_of_.empty()) classes_[class_of_[lj]].queued.clear(r);
  }

  /// One greedy backfill pass behind the head (only with backfill). The
  /// window is the first `depth` queued jobs behind the head; `visit` sees
  /// window jobs in priority order and may remove() only the job it is
  /// handed.
  ///
  /// The window end is found in merged order: each overflow entry behind the
  /// head is in the window while the ranked jobs before it (those below its
  /// rank bound) plus the overflow entries already taken leave it a place,
  /// and nth_from() then ends the window's ranks. The pass merges, in queue
  /// order, the bitmaps of the classes for which `qualifies(cls)` holds with
  /// the window's overflow entries whose class qualifies; it re-asks after
  /// every start, as starts move free GPUs and power headroom. That is exact
  /// as long as `qualifies` is false only for classes whose every job would
  /// fail a side-effect-free gate of `visit` (the caller's
  /// demand-vs-free-GPUs and minimum-draw checks): a skipped job would have
  /// been visited, failed that gate and changed nothing. Qualification only
  /// narrows during a pass, so an overflow entry is asked once, when it is
  /// next in line. Nothing enters the queue during a pass, so the window,
  /// the visiting order and the exits are those of a visit-every-entry scan.
  template <typename Qualifies, typename VisitFn>
  void backfill_pass(int depth, Qualifies&& qualifies, VisitFn&& visit) {
    if (depth <= 0) return;
    const auto window = static_cast<std::size_t>(depth);
    // `from`: the first rank behind the head; `it`: the first overflow entry
    // behind it.
    const std::size_t h = head();
    std::size_t from = 0;
    auto it = overflow_.begin();
    if (at_rank(h)) {
      from = rank_of_[h] + 1;
    } else {
      ++it;
    }
    spills_.clear();
    for (; it != overflow_.end() && spills_.size() < window; ++it) {
      const std::size_t bound = rank_bound(*it);
      // The (window - taken)-th ranked job behind the head must not precede
      // this entry.
      if (bitmap_.nth_from(from, window - spills_.size()) < bound) break;
      spills_.push_back({bound, it->local});
    }
    const std::size_t end = bitmap_.nth_from(from, window - spills_.size() + 1);
    // cursors_: the next window rank of each qualifying class.
    auto collect = [&](std::size_t at) {
      cursors_.clear();
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (!qualifies(classes_[c])) continue;
        const std::size_t r = classes_[c].queued.next_from(at);
        if (r < end) cursors_.push_back({r, c});
      }
    };
    collect(from);
    std::size_t next_spill = 0;
    for (;;) {
      while (next_spill < spills_.size() &&
             !qualifies(classes_[class_of_[spills_[next_spill].local]])) {
        ++next_spill;
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < cursors_.size(); ++i) {
        if (cursors_[i].rank < cursors_[best].rank) best = i;
      }
      if (next_spill < spills_.size() &&
          (cursors_.empty() || spills_[next_spill].bound <= cursors_[best].rank)) {
        const Spill s = spills_[next_spill++];
        switch (visit(s.local)) {
          case Visit::kStop:
            return;
          case Visit::kStarted:
            collect(s.bound);
            break;
          case Visit::kSkipped:
            break;
        }
        continue;
      }
      if (cursors_.empty()) return;
      const std::size_t r = cursors_[best].rank;
      switch (visit(local_of_[r])) {
        case Visit::kStop:
          return;
        case Visit::kStarted:
          collect(r + 1);
          break;
        case Visit::kSkipped: {
          const std::size_t next = classes_[cursors_[best].cls].queued.next_from(r + 1);
          if (next < end) {
            cursors_[best].rank = next;
          } else {
            cursors_[best] = cursors_.back();
            cursors_.pop_back();
          }
          break;
        }
      }
    }
  }

 private:
  struct Cursor {
    std::size_t rank = 0;
    std::size_t cls = 0;
  };
  /// An overflow entry in a backfill window; ranks below `bound` precede it.
  struct Spill {
    std::size_t bound = 0;
    std::size_t local = 0;
  };

  [[nodiscard]] QueueKey key_of(std::size_t lj) const noexcept {
    return {order_bits((*jobs_)[lj].priority), lj};
  }
  [[nodiscard]] QueueKey key_at(std::size_t r) const noexcept {
    return {rank_key_[r], local_of_[r]};
  }
  /// Is job `lj`'s current key its initial one, i.e. does it queue at its
  /// rank?
  [[nodiscard]] bool at_rank(std::size_t lj) const noexcept {
    return order_bits((*jobs_)[lj].priority) == rank_key_[rank_of_[lj]];
  }
  /// Number of ranks whose initial key precedes `key`.
  [[nodiscard]] std::size_t rank_bound(const QueueKey& key) const noexcept {
    std::size_t lo = 0;
    std::size_t hi = rank_key_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key_at(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Stable LSD radix sort of the local ids by order_bits(priority), one
  /// byte per pass. Bytes that are equal in every key are skipped (one
  /// OR/AND pass finds them): FIFO's keys are all one value, so it skips all
  /// eight and its ranks are the local ids.
  void rank_jobs(const std::vector<LocalJob>& jobs) {
    struct Entry {
      std::uint64_t key;
      std::size_t local;
    };
    const std::size_t n = jobs.size();
    std::vector<Entry> cur(n);
    std::uint64_t any = 0;
    std::uint64_t all = ~std::uint64_t{0};
    for (std::size_t lj = 0; lj < n; ++lj) {
      cur[lj] = {order_bits(jobs[lj].priority), lj};
      any |= cur[lj].key;
      all &= cur[lj].key;
    }
    const std::uint64_t varying = any ^ all;
    std::vector<Entry> next;
    for (int shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xff) == 0) continue;
      std::array<std::size_t, 257> start{};
      for (const Entry& e : cur) ++start[((e.key >> shift) & 0xff) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      next.resize(n);
      for (const Entry& e : cur) next[start[(e.key >> shift) & 0xff]++] = e;
      cur.swap(next);
    }
    rank_key_.resize(n);
    local_of_.resize(n);
    rank_of_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      rank_key_[r] = cur[r].key;
      local_of_[r] = cur[r].local;
      rank_of_[cur[r].local] = r;
    }
  }

  void init_classes(const std::vector<LocalJob>& jobs, int capacity) {
    std::vector<std::int32_t> class_of_gpus(
        static_cast<std::size_t>(capacity) + 2, -1);
    class_of_.resize(jobs.size());
    for (std::size_t lj = 0; lj < jobs.size(); ++lj) {
      const int g = std::min(jobs[lj].gpus, capacity + 1);
      std::int32_t& c = class_of_gpus[static_cast<std::size_t>(g)];
      if (c < 0) {
        c = static_cast<std::int32_t>(classes_.size());
        classes_.emplace_back();
        classes_.back().gpus = g;
        classes_.back().queued.reserve(jobs.size());
      }
      DemandClass& cls = classes_[static_cast<std::size_t>(c)];
      const double w = jobs[lj].watts;
      if (w >= 0.0) {
        cls.min_watts = std::min(cls.min_watts, w);
      } else {
        cls.power_exempt = true;  // negative or NaN
      }
      class_of_[lj] = static_cast<std::uint32_t>(c);
    }
  }

  bool backfill_;
  const std::vector<LocalJob>* jobs_ = nullptr;
  std::size_t ranked_ = 0;               ///< jobs queued on the bitmap
  OrderedBitmap bitmap_;                 ///< queued ranks
  std::vector<std::uint64_t> rank_key_;  ///< rank -> initial order_bits
  std::vector<std::size_t> rank_of_;     ///< local -> rank
  std::vector<std::size_t> local_of_;    ///< rank -> local
  std::set<QueueKey> overflow_;          ///< queued jobs off their rank
  std::vector<DemandClass> classes_;     ///< with backfill
  std::vector<std::uint32_t> class_of_;  ///< local -> class; empty = no index
  std::vector<Cursor> cursors_;          ///< backfill_pass scratch
  std::vector<Spill> spills_;            ///< backfill_pass scratch
};

/// Multiset of queued GPU demands on a counting array: O(1) insert, O(1)
/// amortized erase with a lazily advanced minimum. Demands above the VC
/// capacity share the top bucket (they reject at the head anyway and must
/// never look smaller than a real demand).
class DemandTracker {
 public:
  void init(int capacity) {
    counts_.assign(static_cast<std::size_t>(capacity) + 2, 0);
    min_ = static_cast<int>(counts_.size()) - 1;
    size_ = 0;
  }

  void insert(int g) {
    g = clamp(g);
    ++counts_[static_cast<std::size_t>(g)];
    ++size_;
    min_ = std::min(min_, g);
  }

  void erase(int g) {
    g = clamp(g);
    --counts_[static_cast<std::size_t>(g)];
    --size_;
    if (size_ == 0) {
      min_ = static_cast<int>(counts_.size()) - 1;
      return;
    }
    while (counts_[static_cast<std::size_t>(min_)] == 0) ++min_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Smallest queued demand; call only when !empty().
  [[nodiscard]] int min() const noexcept { return min_; }

 private:
  [[nodiscard]] int clamp(int g) const noexcept {
    return std::min(g, static_cast<int>(counts_.size()) - 1);
  }

  std::vector<std::int32_t> counts_;
  int min_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

VcSimulator::VcSimulator(const trace::ClusterSpec& spec, int vc,
                         const SimConfig& config, UnixTime window_begin)
    : config_(&config),
      window_begin_(window_begin),
      state_(spec.vcs[static_cast<std::size_t>(vc)]) {
  if (config.power_cap_watts > 0.0) {
    // Budget-constrained admission: VCs never talk to each other, so the
    // cluster cap splits into capacity-proportional per-VC shares. The
    // shares sum to the cap, so per-VC enforcement implies the cluster-wide
    // bound.
    std::int64_t total_gpus = 0;
    for (const auto& v : spec.vcs) {
      total_gpus += static_cast<std::int64_t>(v.nodes) * v.gpus_per_node;
    }
    const auto& vcspec = spec.vcs[static_cast<std::size_t>(vc)];
    const auto vc_gpus =
        static_cast<std::int64_t>(vcspec.nodes) * vcspec.gpus_per_node;
    if (total_gpus > 0) {
      cap_share_ = config.power_cap_watts * static_cast<double>(vc_gpus) /
                   static_cast<double>(total_gpus);
    }
  }
  if (config.fault_plan == nullptr) return;
  const auto events = config.fault_plan->vc_events(vc);
  if (events.empty()) return;
  const int n_nodes = spec.vcs[static_cast<std::size_t>(vc)].nodes;
  // internal_of[p]: shard node id of physical node p. Nodes within a VC are
  // homogeneous, so SimConfig::node_order only re-labels ids — rank k maps
  // to internal id k, which the consolidating allocator fills first. Fault
  // events name physical nodes and are translated here once.
  std::vector<std::int32_t> internal_of;
  if (static_cast<std::size_t>(vc) < config.node_order.size()) {
    const auto& order = config.node_order[static_cast<std::size_t>(vc)];
    if (static_cast<int>(order.size()) == n_nodes) {
      internal_of.assign(static_cast<std::size_t>(n_nodes), -1);
      for (int k = 0; k < n_nodes; ++k) {
        const std::int32_t p = order[static_cast<std::size_t>(k)];
        if (p < 0 || p >= n_nodes || internal_of[static_cast<std::size_t>(p)] >= 0) {
          internal_of.clear();  // not a permutation: fall back to id order
          break;
        }
        internal_of[static_cast<std::size_t>(p)] = k;
      }
    }
  }
  faults_.reserve(events.size());
  for (const NodeFaultEvent& e : events) {
    if (e.node < 0 || e.node >= n_nodes) continue;
    NodeFaultEvent local = e;
    if (!internal_of.empty()) {
      local.node = internal_of[static_cast<std::size_t>(e.node)];
    }
    faults_.push_back(local);
  }
}

VcSimulator::Counters VcSimulator::run(const Trace& t,
                                       const std::vector<std::size_t>& arrivals,
                                       std::vector<JobOutcome>& outcomes) {
  Counters counters;
  const bool srtf = config_->policy == SchedulerPolicy::kSrtf;
  const std::size_t n = arrivals.size();

  // `per_gpu_watts` is the job's running draw per GPU; `base_priority` folds
  // it into kEnergyQssf's predicted-energy ordering (predicted GPU time ×
  // per-GPU watts = predicted joules).
  auto per_gpu_watts = [&](const JobRecord& j) -> double {
    return config_->gpu_watts_fn ? config_->gpu_watts_fn(j)
                                 : config_->power_profile.gpu_watts;
  };
  auto base_priority = [&](const JobRecord& j, double gpu_watts) -> double {
    switch (config_->policy) {
      case SchedulerPolicy::kFifo:
        return 0.0;  // submit-time tie-break gives FIFO order
      case SchedulerPolicy::kSjf:
      case SchedulerPolicy::kSrtf:
        return static_cast<double>(j.duration);
      case SchedulerPolicy::kQssf:
        return config_->priority_fn ? config_->priority_fn(j)
                                    : static_cast<double>(j.duration) * j.num_gpus;
      case SchedulerPolicy::kEnergyQssf:
        return (config_->priority_fn
                    ? config_->priority_fn(j)
                    : static_cast<double>(j.duration) * j.num_gpus) *
               gpu_watts;
    }
    return 0.0;
  };

  // Dense local copies of the fields the loop touches per event. The smallest
  // per-GPU draw bounds every job's draw from below for the backfill headroom
  // exit; a negative (or NaN) draw breaks that bound and disables the exit.
  std::vector<LocalJob> jobs(n);
  double min_gpu_watts = std::numeric_limits<double>::infinity();
  bool headroom_exit = cap_share_ > 0.0;
  for (std::size_t lj = 0; lj < n; ++lj) {
    const JobOutcome& o = outcomes[arrivals[lj]];
    const JobRecord& j = t.jobs()[o.trace_index];
    LocalJob& job = jobs[lj];
    job.submit = o.submit;
    job.total = std::max<std::int32_t>(1, j.duration);
    job.remaining = job.total;
    job.trace_index = o.trace_index;
    job.gpus = o.gpus;
    const double gw = per_gpu_watts(j);
    if (gw >= 0.0) {
      min_gpu_watts = std::min(min_gpu_watts, gw);
    } else {
      headroom_exit = false;
    }
    job.watts = gw * j.num_gpus;
    job.priority = base_priority(j, gw);
  }
  std::vector<std::size_t> run_slot(n, SIZE_MAX);

  PolicyQueue queue(config_->backfill);
  queue.init(jobs, state_.capacity_gpus());
  // GPU demands of every queued job; min() lets a backfill pass bail out
  // O(1) when nothing queued can possibly fit.
  DemandTracker queued_gpus;
  queued_gpus.init(state_.capacity_gpus());
  std::vector<RunningJob> runs;
  runs.reserve(n);  // at most one slot per job; growth would copy Allocations
  std::priority_queue<FinishEvent, std::vector<FinishEvent>, std::greater<>>
      finishes(std::greater<>{}, [n] {
        std::vector<FinishEvent> v;
        v.reserve(n + 1);
        return v;
      }());
  // Active-run list (swap-remove): SRTF preemption scans only live runs, not
  // every slot ever created.
  std::vector<std::size_t> active_slots;
  std::vector<std::size_t> active_pos;  // per-slot position, SIZE_MAX if idle
  active_pos.reserve(n);

  // Busy/power accounting: coalesce events that leave the busy counters and
  // the VC draw unchanged into one segment; flushed whenever either moves.
  // Power includes the idle node baseline, so unlike the pre-energy
  // accounting the idle stretches produce segments too (the busy
  // integrators ignore their zero counts).
  run_watts_ = 0.0;
  segments_.reserve(2 * n + 2);
  std::int64_t seg_start = window_begin_;
  std::int32_t seg_nodes = 0;
  std::int32_t seg_gpus = 0;
  double seg_watts = state_.baseline_watts(config_->power_profile);
  auto flush_segment = [&](std::int64_t now) {
    const auto bn = static_cast<std::int32_t>(state_.busy_nodes());
    const auto bg = static_cast<std::int32_t>(state_.busy_gpus());
    const double bw =
        state_.baseline_watts(config_->power_profile) + run_watts_;
    if (bn == seg_nodes && bg == seg_gpus && bw == seg_watts) return;
    if (now > seg_start &&
        (seg_nodes != 0 || seg_gpus != 0 || seg_watts != 0.0)) {
      segments_.push_back({seg_start, now, seg_nodes, seg_gpus, seg_watts});
    }
    seg_start = now;
    seg_nodes = bn;
    seg_gpus = bg;
    seg_watts = bw;
  };

  // Budget-constrained admission: may the projected VC draw grow by
  // `extra_watts` without crossing this VC's share of the cluster cap?
  // Headroom moves only on starts, completions, kills, and node power-state
  // transitions; every one of them but a start forces a pass. Headroom is no
  // part of the arrival trigger, though: see the blocked-head memo below.
  auto power_allows = [&](double extra_watts) -> bool {
    if (cap_share_ <= 0.0) return true;
    return state_.baseline_watts(config_->power_profile) + run_watts_ +
               extra_watts <=
           cap_share_;
  };
  // Backfill headroom exit: every queued job draws gw × gpus with
  // gw >= min_gpu_watts >= 0 and gpus >= queued_gpus.min(). IEEE
  // multiplication and addition are monotone, so when even that product
  // does not fit, every candidate at every depth fails power_allows too.
  auto some_draw_fits = [&]() -> bool {
    return !headroom_exit ||
           power_allows(static_cast<double>(queued_gpus.min()) * min_gpu_watts);
  };

  auto deactivate = [&](std::size_t slot) {
    const std::size_t pos = active_pos[slot];
    const std::size_t back = active_slots.back();
    active_slots[pos] = back;
    active_pos[back] = pos;
    active_slots.pop_back();
    active_pos[slot] = SIZE_MAX;
  };

  auto enqueue = [&](std::size_t lj) {
    queue.push(lj);
    queued_gpus.insert(jobs[lj].gpus);
  };
  auto dequeue = [&](std::size_t lj) {
    queue.remove(lj);
    queued_gpus.erase(jobs[lj].gpus);
  };

  auto start_job = [&](std::size_t lj, Allocation alloc, std::int64_t now) {
    JobOutcome& o = outcomes[arrivals[lj]];
    if (o.start == trace::kNeverStarted) o.start = now;
    RunningJob r;
    r.local = lj;
    r.alloc = std::move(alloc);
    r.run_start = now;
    r.remaining = jobs[lj].remaining;
    r.watts = jobs[lj].watts;
    run_watts_ += r.watts;
    r.active = true;
    std::size_t slot;
    if (run_slot[lj] != SIZE_MAX && !runs[run_slot[lj]].active) {
      slot = run_slot[lj];
      r.generation = runs[slot].generation + 1;
      runs[slot] = std::move(r);
    } else {
      slot = runs.size();
      runs.push_back(std::move(r));
      active_pos.push_back(SIZE_MAX);
    }
    run_slot[lj] = slot;
    active_pos[slot] = active_slots.size();
    active_slots.push_back(slot);
    finishes.push({now + runs[slot].remaining, slot, runs[slot].generation});
  };

  // Kill every active run holding GPUs on a failing node: the whole gang
  // releases (all-or-nothing placement dies with any of its nodes) and the
  // job requeues under the configured restart semantics. Victims are killed
  // in ascending slot order — a fixed order, so sharded and serial replays
  // enqueue requeued jobs identically.
  auto kill_runs_on_node = [&](int node, std::int64_t now) {
    std::vector<std::size_t> victims;
    for (std::size_t s : active_slots) {
      for (auto [ni, g] : runs[s].alloc.node_gpus) {
        if (ni == node) {
          victims.push_back(s);
          break;
        }
      }
    }
    std::sort(victims.begin(), victims.end());
    for (std::size_t s : victims) {
      RunningJob& r = runs[s];
      r.active = false;
      ++r.generation;  // invalidates the pending finish event
      deactivate(s);
      state_.release(r.alloc);
      run_watts_ -= r.watts;
      const std::size_t plj = r.local;
      jobs[plj].remaining =
          config_->restart == FaultRestart::kResume
              ? std::max<std::int64_t>(1, r.remaining - (now - r.run_start))
              : jobs[plj].total;
      if (srtf) jobs[plj].priority = static_cast<double>(jobs[plj].remaining);
      enqueue(plj);
      ++counters.kills;
      ++outcomes[arrivals[plj]].kills;
    }
  };

  // Blocked-head memo: after a scheduling pass ends with an unplaceable
  // head, arrivals that merely grow the queue behind it skip the pass
  // entirely — under FIFO that is every arrival while the head waits. A
  // completion, a fault, an arrival that outranks the head and, with
  // backfill, an arrival that fits the free GPUs still schedule. Without
  // backfill a skipped pass is provably a no-op. (For SRTF, remaining times
  // of running jobs only shrink as time advances, so the preemptable set
  // never grows while the state is untouched; a retry cannot succeed where
  // the original attempt failed.) With backfill it is not: once a pass has
  // started jobs, the next pass's backfill_depth window reaches deeper into
  // the queue and may start jobs the last pass never visited. The trigger
  // thus decides which passes run, and the arrival trigger must stay
  // GPU-only: also requiring the arrival's own draw to fit the cap would
  // drop passes that start such deeper jobs (tests/test_backfill.cpp).
  bool head_blocked = false;
  std::size_t blocked_local = 0;

  // Schedules the VC at time `now`: strict head-of-line by priority
  // (Algorithm 1: stop at the first job that does not fit; no backfill).
  auto schedule = [&](std::int64_t now) {
    head_blocked = false;
    while (!queue.empty()) {
      const std::size_t lj = queue.head();
      const LocalJob& job = jobs[lj];
      if (!state_.can_ever_fit(job.gpus)) {
        JobOutcome& o = outcomes[arrivals[lj]];
        o.rejected = true;
        o.start = o.submit;
        o.end = o.submit;
        ++counters.rejected;
        dequeue(lj);
        continue;
      }
      // Budget-constrained admission: a head over the power budget waits
      // exactly like a head that does not fit — it neither places nor hunts
      // for SRTF preemption victims (preempting to make power headroom would
      // trade running work for queued work under the same cap; the gate is
      // checked up front so a power-blocked head leaves the run set alone).
      const bool power_ok = power_allows(job.watts);
      auto alloc =
          power_ok ? state_.try_allocate(job.gpus) : std::optional<Allocation>{};
      if (!alloc && srtf && power_ok) {
        // Preempt running jobs with strictly larger remaining time, largest
        // first, until the head fits; roll back if it never does.
        const std::int64_t head_rem = job.remaining;
        std::vector<std::size_t> candidates;
        for (std::size_t s : active_slots) {
          const std::int64_t rem =
              runs[s].remaining - (now - runs[s].run_start);
          if (rem > head_rem) candidates.push_back(s);
        }
        std::sort(candidates.begin(), candidates.end(),
                  [&](std::size_t a, std::size_t b) {
                    const std::int64_t ra = runs[a].remaining - (now - runs[a].run_start);
                    const std::int64_t rb = runs[b].remaining - (now - runs[b].run_start);
                    if (ra != rb) return ra > rb;
                    return a < b;  // deterministic tie-break
                  });
        std::vector<std::size_t> freed;
        for (std::size_t s : candidates) {
          state_.release(runs[s].alloc);
          freed.push_back(s);
          alloc = state_.try_allocate(job.gpus);
          if (alloc) break;
        }
        if (alloc) {
          for (std::size_t s : freed) {
            RunningJob& r = runs[s];
            r.active = false;
            ++r.generation;  // invalidates the pending finish event
            deactivate(s);
            run_watts_ -= r.watts;
            const std::size_t plj = r.local;
            jobs[plj].remaining =
                std::max<std::int64_t>(1, r.remaining - (now - r.run_start));
            jobs[plj].priority = static_cast<double>(jobs[plj].remaining);
            enqueue(plj);
            ++counters.preemptions;
          }
        } else {
          for (auto it = freed.rbegin(); it != freed.rend(); ++it) {
            state_.reclaim(runs[*it].alloc);
          }
        }
      }
      if (!alloc) {
        if (config_->backfill && !queued_gpus.empty() &&
            queued_gpus.min() <= state_.free_gpus() && some_draw_fits()) {
          // Greedy backfill: start any later queued job that fits right now.
          // The ranked queue skips demand classes that cannot pass either
          // gate below: a demand above the free GPUs fails try_allocate, and
          // a class's smallest draw bounds its jobs' draws from below (IEEE
          // addition is monotone, as for the headroom exit), unless the
          // class holds a negative or NaN draw.
          queue.backfill_pass(
              config_->backfill_depth,
              [&](const PolicyQueue::DemandClass& c) {
                return c.gpus <= state_.free_gpus() &&
                       (c.power_exempt || power_allows(c.min_watts));
              },
              [&](std::size_t blj) {
                // Power-proportional backfill: candidates start only while
                // the projected draw stays under the cap; over-budget
                // candidates are skipped, not blocking the ones behind them.
                if (!power_allows(jobs[blj].watts)) return Visit::kSkipped;
                auto balloc = state_.try_allocate(jobs[blj].gpus);
                if (!balloc) return Visit::kSkipped;
                start_job(blj, std::move(*balloc), now);
                dequeue(blj);
                // Placements shrink the free pool and the power headroom;
                // bail once nothing left fits either.
                if (queued_gpus.empty() ||
                    queued_gpus.min() > state_.free_gpus() || !some_draw_fits()) {
                  return Visit::kStop;
                }
                return Visit::kStarted;
              });
        }
        head_blocked = true;
        blocked_local = lj;
        break;
      }
      dequeue(lj);
      start_job(lj, std::move(*alloc), now);
    }
  };

  std::size_t next_arrival = 0;
  std::size_t next_fault = 0;
  const std::size_t n_faults = faults_.size();
  // Fault events keep the loop alive only while jobs are queued: a recovery
  // may be the event that unblocks them. With nothing queued and nothing
  // running, remaining fault events cannot affect any outcome or busy count,
  // so they are skipped (deterministically) and the queued jobs that never
  // ran surface as SimResult::unfinished_jobs.
  while (next_arrival < n || !finishes.empty() ||
         (next_fault < n_faults && !queue.empty())) {
    // Next event time: finishes first at equal times (free before place).
    const std::int64_t arrival_time =
        next_arrival < n ? jobs[next_arrival].submit
                         : std::numeric_limits<std::int64_t>::max();
    // Drain stale finish events.
    while (!finishes.empty()) {
      const FinishEvent& f = finishes.top();
      if (runs[f.slot].active && runs[f.slot].generation == f.generation) break;
      finishes.pop();
    }
    const std::int64_t finish_time =
        finishes.empty() ? std::numeric_limits<std::int64_t>::max()
                         : finishes.top().time;
    const std::int64_t fault_time =
        next_fault < n_faults ? faults_[next_fault].time
                              : std::numeric_limits<std::int64_t>::max();
    const std::int64_t now =
        std::min(std::min(arrival_time, finish_time), fault_time);
    if (now == std::numeric_limits<std::int64_t>::max()) break;

    bool need_schedule = false;
    // 1) completions at `now`.
    while (!finishes.empty() && finishes.top().time <= now) {
      const FinishEvent f = finishes.top();
      finishes.pop();
      RunningJob& r = runs[f.slot];
      if (!r.active || r.generation != f.generation) continue;
      r.active = false;
      ++r.generation;
      deactivate(f.slot);
      state_.release(r.alloc);
      run_watts_ -= r.watts;
      outcomes[arrivals[r.local]].end = now;
      need_schedule = true;  // freed GPUs invalidate the blocked-head memo
    }
    // 1b) node failures / recoveries at `now`. Recoveries sort before
    // failures at equal times (fault_plan.cpp), so a node that flaps in the
    // same second ends the second down. Killed jobs requeue before the
    // scheduling pass and compete under the policy's normal order.
    while (next_fault < n_faults && faults_[next_fault].time <= now) {
      const NodeFaultEvent ev = faults_[next_fault];
      ++next_fault;
      if (ev.recovery) {
        state_.recover_node(ev.node);
      } else {
        kill_runs_on_node(ev.node, now);
        state_.fail_node(ev.node);
        ++counters.failures;
      }
      need_schedule = true;
    }
    // 2) arrivals at `now`.
    while (next_arrival < n && jobs[next_arrival].submit <= now) {
      const std::size_t lj = next_arrival;
      ++next_arrival;
      enqueue(lj);
      if (!need_schedule && head_blocked) {
        // Queue growth behind a blocked head: schedule only if this job
        // outranks the head (FIFO arrivals never do) or backfill could
        // place it on the leftover GPUs. GPUs only, never the job's draw:
        // see the blocked-head memo.
        const bool outranks = queue.before(lj, blocked_local);
        const bool backfillable =
            config_->backfill && jobs[lj].gpus <= state_.free_gpus();
        if (outranks || backfillable) need_schedule = true;
      } else {
        need_schedule = true;
      }
    }
    // 3) scheduling pass, then extend or flush the busy segment.
    if (need_schedule) schedule(now);
    flush_segment(now);
  }
  // Close the trailing segment. Busy counts are zero once every started job
  // has finished, but the idle baseline keeps drawing, so the tail almost
  // always carries watts: it runs to the sentinel and the orchestrator's
  // integrator clamps it to the series window.
  if (seg_nodes != 0 || seg_gpus != 0 || seg_watts != 0.0) {
    segments_.push_back(
        {seg_start, std::numeric_limits<std::int64_t>::max(), seg_nodes,
         seg_gpus, seg_watts});
  }
  return counters;
}

}  // namespace helios::sim
