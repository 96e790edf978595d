#include "ml/levenshtein.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "serialize/binary.h"

namespace helios::ml {

namespace {

/// The calling thread's DP row with at least `cells` cells. Reused across
/// calls, so an edit distance allocates only when it meets a longer string
/// than any before on its thread.
std::vector<std::size_t>& dp_row(std::size_t cells) {
  thread_local std::vector<std::size_t> row;
  if (row.size() < cells) row.resize(cells);
  return row;
}

}  // namespace

std::size_t levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter string
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m == 0) return n;
  std::vector<std::size_t>& row = dp_row(m + 1);
  for (std::size_t i = 0; i <= m; ++i) row[i] = i;
  for (std::size_t j = 1; j <= n; ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t cur = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev_diag = cur;
    }
  }
  return row[m];
}

double normalized_levenshtein(std::string_view a, std::string_view b) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(levenshtein(a, b)) / static_cast<double>(longest);
}

bool within_distance(std::string_view a, std::string_view b, std::size_t limit) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t diff = m > n ? m - n : n - m;
  if (diff > limit) return false;
  if (limit == 0) return a == b;
  if (m > n) std::swap(a, b);
  // Banded DP: only cells within `limit` of the diagonal can stay <= limit.
  const std::size_t sm = a.size();
  const std::size_t sn = b.size();
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max() / 2;
  std::vector<std::size_t>& row = dp_row(sm + 1);
  std::fill_n(row.begin(), sm + 1, kInf);
  for (std::size_t i = 0; i <= std::min(sm, limit); ++i) row[i] = i;
  for (std::size_t j = 1; j <= sn; ++j) {
    const std::size_t lo = j > limit ? j - limit : 0;
    const std::size_t hi = std::min(sm, j + limit);
    std::size_t prev_diag = row[lo > 0 ? lo - 1 : 0];
    if (lo == 0) {
      prev_diag = row[0];
      row[0] = j;
    } else {
      row[lo - 1] = kInf;
    }
    bool any_le = lo == 0 && row[0] <= limit;
    for (std::size_t i = std::max<std::size_t>(lo, 1); i <= hi; ++i) {
      const std::size_t cur = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev_diag = cur;
      any_le |= row[i] <= limit;
    }
    if (!any_le) return false;  // whole band exceeded the limit
  }
  return row[sm] <= limit;
}

namespace {

std::uint64_t hash_of(std::string_view s) noexcept {
  return std::hash<std::string_view>{}(s);
}

/// Linear probe over `slots` (power-of-two size, entry index + 1 per slot, 0
/// for empty, load factor at most 1/2): the slot whose entry satisfies
/// `same(index)`, or the empty slot where such an entry would go.
template <typename Same>
std::size_t probe(const std::vector<std::uint32_t>& slots, std::uint64_t hash,
                  Same&& same) {
  const std::size_t mask = slots.size() - 1;
  auto i = static_cast<std::size_t>(hash) & mask;
  while (slots[i] != 0 && !same(slots[i] - 1)) i = (i + 1) & mask;
  return i;
}

/// Inserts entry `count` into `slots`, which holds entries 0..count-1, at
/// the position `hash_at(e)` gives entry e. Doubles the table (from 16
/// slots) before the load factor would pass 1/2, re-placing every entry.
template <typename HashAt>
void slot_insert(std::vector<std::uint32_t>& slots, std::uint32_t count,
                 HashAt&& hash_at) {
  constexpr auto kNever = [](std::uint32_t) { return false; };
  if (2 * (std::size_t{count} + 1) > slots.size()) {
    std::vector<std::uint32_t> grown(slots.empty() ? 16 : 2 * slots.size(), 0);
    for (std::uint32_t e = 0; e < count; ++e) {
      grown[probe(grown, hash_at(e), kNever)] = e + 1;
    }
    slots.swap(grown);
  }
  slots[probe(slots, hash_at(count), kNever)] = count + 1;
}

}  // namespace

std::uint32_t NameBucketizer::memo_find(std::string_view name,
                                        std::uint64_t hash) const noexcept {
  if (memo_slots_.empty()) return kNoBucket;
  const std::uint32_t slot = memo_slots_[probe(
      memo_slots_, hash,
      [&](std::uint32_t e) { return view(memo_[e].name) == name; })];
  return slot == 0 ? kNoBucket : memo_[slot - 1].id;
}

std::uint32_t NameBucketizer::chain_find(std::string_view prefix,
                                         std::uint64_t hash) const noexcept {
  if (chain_slots_.empty()) return kNoBucket;
  const std::uint32_t slot = chain_slots_[probe(
      chain_slots_, hash, [&](std::uint32_t c) {
        return prefix_of(view(reps_[chains_[c].head])) == prefix;
      })];
  return slot == 0 ? kNoBucket : slot - 1;
}

NameBucketizer::Span NameBucketizer::store(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max() - arena_.size()) {
    throw std::length_error("NameBucketizer: name arena passes 4 GiB");
  }
  const Span span{static_cast<std::uint32_t>(arena_.size()),
                  static_cast<std::uint32_t>(s.size())};
  arena_.append(s);
  return span;
}

void NameBucketizer::memoize(Span name, std::uint64_t hash, std::uint32_t id) {
  const auto count = static_cast<std::uint32_t>(memo_.size());
  memo_.push_back({name, id});
  slot_insert(memo_slots_, count, [&](std::uint32_t e) {
    return e == count ? hash : hash_of(view(memo_[e].name));
  });
}

std::uint32_t NameBucketizer::add_representative(Span rep) {
  const auto id = static_cast<std::uint32_t>(reps_.size());
  reps_.push_back(rep);
  if (prefix_len_ == 0) return id;
  next_in_chain_.push_back(kNoBucket);
  const std::string_view prefix = prefix_of(view(rep));
  const std::uint64_t hash = hash_of(prefix);
  const std::uint32_t c = chain_find(prefix, hash);
  if (c != kNoBucket) {
    next_in_chain_[chains_[c].tail] = id;
    chains_[c].tail = id;
    return id;
  }
  const auto count = static_cast<std::uint32_t>(chains_.size());
  chains_.push_back({id, id});
  slot_insert(chain_slots_, count, [&](std::uint32_t e) {
    return e == count ? hash : hash_of(prefix_of(view(reps_[chains_[e].head])));
  });
  return id;
}

std::vector<std::string_view> NameBucketizer::representatives() const {
  std::vector<std::string_view> out;
  out.reserve(reps_.size());
  for (const Span rep : reps_) out.push_back(view(rep));
  return out;
}

std::uint32_t NameBucketizer::find_nearest(std::string_view name) const {
  std::uint32_t best = kNoBucket;
  double best_dist = threshold_;
  auto consider = [&](std::uint32_t i) {
    const std::string_view rep = view(reps_[i]);
    const auto limit = static_cast<std::size_t>(
        std::floor(threshold_ * static_cast<double>(std::max(rep.size(), name.size()))));
    if (!within_distance(rep, name, limit)) return;
    const double d = normalized_levenshtein(rep, name);
    if (d <= best_dist) {
      best_dist = d;
      best = i;
    }
  };
  if (prefix_len_ > 0) {
    const std::string_view prefix = prefix_of(name);
    const std::uint32_t c = chain_find(prefix, hash_of(prefix));
    if (c != kNoBucket) {
      for (std::uint32_t i = chains_[c].head; i != kNoBucket;
           i = next_in_chain_[i]) {
        consider(i);
      }
    }
  } else {
    for (std::uint32_t i = 0; i < reps_.size(); ++i) consider(i);
  }
  return best;
}

std::uint32_t NameBucketizer::bucket(std::string_view name) {
  const std::uint64_t hash = hash_of(name);
  std::uint32_t id = memo_find(name, hash);
  if (id != kNoBucket) return id;
  id = find_nearest(name);
  // `name` may view arena_ itself; store() can move it, so only the stored
  // span is read from here on.
  const Span stored = store(name);
  if (id == kNoBucket) id = add_representative(stored);
  memoize(stored, hash, id);
  return id;
}

std::uint32_t NameBucketizer::lookup(std::string_view name) const {
  const std::uint32_t id = memo_find(name, hash_of(name));
  return id != kNoBucket ? id : find_nearest(name);
}

namespace {
constexpr std::uint32_t kBucketizerTag = serialize::fourcc("NBKT");
constexpr std::uint32_t kBucketizerVersion = 1;
}  // namespace

void NameBucketizer::save(serialize::Writer& w) const {
  w.begin_section(kBucketizerTag);
  w.u32(kBucketizerVersion);
  w.f64(threshold_);
  w.u64(prefix_len_);
  w.u64(reps_.size());
  for (const Span rep : reps_) w.str(view(rep));
  // Memoized assignments sorted by name (names are unique): the bytes are
  // canonical however the slot table happens to hash.
  std::vector<std::uint32_t> order(memo_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return view(memo_[a].name) < view(memo_[b].name);
  });
  w.u64(order.size());
  for (const std::uint32_t e : order) {
    w.str(view(memo_[e].name));
    w.u32(memo_[e].id);
  }
  w.end_section();
}

void NameBucketizer::load(serialize::Reader& r) {
  serialize::Reader s = r.section(kBucketizerTag);
  const std::uint32_t version = s.u32();
  if (version != kBucketizerVersion) {
    throw serialize::Error(
        serialize::ErrorCode::kUnsupportedVersion,
        "bucketizer section version " + std::to_string(version));
  }
  const double threshold = s.f64();
  const auto prefix_len = static_cast<std::size_t>(s.u64());
  // Built aside and moved in only on success. Representatives are founded
  // in id order, so the prefix chains come out as bucket() grew them.
  NameBucketizer loaded(threshold, prefix_len);
  const std::size_t n_reps = s.length(8);
  for (std::size_t i = 0; i < n_reps; ++i) {
    loaded.add_representative(loaded.store(s.str()));
  }
  const std::size_t n_memo = s.length(12);  // str length + u32 id
  loaded.memo_.reserve(n_memo);
  for (std::size_t i = 0; i < n_memo; ++i) {
    const std::string name = s.str();
    const std::uint32_t id = s.u32();
    if (id >= n_reps) {
      throw serialize::Error(serialize::ErrorCode::kCorrupt,
                             "bucket id " + std::to_string(id) + " of " +
                                 std::to_string(n_reps));
    }
    // A repeated name keeps its first assignment.
    const std::uint64_t hash = hash_of(name);
    if (loaded.memo_find(name, hash) == kNoBucket) {
      loaded.memoize(loaded.store(name), hash, id);
    }
  }
  s.close("bucketizer");
  *this = std::move(loaded);
}

}  // namespace helios::ml
