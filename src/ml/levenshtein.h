// Levenshtein edit distance and name bucketization.
//
// The paper (§4.2.2) clusters the "extremely sparse and high-dimensional"
// job-name feature with Levenshtein distance, bucketizing similar names into
// dense numerical values for the GBDT, and uses the same distance inside the
// rolling estimator to find a user's historical jobs "which have similar
// names or formats as the incoming one".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace helios::serialize {
class Reader;
class Writer;
}  // namespace helios::serialize

namespace helios::ml {

/// Classic dynamic-programming edit distance (insert/delete/substitute = 1).
[[nodiscard]] std::size_t levenshtein(std::string_view a, std::string_view b);

/// Distance normalised by max(len(a), len(b)); 0 for two empty strings.
[[nodiscard]] double normalized_levenshtein(std::string_view a, std::string_view b);

/// Early-exit check: true iff levenshtein(a, b) <= limit. O(limit * min(m,n))
/// via banded DP — the hot path of the rolling estimator.
[[nodiscard]] bool within_distance(std::string_view a, std::string_view b,
                                   std::size_t limit);

/// Greedy single-pass clustering of names into buckets: each name joins the
/// first existing bucket whose representative is within
/// `threshold * max(len)` normalised distance, else founds a new bucket.
/// Deterministic given input order. This converts the sparse name feature
/// into a dense categorical id, as the paper does before GBDT training.
///
/// Storage is flat, so a copy (one per svc snapshot publish) is a handful of
/// contiguous vector copies rather than one allocation per name: every
/// memoized name and representative lives in one char arena; the name→bucket
/// memo and the prefix index are open-addressing slot arrays (linear
/// probing, power-of-two size, load factor at most 1/2, in the style of
/// common::FlatU64Set); and the representatives sharing a prefix form a chain
/// of bucket ids in founding order. Candidates are visited in ascending id
/// order however the tables hash, and save() sorts the memo, so assignments
/// and NBKT bytes do not depend on the layout.
///
/// Thread-safety: like the standard containers — lookup() and the other
/// const members may be called concurrently, bucket() and load() need
/// exclusive access.
class NameBucketizer {
 public:
  /// `prefix_len > 0` enables a prefix index: only representatives sharing
  /// the first `prefix_len` bytes are considered as merge candidates. Job
  /// names carry the owner/template stem up front ("u0042_train_bert_v1"),
  /// so this turns the O(#buckets) scan into a handful of comparisons with
  /// no practical quality loss; pass 0 for the exhaustive scan.
  explicit NameBucketizer(double threshold = 0.30, std::size_t prefix_len = 0)
      : threshold_(threshold), prefix_len_(prefix_len) {}

  /// Bucket id for `name`, creating a new bucket when nothing is close.
  std::uint32_t bucket(std::string_view name);

  /// Bucket id without creating new buckets; returns the nearest existing
  /// bucket within the threshold, or kNoBucket.
  [[nodiscard]] std::uint32_t lookup(std::string_view name) const;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return reps_.size();
  }
  /// Representative names in bucket-id order; the views stay valid until
  /// the next bucket() or load().
  [[nodiscard]] std::vector<std::string_view> representatives() const;

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;

  /// Persist / restore the clustering state ("NBKT" section,
  /// docs/FORMATS.md): threshold, prefix length, representatives, and the
  /// memoized name→bucket map, so a restored bucketizer assigns exactly the
  /// ids the live one would. The prefix index is rebuilt on load. Throws
  /// serialize::Error on malformed input.
  void save(serialize::Writer& w) const;
  void load(serialize::Reader& r);

 private:
  /// A string stored in arena_.
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  struct MemoEntry {
    Span name;
    std::uint32_t id = 0;
  };
  /// The representatives sharing one prefix: first and last bucket id.
  struct PrefixChain {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };

  [[nodiscard]] std::string_view view(Span s) const noexcept {
    return {arena_.data() + s.offset, s.size};
  }
  [[nodiscard]] std::string_view prefix_of(
      std::string_view name) const noexcept {
    return name.substr(0, prefix_len_);
  }
  [[nodiscard]] std::uint32_t find_nearest(std::string_view name) const;
  /// Memoized bucket of `name` (whose hash is `hash`), or kNoBucket.
  [[nodiscard]] std::uint32_t memo_find(std::string_view name,
                                        std::uint64_t hash) const noexcept;
  /// Chain index of `prefix`, or kNoBucket.
  [[nodiscard]] std::uint32_t chain_find(std::string_view prefix,
                                         std::uint64_t hash) const noexcept;
  Span store(std::string_view s);
  void memoize(Span name, std::uint64_t hash, std::uint32_t id);
  /// Founds bucket reps_.size() with representative `rep`; returns its id.
  std::uint32_t add_representative(Span rep);

  double threshold_;
  std::size_t prefix_len_;
  std::string arena_;  // memoized names and representatives, back to back
  std::vector<Span> reps_;  // bucket id -> representative
  std::vector<MemoEntry> memo_;
  std::vector<std::uint32_t> memo_slots_;  // memo_ index + 1; 0 = empty
  /// Prefix index (only when prefix_len_ > 0).
  std::vector<PrefixChain> chains_;
  std::vector<std::uint32_t> chain_slots_;  // chains_ index + 1; 0 = empty
  /// Bucket id -> the next id in its prefix chain, or kNoBucket.
  std::vector<std::uint32_t> next_in_chain_;
};

}  // namespace helios::ml
