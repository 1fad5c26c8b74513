// Stage-1 word lookup tables.
//
// Following the reference implementation, queries of one block are
// concatenated (sentinel-separated) into a single coordinate space and a
// lookup table is built over that space; the database is then streamed
// past the table ("builds a word lookup table out of them, and streams the
// database past this lookup table").
//
// Nucleotide: exact words of length `word_size` (default 11), packed 2 bits
// per base, in NCBI's backbone-plus-presence-vector layout. A presence
// vector holds one bit per possible word (4^w bits, 512 KiB at w = 11),
// and a rank array holds the number of set bits before each 64-bit word
// of it (4^w / 64 entries, 256 KiB). Only the words that occur in the
// block get a run of query offsets, numbered by rank. A lookup tests the
// word's bit first, so most subject words are rejected from cache, and a
// present word's run index is its rank word plus the popcount of the set
// bits below it. A table costs 4^w/8 + 4^w/16 bytes plus 4 bytes per
// present word and per indexed offset: no array holds a 32-bit entry per
// possible word, which keeps the per-map-task build cheap. rebuild() reuses
// a table's storage, build scratch included, so a table kept per thread
// allocates and faults in its pages once, not once per map task.
//
// Protein: words of length 3 with BLOSUM62 neighbourhood expansion -- a
// query word's bucket also receives every word scoring >= threshold T
// against it (default T=11), which is what lets protein BLAST reach remote
// homologies. threshold <= 0 selects exact-match seeding only (the mode
// the paper notes the DeCypher FPGA accelerator uses by default).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "blast/score.hpp"

namespace mrbio::blast {

/// Presence-vector nucleotide word table over a concatenated query block.
class NucLookup {
 public:
  static constexpr int kMinWord = 4;
  static constexpr int kMaxWord = 13;

  /// An empty table; rebuild() before the first hits().
  NucLookup() = default;

  NucLookup(std::span<const std::uint8_t> concat_queries, int word_size);

  /// Replaces the table with one over `concat_queries`, reusing the
  /// storage of the previous build.
  void rebuild(std::span<const std::uint8_t> concat_queries, int word_size);

  int word_size() const { return word_size_; }

  /// Query offsets, ascending, whose word equals `packed` (2-bit packed,
  /// most recent base in the low bits as produced by the scanner's
  /// rolling update; must be below 4^word_size).
  std::span<const std::uint32_t> hits(std::uint32_t packed) const {
    const std::uint64_t bits = presence_[packed >> 6];
    if (((bits >> (packed & 63)) & 1) == 0) return {};
    const std::uint32_t r = rank_of(packed, bits);
    return {positions_.data() + starts_[r], starts_[r + 1] - starts_[r]};
  }

  std::size_t total_positions() const { return positions_.size(); }

 private:
  /// Index of `packed` among the present words, given its presence word.
  std::uint32_t rank_of(std::uint32_t packed, std::uint64_t bits) const {
    const std::uint64_t below = (std::uint64_t{1} << (packed & 63)) - 1;
    return rank_[packed >> 6] + static_cast<std::uint32_t>(std::popcount(bits & below));
  }

  int word_size_ = 0;
  std::vector<std::uint64_t> presence_;   ///< bit per word, 4^w / 64 entries
  std::vector<std::uint32_t> rank_;       ///< set bits before each presence word
  std::vector<std::uint32_t> starts_;     ///< run boundaries, present words + 1
  std::vector<std::uint32_t> positions_;  ///< query offsets grouped by word
  // Build scratch, kept only so rebuild() reuses it.
  std::vector<std::uint32_t> words_;      ///< word, then rank, of each window
  std::vector<std::uint32_t> offsets_;    ///< first base of each window
  std::vector<std::uint32_t> cursor_;     ///< counting-sort fill positions
};

/// Protein 3-mer lookup with scored neighbourhood.
class ProtLookup {
 public:
  static constexpr int kWordSize = 3;
  static constexpr std::uint32_t kIndexSize = 20u * 20u * 20u;

  /// threshold > 0: include neighbourhood words scoring >= threshold.
  /// threshold <= 0: exact words only.
  ProtLookup(std::span<const std::uint8_t> concat_queries, int threshold,
             const Scorer& scorer);

  /// Packs three residue codes (< 20 each) into a table index.
  static std::uint32_t pack(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
    return (static_cast<std::uint32_t>(a) * 20u + b) * 20u + c;
  }

  std::span<const std::uint32_t> hits(std::uint32_t packed) const {
    return {positions_.data() + starts_[packed],
            starts_[packed + 1] - starts_[packed]};
  }

  std::size_t total_positions() const { return positions_.size(); }

 private:
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> positions_;
};

}  // namespace mrbio::blast
