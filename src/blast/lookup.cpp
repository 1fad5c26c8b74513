#include "blast/lookup.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::blast {

NucLookup::NucLookup(std::span<const std::uint8_t> concat, int word_size) {
  rebuild(concat, word_size);
}

void NucLookup::rebuild(std::span<const std::uint8_t> concat, int word_size) {
  MRBIO_REQUIRE(word_size >= kMinWord && word_size <= kMaxWord,
                "nucleotide word size must be in [", kMinWord, ", ", kMaxWord, "], got ",
                word_size);
  word_size_ = word_size;
  const std::size_t nwords = std::size_t{1} << (2 * word_size);
  const std::uint32_t mask = static_cast<std::uint32_t>(nwords - 1);
  const simd::Kernels& kern = simd::kernels();

  // One scan of the concatenation in 48-byte blocks through the
  // word-scan kernel: codes[i] is the rolling packed word ending at block
  // position i, and a set valid bit means all word_size bases ending
  // there are unambiguous (the kernel carries word/history across
  // blocks). A word is indexable only if it's valid — garbage codes at
  // invalid positions are never read. Offsets are those of the word's
  // first base; valid bits iterate lowest-first, so they come ascending.
  constexpr std::size_t kBlock = 48;
  std::uint32_t codes[kBlock];
  std::uint64_t valid = 0;
  std::uint32_t word = 0;
  std::uint64_t hist = 0;
  words_.clear();
  offsets_.clear();
  words_.reserve(concat.size());
  offsets_.reserve(concat.size());
  presence_.assign(nwords / 64, 0);
  for (std::size_t base = 0; base < concat.size(); base += kBlock) {
    const std::size_t m = std::min(kBlock, concat.size() - base);
    kern.dna_words(concat.data() + base, m, word_size, mask, &word, &hist, codes, &valid);
    while (valid != 0) {
      const int i = std::countr_zero(valid);
      valid &= valid - 1;
      presence_[codes[i] >> 6] |= std::uint64_t{1} << (codes[i] & 63);
      words_.push_back(codes[i]);
      offsets_.push_back(static_cast<std::uint32_t>(
          base + static_cast<std::size_t>(i) + 1 - static_cast<std::size_t>(word_size)));
    }
  }

  rank_.resize(presence_.size());
  std::uint32_t present = 0;
  for (std::size_t i = 0; i < presence_.size(); ++i) {
    rank_[i] = present;
    present += static_cast<std::uint32_t>(std::popcount(presence_[i]));
  }

  // Stable counting sort of the offsets by their word's rank; each entry
  // of `words_` is replaced by that rank on the way.
  starts_.assign(std::size_t{present} + 1, 0);
  for (std::uint32_t& w : words_) {
    w = rank_of(w, presence_[w >> 6]);
    ++starts_[w + 1];
  }
  for (std::uint32_t r = 0; r < present; ++r) starts_[r + 1] += starts_[r];
  positions_.resize(offsets_.size());
  cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (std::size_t k = 0; k < words_.size(); ++k) {
    positions_[cursor_[words_[k]]++] = offsets_[k];
  }
}

ProtLookup::ProtLookup(std::span<const std::uint8_t> concat, int threshold,
                       const Scorer& scorer) {
  MRBIO_REQUIRE(scorer.type() == SeqType::Protein, "ProtLookup needs a protein scorer");

  // Per-position row maxima of the score matrix, for pruning the
  // neighbourhood enumeration.
  std::array<int, kProtAlphabet> row_max{};
  for (int a = 0; a < kProtAlphabet; ++a) {
    int mx = kSentinelScore;
    for (int b = 0; b < kProtAlphabet; ++b) {
      mx = std::max(mx, scorer.score(static_cast<std::uint8_t>(a),
                                     static_cast<std::uint8_t>(b)));
    }
    row_max[static_cast<std::size_t>(a)] = mx;
  }

  // Collect (bucket, position) pairs, then bucket-sort into the flat
  // table. The word-scan kernel yields packed codes plus a validity mask
  // per 64-position block (a set bit means all three residues are
  // standard); only the neighbourhood enumeration stays scalar.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  if (concat.size() >= kWordSize) {
    const simd::Kernels& kern = simd::kernels();
    constexpr std::size_t kBlock = 64;
    std::uint16_t codes[kBlock];
    std::uint64_t valid = 0;
    const std::size_t last = concat.size() - kWordSize;  // last word start
    for (std::size_t base = 0; base <= last; base += kBlock) {
      const std::size_t m = std::min(kBlock, last - base + 1);
      kern.prot_words(concat.data() + base, m, codes, &valid);
      while (valid != 0) {
        const int bi = std::countr_zero(valid);
        valid &= valid - 1;
        const std::size_t i = base + static_cast<std::size_t>(bi);
        const auto pos = static_cast<std::uint32_t>(i);

        if (threshold <= 0) {
          entries.emplace_back(codes[bi], pos);
          continue;
        }

        const std::uint8_t q0 = concat[i];
        const std::uint8_t q1 = concat[i + 1];
        const std::uint8_t q2 = concat[i + 2];
        const int max1 = row_max[q1];
        const int max2 = row_max[q2];
        for (std::uint8_t w0 = 0; w0 < kProtAlphabet; ++w0) {
          const int s0 = scorer.score(q0, w0);
          if (s0 + max1 + max2 < threshold) continue;
          for (std::uint8_t w1 = 0; w1 < kProtAlphabet; ++w1) {
            const int s01 = s0 + scorer.score(q1, w1);
            if (s01 + max2 < threshold) continue;
            for (std::uint8_t w2 = 0; w2 < kProtAlphabet; ++w2) {
              if (s01 + scorer.score(q2, w2) >= threshold) {
                entries.emplace_back(pack(w0, w1, w2), pos);
              }
            }
          }
        }
      }
    }
  }

  std::vector<std::uint32_t> counts(kIndexSize + 1, 0);
  for (const auto& [bucket, pos] : entries) ++counts[bucket];
  starts_.assign(kIndexSize + 1, 0);
  for (std::uint32_t b = 0; b < kIndexSize; ++b) starts_[b + 1] = starts_[b] + counts[b];
  positions_.resize(entries.size());
  std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  for (const auto& [bucket, pos] : entries) positions_[cursor[bucket]++] = pos;
}

}  // namespace mrbio::blast
