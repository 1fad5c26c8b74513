// Tests for the lookup tables and both extension stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "blast/extend.hpp"
#include "blast/lookup.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace mrbio::blast {
namespace {

std::uint32_t pack_word(std::string_view w) {
  std::uint32_t packed = 0;
  for (const std::uint8_t c : encode_dna(w)) packed = (packed << 2) | c;
  return packed;
}

TEST(NucLookup, FindsAllOccurrences) {
  const auto seq = encode_dna("ACGTACGTAA");
  NucLookup lut(seq, 4);
  const auto hits = lut.hits(pack_word("ACGT"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 4u);
  EXPECT_TRUE(lut.hits(pack_word("GGGG")).empty());
}

TEST(NucLookup, AmbiguityBreaksWords) {
  const auto seq = encode_dna("ACGTNACGT");
  NucLookup lut(seq, 4);
  const auto hits = lut.hits(pack_word("ACGT"));
  ASSERT_EQ(hits.size(), 2u);  // the word straddling N is not indexed
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 5u);
  EXPECT_TRUE(lut.hits(pack_word("GTNA") & 0xFF).empty());
}

TEST(NucLookup, SentinelBreaksWords) {
  auto seq = encode_dna("ACGT");
  seq.push_back(kSentinel);
  const auto more = encode_dna("ACGT");
  seq.insert(seq.end(), more.begin(), more.end());
  NucLookup lut(seq, 4);
  EXPECT_EQ(lut.hits(pack_word("ACGT")).size(), 2u);
  EXPECT_EQ(lut.total_positions(), 2u);
}

TEST(NucLookup, WordSizeBoundsEnforced) {
  const auto seq = encode_dna("ACGT");
  EXPECT_THROW(NucLookup(seq, 3), InputError);
  EXPECT_THROW(NucLookup(seq, 14), InputError);
}

TEST(NucLookup, CountsMatchBruteForce) {
  // Property: every word's run equals an independently built word ->
  // ascending offsets map. The input breaks words with N and sentinel
  // bytes and holds poly-A and poly-T runs, so words 0 and 4^w - 1 (the
  // two ends of the presence vector) are present.
  Rng rng(7);
  std::vector<std::uint8_t> seq(4000);
  for (auto& c : seq) {
    const double u = rng.uniform();
    c = u < 0.02   ? kDnaAmbig
        : u < 0.03 ? kSentinel
                   : static_cast<std::uint8_t>(rng.below(4));
  }
  std::fill_n(seq.begin() + 100, 20, std::uint8_t{0});
  std::fill_n(seq.begin() + 2000, 20, std::uint8_t{3});

  for (const int w : {4, 8, 11, 13}) {
    const auto wl = static_cast<std::size_t>(w);
    std::map<std::uint32_t, std::vector<std::uint32_t>> expected;
    std::size_t total = 0;
    for (std::size_t i = 0; i + wl <= seq.size(); ++i) {
      std::uint32_t word = 0;
      bool clean = true;
      for (std::size_t k = 0; k < wl; ++k) {
        clean &= seq[i + k] < 4;
        word = (word << 2) | (seq[i + k] & 3u);
      }
      if (!clean) continue;
      expected[word].push_back(static_cast<std::uint32_t>(i));
      ++total;
    }
    const std::uint32_t nwords = std::uint32_t{1} << (2 * w);
    ASSERT_TRUE(expected.contains(0) && expected.contains(nwords - 1)) << "w=" << w;

    const NucLookup lut(seq, w);
    EXPECT_EQ(lut.total_positions(), total) << "w=" << w;
    const auto check = [&](std::uint32_t word) {
      const auto got = lut.hits(word);
      const auto it = expected.find(word);
      const std::vector<std::uint32_t> want =
          it == expected.end() ? std::vector<std::uint32_t>{} : it->second;
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << "w=" << w << " word=" << word;
    };
    if (w <= 8) {
      for (std::uint32_t word = 0; word < nwords; ++word) check(word);
    } else {
      for (const auto& entry : expected) {
        const std::uint32_t word = entry.first;
        check(word);
        if (word > 0) check(word - 1);
        if (word + 1 < nwords) check(word + 1);
      }
    }
  }
}

TEST(ProtLookup, ExactModeIndexesOnlyOwnWords) {
  const auto seq = encode_protein("WWWAAA");
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, /*threshold=*/0, sc);
  const auto www = encode_protein("WWW");
  const auto hits = lut.hits(ProtLookup::pack(www[0], www[1], www[2]));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  // In exact mode, a near-neighbour word like WWY finds nothing.
  const auto wwy = encode_protein("WWY");
  EXPECT_TRUE(lut.hits(ProtLookup::pack(wwy[0], wwy[1], wwy[2])).empty());
}

TEST(ProtLookup, NeighbourhoodContainsHighScoringWords) {
  const auto seq = encode_protein("WWW");
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, /*threshold=*/11, sc);
  // WWW vs WWW scores 33 >= 11: own word present.
  const auto www = encode_protein("WWW");
  EXPECT_EQ(lut.hits(ProtLookup::pack(www[0], www[1], www[2])).size(), 1u);
  // WWY scores 11+11+2(W vs Y) = 24 >= 11: neighbour present.
  const auto wwy = encode_protein("WWY");
  EXPECT_EQ(lut.hits(ProtLookup::pack(wwy[0], wwy[1], wwy[2])).size(), 1u);
  // PPP vs WWW scores 3*(-4) < 11: absent.
  const auto ppp = encode_protein("PPP");
  EXPECT_TRUE(lut.hits(ProtLookup::pack(ppp[0], ppp[1], ppp[2])).empty());
}

TEST(ProtLookup, NeighbourhoodMatchesBruteForce) {
  // Property: for a single query word, the bucket set equals the set of all
  // 3-mers scoring >= T against it.
  const auto seq = encode_protein("LQR");
  const Scorer sc = Scorer::blosum62();
  const int threshold = 12;
  ProtLookup lut(seq, threshold, sc);
  std::size_t expected = 0;
  for (std::uint8_t a = 0; a < kProtAlphabet; ++a) {
    for (std::uint8_t b = 0; b < kProtAlphabet; ++b) {
      for (std::uint8_t c = 0; c < kProtAlphabet; ++c) {
        const int s = sc.score(seq[0], a) + sc.score(seq[1], b) + sc.score(seq[2], c);
        const bool in_table = !lut.hits(ProtLookup::pack(a, b, c)).empty();
        EXPECT_EQ(in_table, s >= threshold);
        expected += (s >= threshold) ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(lut.total_positions(), expected);
}

TEST(ProtLookup, AmbiguousResiduesNotIndexed) {
  auto seq = encode_protein("AXA");  // X in the middle: no valid word
  const Scorer sc = Scorer::blosum62();
  ProtLookup lut(seq, 11, sc);
  EXPECT_EQ(lut.total_positions(), 0u);
}

// ---- ungapped extension ----

TEST(ExtendUngapped, PerfectMatchExtendsFully) {
  const auto q = encode_dna("AAACGTACGTCCC");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 3, 3, 4, sc, 10);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.q_end, q.size());
  EXPECT_EQ(seg.score, static_cast<int>(q.size()));
}

TEST(ExtendUngapped, StopsAtMismatchRun) {
  //            0123456789
  const auto q = encode_dna("ACGTACGTTTTTTTTT");
  const auto s = encode_dna("ACGTACGTGGGGGGGG");
  const Scorer sc = Scorer::dna(1, -3);
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 4);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.q_end, 8u);
  EXPECT_EQ(seg.score, 8);
}

TEST(ExtendUngapped, ExtendsThroughIsolatedMismatch) {
  const auto q = encode_dna("ACGTACGTAACGTACGT");
  auto s = q;
  s[8] = static_cast<std::uint8_t>((s[8] + 1) % 4);  // single mismatch mid-way
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 10);
  EXPECT_EQ(seg.q_end, q.size());
  EXPECT_EQ(seg.score, static_cast<int>(q.size()) - 1 - 2);
}

TEST(ExtendUngapped, LeftExtensionWorks) {
  const auto q = encode_dna("CCCCACGT");
  const auto s = encode_dna("CCCCACGT");
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 4, 4, 4, sc, 10);
  EXPECT_EQ(seg.q_start, 0u);
  EXPECT_EQ(seg.score, 8);
}

TEST(ExtendUngapped, SentinelHardStops) {
  auto q = encode_dna("ACGTACGT");
  q.push_back(kSentinel);
  const auto more = encode_dna("ACGTACGT");
  q.insert(q.end(), more.begin(), more.end());
  const auto s = encode_dna("ACGTACGTACGTACGTACGT");
  const Scorer sc = Scorer::dna(1, -2);
  // Seed within the first query entry; extension must not cross into the
  // second even though the subject continues matching.
  const auto seg = extend_ungapped(q, s, 0, 0, 4, sc, 1000);
  EXPECT_LE(seg.q_end, 8u);
}

TEST(ExtendUngapped, BestAnchorIsInsideSegment) {
  const auto q = encode_dna("ACGTACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2);
  const auto seg = extend_ungapped(q, s, 4, 4, 4, sc, 10);
  EXPECT_GE(seg.q_best, seg.q_start);
  EXPECT_LT(seg.q_best, seg.q_end);
  EXPECT_EQ(seg.q_best - seg.q_start, seg.s_best - seg.s_start);
}

// ---- gapped extension ----

TEST(ExtendGapped, ExactSequencesAlignEndToEnd) {
  const auto q = encode_dna("ACGTACGTACGTACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2, 2, 1);
  const auto aln = extend_gapped(q, s, 10, 10, sc, 20);
  EXPECT_EQ(aln.q_start, 0u);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_start, 0u);
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.score, static_cast<int>(q.size()));
  EXPECT_EQ(aln.identities, q.size());
  EXPECT_EQ(aln.align_len, q.size());
  EXPECT_EQ(aln.gaps, 0u);
}

TEST(ExtendGapped, BridgesASingleDeletion) {
  // Subject is missing 2 bases from the middle of the query.
  const std::string left = "ACGGTCAGATCG";
  const std::string right = "TTCAGGACCTGA";
  const auto q = encode_dna(left + "GG" + right);
  const auto s = encode_dna(left + right);
  const Scorer sc = Scorer::dna(1, -3, 2, 1);  // gap of len 2 costs 2+2*1=4
  const auto aln = extend_gapped(q, s, 2, 2, sc, 16);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.gaps, 2u);
  EXPECT_EQ(aln.identities, left.size() + right.size());
  EXPECT_EQ(aln.align_len, q.size());
  EXPECT_EQ(aln.score, static_cast<int>(left.size() + right.size()) - 2 - 2 * 1);
}

TEST(ExtendGapped, BridgesAnInsertionInSubject) {
  const std::string left = "ACGGTCAGATCG";
  const std::string right = "TTCAGGACCTGA";
  const auto q = encode_dna(left + right);
  const auto s = encode_dna(left + "AAA" + right);
  const Scorer sc = Scorer::dna(1, -3, 2, 1);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 20);
  EXPECT_EQ(aln.q_end, q.size());
  EXPECT_EQ(aln.s_end, s.size());
  EXPECT_EQ(aln.gaps, 3u);
  EXPECT_EQ(aln.score, static_cast<int>(left.size() + right.size()) - 2 - 3);
}

TEST(ExtendGapped, XdropPreventsCrossingLongJunk) {
  // Two matching segments separated by 30 junk bases; with a small X-drop
  // the alignment must stay in the seeded segment.
  const std::string seg1 = "ACGGTCAGATCGAT";
  const auto q = encode_dna(seg1 + std::string(30, 'T') + seg1);
  const auto s = encode_dna(seg1 + std::string(30, 'G') + seg1);
  const Scorer sc = Scorer::dna(1, -3, 5, 2);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 8);
  EXPECT_EQ(aln.q_start, 0u);
  EXPECT_EQ(aln.q_end, seg1.size());
  EXPECT_EQ(aln.score, static_cast<int>(seg1.size()));
}

TEST(ExtendGapped, ProteinAlignmentWithBlosum) {
  const auto q = encode_protein("MKVLAAGWQERTYHD");
  const auto s = encode_protein("MKVLAAGWQERTYHD");
  const Scorer sc = Scorer::blosum62();
  const auto aln = extend_gapped(q, s, 7, 7, sc, 30);
  EXPECT_EQ(aln.identities, q.size());
  int self_score = 0;
  for (const auto c : q) self_score += sc.score(c, c);
  EXPECT_EQ(aln.score, self_score);
}

TEST(ExtendGapped, SeedAtSequenceEdges) {
  const auto q = encode_dna("ACGTACGT");
  const auto s = q;
  const Scorer sc = Scorer::dna(1, -2, 2, 1);
  const auto a0 = extend_gapped(q, s, 0, 0, sc, 10);
  EXPECT_EQ(a0.score, 8);
  const auto a7 = extend_gapped(q, s, 7, 7, sc, 10);
  EXPECT_EQ(a7.score, 8);
}

TEST(ExtendGapped, EditOpsSpanCoordinates) {
  const auto q = encode_dna("ACGGTCAGATCGAATTCAGGACCTGA");
  const auto s = encode_dna("ACGGTCAGATCGTTCAGGACCTGA");
  const Scorer sc = Scorer::dna(1, -3, 2, 1);
  const auto aln = extend_gapped(q, s, 2, 2, sc, 16);
  std::size_t q_span = 0;
  std::size_t s_span = 0;
  for (const auto& op : aln.ops) {
    if (op.type != EditOp::Type::InsertS) q_span += op.len;
    if (op.type != EditOp::Type::InsertQ) s_span += op.len;
  }
  EXPECT_EQ(q_span, aln.q_end - aln.q_start);
  EXPECT_EQ(s_span, aln.s_end - aln.s_start);
}

/// FNV-1a over everything extend_gapped returns, ops included.
std::uint64_t alignment_digest(const GappedAlignment& aln,
                               std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint32_t>(aln.score));
  mix(aln.q_start);
  mix(aln.q_end);
  mix(aln.s_start);
  mix(aln.s_end);
  mix(aln.identities);
  mix(aln.align_len);
  mix(aln.gaps);
  mix(aln.ops.size());
  for (const EditOp& op : aln.ops) {
    mix(static_cast<std::uint64_t>(op.type));
    mix(op.len);
  }
  return h;
}

/// Random residues in [0, alphabet), with the ambiguity code `ambig` at a
/// rate of one in a hundred.
std::vector<std::uint8_t> random_residues(Rng& rng, std::size_t n, int alphabet,
                                          std::uint8_t ambig) {
  std::vector<std::uint8_t> out(n);
  for (auto& c : out) {
    c = rng.uniform() < 0.01 ? ambig : static_cast<std::uint8_t>(rng.below(alphabet));
  }
  return out;
}

/// Appends a diverged copy of `src` to `out`: substitutions at `sub_rate`,
/// 1-3 residue insertions or deletions at `indel_rate`. map[k] is the
/// offset in `out` of src[k]'s copy, or SIZE_MAX where it was deleted.
void append_diverged(Rng& rng, const std::vector<std::uint8_t>& src, int alphabet,
                     double sub_rate, double indel_rate, std::vector<std::uint8_t>& out,
                     std::vector<std::size_t>& map) {
  map.assign(src.size(), SIZE_MAX);
  for (std::size_t k = 0; k < src.size(); ++k) {
    if (rng.uniform() < indel_rate) {
      const std::size_t len = 1 + rng.below(3);
      if (rng.uniform() < 0.5) {
        for (std::size_t n = 0; n < len; ++n) {
          out.push_back(static_cast<std::uint8_t>(rng.below(alphabet)));
        }
      } else {
        k += len - 1;
        continue;
      }
    }
    map[k] = out.size();
    out.push_back(rng.uniform() < sub_rate ? static_cast<std::uint8_t>(rng.below(alphabet))
                                           : src[k]);
  }
}

TEST(ExtendGapped, GoldenInteriorSeeds) {
  // GappedVsReferenceP extends only from (0, 0), so the leftward pass is
  // otherwise checked against nothing but itself. This pins ~200 interior
  // seeds per scorer (homolog pairs with indels, subject seeds up to
  // ~5,000, edge seeds, long subject insertions) to constants recorded
  // with the allocating implementation that reversed whole prefixes;
  // update them only for an intended change of results.
  struct Setup {
    Scorer scorer;
    int xdrop;
    int alphabet;
    std::uint8_t ambig;
    std::uint64_t golden;
  };
  const Setup setups[] = {
      {Scorer::dna(2, -3, 5, 2), 30, 4, kDnaAmbig, 0xd91ab27c2d0d474fULL},
      {Scorer::blosum62(11, 1), 38, 20, kProtAmbig, 0x1344a662ecfae181ULL},
  };
  for (const Setup& su : setups) {
    const Scorer& sc = su.scorer;
    // Row 0's reach: the last column whose pure-gap score stays within
    // the X-drop. The leftward pass needs only the q_seed + reach + 1
    // subject bytes left of the seed.
    const std::size_t reach =
        1 + static_cast<std::size_t>((su.xdrop - sc.gap_open() - sc.gap_extend()) /
                                     sc.gap_extend());
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(su.alphabet));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t truncated = 0;
    for (int c = 0; c < 200; ++c) {
      const auto ancestor = random_residues(rng, 150 + rng.below(450), su.alphabet, su.ambig);
      const double sub_rate = su.alphabet == 4 ? 0.08 : 0.3;
      // Every tenth subject starts with the homolog so the seed lies
      // inside the window; the others get up to 4,700 unrelated residues
      // first so the window truncates the leftward pass.
      std::vector<std::uint8_t> s =
          random_residues(rng, c % 10 == 0 ? 0 : rng.below(4700), su.alphabet, su.ambig);
      std::vector<std::uint8_t> q;
      std::vector<std::size_t> q_map;
      std::vector<std::size_t> s_map;
      std::size_t q_seed = 0;
      std::size_t s_seed = 0;
      if (c % 10 == 5) {
        // Long subject insertion: a shared prefix, then exactly row 0's
        // reach of inserted subject residues, then the seed. The leftward
        // band runs along the window's edge to the first query residue,
        // where the best cell reads the last byte the window must hold.
        q = random_residues(rng, 20 + rng.below(40), su.alphabet, su.ambig);
        s.insert(s.end(), q.begin(), q.end());
        const auto ins = random_residues(rng, reach, su.alphabet, su.ambig);
        s.insert(s.end(), ins.begin(), ins.end());
        q_seed = q.size();
        s_seed = s.size();
        append_diverged(rng, ancestor, su.alphabet, sub_rate, 0.02, q, q_map);
        append_diverged(rng, ancestor, su.alphabet, sub_rate, 0.02, s, s_map);
      } else {
        // Seed on a conserved residue of the shared ancestor, q_seed <= 300.
        q = random_residues(rng, rng.below(60), su.alphabet, su.ambig);
        append_diverged(rng, ancestor, su.alphabet, sub_rate, 0.02, q, q_map);
        append_diverged(rng, ancestor, su.alphabet, sub_rate, 0.02, s, s_map);
        for (int tries = 0; tries < 1000; ++tries) {
          const std::size_t k = rng.below(ancestor.size());
          if (q_map[k] == SIZE_MAX || s_map[k] == SIZE_MAX || q_map[k] > 300) continue;
          q_seed = q_map[k];
          s_seed = s_map[k];
          if (q[q_seed] == s[s_seed] && q[q_seed] != su.ambig) break;
        }
      }
      const auto tail = random_residues(rng, rng.below(300), su.alphabet, su.ambig);
      s.insert(s.end(), tail.begin(), tail.end());
      switch (c) {  // seeds at either end of either sequence
        case 1: q_seed = 0; break;
        case 2: s_seed = 0; break;
        case 3: q_seed = q.size() - 1; break;
        case 4: s_seed = s.size() - 1; break;
        default: break;
      }
      s[s_seed] = q[q_seed];

      const GappedAlignment aln = extend_gapped(q, s, q_seed, s_seed, sc, su.xdrop);
      h = alignment_digest(aln, h);

      // Bytes left of the window must not matter: overwrite them with the
      // reversed query, so that the leftward pass would find a perfect
      // diagonal just past the window if it could reach it.
      const std::size_t window = std::min(s_seed, q_seed + reach + 1);
      if (window < s_seed) {
        ++truncated;
        std::vector<std::uint8_t> s2 = s;
        for (std::size_t k = 0; k < s_seed - window; ++k) {
          s2[s_seed - window - 1 - k] = q[(q_seed + q.size() - 1 - k % q.size()) % q.size()];
        }
        EXPECT_EQ(alignment_digest(extend_gapped(q, s2, q_seed, s_seed, sc, su.xdrop)),
                  alignment_digest(aln))
            << "case " << c << " q_seed " << q_seed << " s_seed " << s_seed;
      }
    }
    EXPECT_GT(truncated, 150u);
    EXPECT_EQ(h, su.golden) << std::hex << h;
  }
}

}  // namespace
}  // namespace mrbio::blast
