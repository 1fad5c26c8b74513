// End-to-end searcher tests: homology detection, strands, statistics
// overrides, reporting limits, and determinism.
#include "blast/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "blast/diag_marks.hpp"
#include "common/rng.hpp"
#include <unistd.h>

namespace mrbio::blast {
namespace {

/// Builds an in-memory volume from sequences via a temp-free path: we round
/// trip through DbBuilder files in a temp dir.
std::shared_ptr<const DbVolume> make_volume(const std::vector<Sequence>& seqs,
                                            SeqType type) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mrbio_search_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string base = (dir / ("db" + std::to_string(counter++))).string();
  const DbInfo info = build_db(seqs, base, type, 1ull << 40);
  auto vol = std::make_shared<DbVolume>(DbVolume::load(info.volume_paths.at(0)));
  return vol;
}

SearchOptions dna_options() {
  SearchOptions o;  // defaults are blastn-like
  o.filter_low_complexity = false;
  return o;
}

TEST(Search, FindsIdenticalSequence) {
  Rng rng(31);
  std::vector<Sequence> db;
  for (int i = 0; i < 10; ++i) {
    db.push_back(random_sequence(rng, "bg" + std::to_string(i), 500, SeqType::Dna));
  }
  db.push_back(random_sequence(rng, "target", 600, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);

  Sequence query;
  query.id = "q";
  query.data.assign(db.back().data.begin() + 100, db.back().data.begin() + 500);

  BlastSearcher searcher(vol, dna_options());
  const auto results = searcher.search({query});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].hsps.empty());
  const Hsp& top = results[0].hsps.front();
  EXPECT_EQ(top.subject_id, "target");
  EXPECT_EQ(top.s_start, 100u);
  EXPECT_EQ(top.s_end, 500u);
  EXPECT_EQ(top.q_start, 0u);
  EXPECT_EQ(top.q_end, 400u);
  EXPECT_EQ(top.identities, 400u);
  EXPECT_LT(top.evalue, 1e-50);
  EXPECT_FALSE(top.minus_strand);
}

TEST(Search, FindsDivergedHomolog) {
  Rng rng(32);
  std::vector<Sequence> db;
  for (int i = 0; i < 5; ++i) {
    db.push_back(random_sequence(rng, "bg" + std::to_string(i), 800, SeqType::Dna));
  }
  const Sequence parent = random_sequence(rng, "parent", 500, SeqType::Dna);
  db.push_back(mutate(rng, parent, "homolog", 0.10, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);

  Sequence query = parent;
  query.id = "q";
  BlastSearcher searcher(vol, dna_options());
  const auto results = searcher.search({query});
  ASSERT_FALSE(results[0].hsps.empty());
  const Hsp& top = results[0].hsps.front();
  EXPECT_EQ(top.subject_id, "homolog");
  EXPECT_GT(top.identity_fraction(), 0.8);
  EXPECT_LT(top.identity_fraction(), 0.97);
}

TEST(Search, FindsReverseStrandHit) {
  Rng rng(33);
  std::vector<Sequence> db;
  db.push_back(random_sequence(rng, "bg", 600, SeqType::Dna));
  const Sequence target = random_sequence(rng, "fwd", 400, SeqType::Dna);
  db.push_back(target);
  const auto vol = make_volume(db, SeqType::Dna);

  Sequence query;
  query.id = "q_rc";
  query.data = reverse_complement(target.data);

  BlastSearcher searcher(vol, dna_options());
  const auto results = searcher.search({query});
  ASSERT_FALSE(results[0].hsps.empty());
  const Hsp& top = results[0].hsps.front();
  EXPECT_EQ(top.subject_id, "fwd");
  EXPECT_TRUE(top.minus_strand);
  EXPECT_EQ(top.q_start, 0u);
  EXPECT_EQ(top.q_end, 400u);
  EXPECT_EQ(top.identities, 400u);
}

TEST(Search, MinusStrandDisabled) {
  Rng rng(33);
  std::vector<Sequence> db;
  db.push_back(random_sequence(rng, "bg", 600, SeqType::Dna));
  const Sequence target = random_sequence(rng, "fwd", 400, SeqType::Dna);
  db.push_back(target);
  const auto vol = make_volume(db, SeqType::Dna);
  Sequence query;
  query.id = "q_rc";
  query.data = reverse_complement(target.data);
  SearchOptions opts = dna_options();
  opts.both_strands = false;
  // Tiny DB: chance word matches can clear a permissive E-value cutoff, so
  // demand the significance only the true reverse-strand hit would reach.
  opts.evalue_cutoff = 1e-6;
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search({query});
  EXPECT_TRUE(results[0].hsps.empty());
}

TEST(Search, RandomQueryFindsNothingSignificant) {
  Rng rng(34);
  std::vector<Sequence> db;
  for (int i = 0; i < 10; ++i) {
    db.push_back(random_sequence(rng, "bg" + std::to_string(i), 1000, SeqType::Dna));
  }
  const auto vol = make_volume(db, SeqType::Dna);
  Rng rng2(999);
  const Sequence query = random_sequence(rng2, "noise", 400, SeqType::Dna);
  SearchOptions opts = dna_options();
  opts.evalue_cutoff = 1e-6;
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search({query});
  EXPECT_TRUE(results[0].hsps.empty());
}

TEST(Search, MaxHitsTruncates) {
  Rng rng(35);
  const Sequence target = random_sequence(rng, "t", 300, SeqType::Dna);
  std::vector<Sequence> db;
  for (int i = 0; i < 8; ++i) {
    db.push_back(mutate(rng, target, "copy" + std::to_string(i), 0.02, SeqType::Dna));
  }
  const auto vol = make_volume(db, SeqType::Dna);
  Sequence query = target;
  query.id = "q";

  SearchOptions opts = dna_options();
  opts.max_hits_per_query = 3;
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search({query});
  EXPECT_EQ(results[0].hsps.size(), 3u);
  // Sorted by E-value ascending.
  for (std::size_t i = 1; i < results[0].hsps.size(); ++i) {
    EXPECT_LE(results[0].hsps[i - 1].evalue, results[0].hsps[i].evalue);
  }
}

TEST(Search, EffectiveDbLengthRaisesEvalue) {
  Rng rng(36);
  std::vector<Sequence> db;
  db.push_back(random_sequence(rng, "t", 400, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);
  Sequence query;
  query.id = "q";
  query.data.assign(db[0].data.begin(), db[0].data.begin() + 200);

  SearchOptions small = dna_options();
  BlastSearcher s1(vol, small);
  const double ev_small = s1.search({query})[0].hsps.front().evalue;

  SearchOptions big = dna_options();
  big.effective_db_length = 364'000'000'000ULL;  // the paper's 364 Gbp
  big.effective_db_seqs = 62'000'000;
  BlastSearcher s2(vol, big);
  const double ev_big = s2.search({query})[0].hsps.front().evalue;
  EXPECT_GT(ev_big, ev_small * 1e3);
}

TEST(Search, ExcludeSelfHitsDropsParentMatch) {
  Rng rng(37);
  std::vector<Sequence> db;
  db.push_back(random_sequence(rng, "refseq1", 800, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);

  // Shredded fragment of the DB sequence, named as the shredder names it.
  Sequence frag;
  frag.id = "refseq1/100-500";
  frag.data.assign(db[0].data.begin() + 100, db[0].data.begin() + 500);

  SearchOptions opts = dna_options();
  opts.exclude_self_hits = true;
  BlastSearcher searcher(vol, opts);
  EXPECT_TRUE(searcher.search({frag})[0].hsps.empty());

  opts.exclude_self_hits = false;
  BlastSearcher searcher2(vol, opts);
  EXPECT_FALSE(searcher2.search({frag})[0].hsps.empty());
}

TEST(Search, MultipleQueriesKeepOrder) {
  Rng rng(38);
  std::vector<Sequence> db;
  db.push_back(random_sequence(rng, "t1", 400, SeqType::Dna));
  db.push_back(random_sequence(rng, "t2", 400, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);

  Sequence q1;
  q1.id = "q1";
  q1.data.assign(db[0].data.begin(), db[0].data.begin() + 150);
  Sequence q2;
  q2.id = "q2";
  q2.data.assign(db[1].data.begin() + 200, db[1].data.begin() + 380);

  BlastSearcher searcher(vol, dna_options());
  const auto results = searcher.search({q1, q2});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].query_id, "q1");
  EXPECT_EQ(results[0].hsps.front().subject_id, "t1");
  EXPECT_EQ(results[1].query_id, "q2");
  EXPECT_EQ(results[1].hsps.front().subject_id, "t2");
}

TEST(Search, ProteinFindsRemoteHomolog) {
  Rng rng(39);
  std::vector<Sequence> db;
  for (int i = 0; i < 5; ++i) {
    db.push_back(random_sequence(rng, "bg" + std::to_string(i), 400, SeqType::Protein));
  }
  const Sequence parent = random_sequence(rng, "parent", 300, SeqType::Protein);
  db.push_back(mutate(rng, parent, "homolog", 0.3, SeqType::Protein));
  const auto vol = make_volume(db, SeqType::Protein);

  Sequence query = parent;
  query.id = "q";
  SearchOptions opts = make_protein_options();
  opts.filter_low_complexity = false;
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search({query});
  ASSERT_FALSE(results[0].hsps.empty());
  EXPECT_EQ(results[0].hsps.front().subject_id, "homolog");
  EXPECT_LT(results[0].hsps.front().evalue, 1e-10);
}

TEST(Search, ProteinExactSeedingFindsLessThanNeighbourhood) {
  // The paper notes the FPGA accelerator defaults to exact seed matches
  // only; neighbourhood seeding must find at least as many hits.
  Rng rng(40);
  std::vector<Sequence> db;
  const Sequence parent = random_sequence(rng, "parent", 250, SeqType::Protein);
  db.push_back(mutate(rng, parent, "homolog", 0.35, SeqType::Protein));
  const auto vol = make_volume(db, SeqType::Protein);

  Sequence query = parent;
  query.id = "q";
  SearchOptions nb = make_protein_options();
  nb.filter_low_complexity = false;
  SearchOptions exact = nb;
  exact.threshold = 0;

  BlastSearcher s_nb(vol, nb);
  BlastSearcher s_ex(vol, exact);
  const auto r_nb = s_nb.search({query});
  s_nb.last_stats();
  const auto r_ex = s_ex.search({query});
  EXPECT_GE(r_nb[0].hsps.size(), r_ex[0].hsps.size());
}

TEST(Search, LowComplexityFilterSuppressesRepeatSeeds) {
  // A poly-A query against a poly-A-containing subject explodes without
  // DUST; with DUST the repeat region generates no seeds.
  std::vector<Sequence> db;
  Sequence subj;
  subj.id = "repeat";
  subj.data.assign(500, 0);  // poly-A
  db.push_back(subj);
  const auto vol = make_volume(db, SeqType::Dna);

  Sequence query;
  query.id = "q";
  query.data.assign(300, 0);

  SearchOptions with_filter = dna_options();
  with_filter.filter_low_complexity = true;
  BlastSearcher s1(vol, with_filter);
  EXPECT_TRUE(s1.search({query})[0].hsps.empty());

  SearchOptions no_filter = dna_options();
  no_filter.filter_low_complexity = false;
  BlastSearcher s2(vol, no_filter);
  EXPECT_FALSE(s2.search({query})[0].hsps.empty());
}

TEST(Search, StatsCountersPopulated) {
  Rng rng(41);
  std::vector<Sequence> db{random_sequence(rng, "t", 500, SeqType::Dna)};
  const auto vol = make_volume(db, SeqType::Dna);
  Sequence query;
  query.id = "q";
  query.data.assign(db[0].data.begin(), db[0].data.begin() + 300);
  BlastSearcher searcher(vol, dna_options());
  searcher.search({query});
  const SearchStats& st = searcher.last_stats();
  EXPECT_GT(st.word_hits, 0u);
  EXPECT_GT(st.ungapped_extensions, 0u);
  EXPECT_GT(st.gapped_extensions, 0u);
  EXPECT_EQ(st.hsps_reported, 1u);
}

TEST(Search, DeterministicAcrossRuns) {
  Rng rng(42);
  std::vector<Sequence> db;
  const Sequence parent = random_sequence(rng, "p", 600, SeqType::Dna);
  db.push_back(mutate(rng, parent, "h1", 0.1, SeqType::Dna));
  db.push_back(mutate(rng, parent, "h2", 0.15, SeqType::Dna));
  const auto vol = make_volume(db, SeqType::Dna);
  Sequence query = parent;
  query.id = "q";

  BlastSearcher searcher(vol, dna_options());
  const auto r1 = searcher.search({query});
  const auto r2 = searcher.search({query});
  ASSERT_EQ(r1[0].hsps.size(), r2[0].hsps.size());
  for (std::size_t i = 0; i < r1[0].hsps.size(); ++i) {
    EXPECT_EQ(r1[0].hsps[i].subject_id, r2[0].hsps[i].subject_id);
    EXPECT_EQ(r1[0].hsps[i].raw_score, r2[0].hsps[i].raw_score);
    EXPECT_DOUBLE_EQ(r1[0].hsps[i].evalue, r2[0].hsps[i].evalue);
  }
}

TEST(Search, MismatchedDbTypeRejected) {
  Rng rng(43);
  const auto vol = make_volume({random_sequence(rng, "t", 100, SeqType::Dna)}, SeqType::Dna);
  EXPECT_THROW(BlastSearcher(vol, make_protein_options()), InputError);
}

TEST(Search, EmptyQueryBlockOk) {
  Rng rng(44);
  const auto vol = make_volume({random_sequence(rng, "t", 100, SeqType::Dna)}, SeqType::Dna);
  BlastSearcher searcher(vol, dna_options());
  EXPECT_TRUE(searcher.search({}).empty());
}

/// FNV-1a over the integer fields of every HSP, in result order, and
/// optionally over every edit op. Float fields (bit score, E-value) stay
/// out so a different libm cannot move the digest; the order itself
/// depends only on raw scores and ids.
std::uint64_t hsp_digest(const std::vector<QueryResult>& results, bool with_ops = false) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const QueryResult& qr : results) {
    mix(qr.hsps.size());
    for (const Hsp& hsp : qr.hsps) {
      for (const char c : hsp.subject_id) mix(static_cast<unsigned char>(c));
      mix(hsp.q_start);
      mix(hsp.q_end);
      mix(hsp.s_start);
      mix(hsp.s_end);
      mix(hsp.minus_strand ? 1 : 0);
      mix(static_cast<std::uint32_t>(hsp.raw_score));
      mix(hsp.identities);
      mix(hsp.align_len);
      mix(hsp.gaps);
      if (!with_ops) continue;
      mix(hsp.ops.size());
      for (const EditOp& op : hsp.ops) {
        mix(static_cast<std::uint64_t>(op.type));
        mix(op.len);
      }
    }
  }
  return h;
}

TEST(Search, GoldenDnaBlockOutput) {
  // Every other byte-identity test compares the engine with itself (across
  // ISA level, backend, scheduler), so an output change that happens
  // everywhere at once would pass them. This one pins the output of a
  // fixed block search to constants recorded with the earlier
  // direct-addressed word lookup; update them only for an intended change
  // of results.
  Rng rng(20110516);
  std::vector<Sequence> genomes;
  for (int g = 0; g < 4; ++g) {
    genomes.push_back(random_sequence(rng, "g" + std::to_string(g), 3000, SeqType::Dna));
  }
  const auto vol = make_volume(genomes, SeqType::Dna);

  // Reads: shredded from diverged copies, every third one reverse
  // complemented, with scattered Ns, a few indels and one low-complexity
  // run, so every stage, both strands and DUST have work to do.
  std::vector<Sequence> copies;
  for (const Sequence& g : genomes) copies.push_back(mutate(rng, g, g.id, 0.08, SeqType::Dna));
  std::vector<Sequence> reads = shred(copies, 300, 100, 50);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    Sequence& r = reads[i];
    if (i % 3 == 0) r.data = reverse_complement(r.data);
    for (auto& c : r.data) {
      if (rng.uniform() < 0.01) c = kDnaAmbig;
    }
    if (rng.uniform() < 0.3) {
      const auto at = static_cast<std::ptrdiff_t>(rng.below(r.data.size()));
      if (rng.uniform() < 0.5) {
        r.data.insert(r.data.begin() + at, 1 + rng.below(3), std::uint8_t{2});
      } else {
        r.data.erase(r.data.begin() + at,
                     r.data.begin() + std::min<std::ptrdiff_t>(
                                          at + 2, static_cast<std::ptrdiff_t>(r.data.size())));
      }
    }
  }
  std::fill_n(reads[5].data.begin() + 40, 80, std::uint8_t{0});  // poly-A

  SearchOptions opts;  // blastn defaults: both strands, DUST on
  ASSERT_TRUE(opts.both_strands);
  ASSERT_TRUE(opts.filter_low_complexity);
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search(reads);
  const SearchStats& st = searcher.last_stats();
  std::size_t gapped = 0;
  std::size_t minus = 0;
  for (const QueryResult& qr : results) {
    for (const Hsp& hsp : qr.hsps) {
      gapped += hsp.gaps > 0 ? 1 : 0;
      minus += hsp.minus_strand ? 1 : 0;
    }
  }
  ASSERT_GT(gapped, 0u);
  ASSERT_GT(minus, 0u);

  EXPECT_EQ(hsp_digest(results), 0x819b35869e64b003ULL);
  EXPECT_EQ(st.word_hits, 6211u);
  EXPECT_EQ(st.ungapped_extensions, 131u);
  EXPECT_EQ(st.gapped_extensions, 98u);
  EXPECT_EQ(st.hsps_reported, 84u);
}

TEST(Search, GoldenProteinBlockOutput) {
  // The protein counterpart of GoldenDnaBlockOutput: BLOSUM62 with
  // neighbourhood words, two-hit seeding and SEG, on diverged fragments
  // with indels, pinned edit ops included.
  Rng rng(20110517);
  std::vector<Sequence> proteins;
  for (int p = 0; p < 6; ++p) {
    proteins.push_back(
        random_sequence(rng, "p" + std::to_string(p), 400, SeqType::Protein));
  }
  const auto vol = make_volume(proteins, SeqType::Protein);

  // Queries: fragments of diverged copies with scattered X residues and
  // short indels, plus one low-complexity run for SEG to mask.
  std::vector<Sequence> copies;
  for (const Sequence& p : proteins) {
    copies.push_back(mutate(rng, p, p.id, 0.3, SeqType::Protein));
  }
  std::vector<Sequence> queries = shred(copies, 150, 50, 40);
  for (Sequence& q : queries) {
    for (auto& c : q.data) {
      if (rng.uniform() < 0.01) c = kProtAmbig;
    }
    for (int k = 0; k < 2; ++k) {
      const auto at = static_cast<std::ptrdiff_t>(rng.below(q.data.size()));
      if (rng.uniform() < 0.5) {
        q.data.insert(q.data.begin() + at, 1 + rng.below(4),
                      static_cast<std::uint8_t>(rng.below(kProtAlphabet)));
      } else {
        q.data.erase(q.data.begin() + at,
                     q.data.begin() + std::min<std::ptrdiff_t>(
                                          at + 3, static_cast<std::ptrdiff_t>(q.data.size())));
      }
    }
  }
  const auto sq = encode_protein("SQ");
  for (std::size_t k = 0; k < 30; ++k) queries[3].data[20 + k] = sq[k % 2];

  SearchOptions opts = make_protein_options();
  ASSERT_TRUE(opts.two_hit);
  ASSERT_TRUE(opts.filter_low_complexity);
  BlastSearcher searcher(vol, opts);
  const auto results = searcher.search(queries);
  const SearchStats& st = searcher.last_stats();
  std::size_t gapped = 0;
  for (const QueryResult& qr : results) {
    for (const Hsp& hsp : qr.hsps) gapped += hsp.gaps > 0 ? 1 : 0;
  }
  ASSERT_GT(gapped, 0u);

  EXPECT_EQ(hsp_digest(results, /*with_ops=*/true), 0xe622b5aed29ae7c8ULL);
  EXPECT_EQ(st.word_hits, 33507u);
  EXPECT_EQ(st.ungapped_extensions, 2365u);
  EXPECT_EQ(st.gapped_extensions, 58u);
  EXPECT_EQ(st.hsps_reported, 26u);
}

// ---------------------------------------------------------------------------
// Diagonal marks: biased per subject, kept per thread across searches

/// The integer fields of `subject`'s HSPs, one row per HSP, in result order.
std::vector<std::vector<std::uint64_t>> subject_hsps(const std::vector<QueryResult>& results,
                                                     const std::string& subject) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const QueryResult& qr : results) {
    for (const Hsp& h : qr.hsps) {
      if (h.subject_id != subject) continue;
      out.push_back({h.q_start, h.q_end, h.s_start, h.s_end,
                     static_cast<std::uint64_t>(h.raw_score), h.minus_strand ? 1u : 0u,
                     h.ops.size()});
    }
  }
  return out;
}

/// Searches `query` against a volume of `subjects` and against each
/// subject alone, with the whole volume's statistics in both, and expects
/// every subject's HSPs to agree. Subjects 2k and 2k+1 are built to share
/// diagonal indices: a mark that leaked from one subject into the next
/// would drop hits of the second. Returns the HSP count per subject.
std::vector<std::size_t> expect_subjects_independent(const std::vector<Sequence>& subjects,
                                                     const Sequence& query,
                                                     SearchOptions opts) {
  std::uint64_t residues = 0;
  for (const Sequence& s : subjects) residues += s.length();
  opts.effective_db_length = residues;
  opts.effective_db_seqs = subjects.size();
  const auto together =
      BlastSearcher(make_volume(subjects, opts.type), opts).search({query});
  std::vector<std::size_t> counts;
  for (const Sequence& s : subjects) {
    const auto alone = BlastSearcher(make_volume({s}, opts.type), opts).search({query});
    const auto want = subject_hsps(alone, s.id);
    EXPECT_EQ(subject_hsps(together, s.id), want) << s.id;
    counts.push_back(want.size());
  }
  return counts;
}

/// `length` random residues with `query[from, from + n)` copied to `at`.
Sequence planted(Rng& rng, const std::string& id, std::size_t length, SeqType type,
                 const Sequence& query, std::size_t from, std::size_t n, std::size_t at) {
  Sequence s = random_sequence(rng, id, length, type);
  std::copy_n(query.data.begin() + static_cast<std::ptrdiff_t>(from), n,
              s.data.begin() + static_cast<std::ptrdiff_t>(at));
  return s;
}

TEST(Search, DiagonalMarksDoNotLeakIntoTheNextSubjectDna) {
  // Subject 0 is the query itself: one long HSP whose high-water mark
  // reaches the subject's end on the main diagonal. Subject 1, of the same
  // length, starts with the query's first 60 bases, so its early word hits
  // fall on the same diagonal index, below that mark.
  Rng rng(2301);
  Sequence query = random_sequence(rng, "q", 400, SeqType::Dna);
  std::vector<Sequence> subjects;
  subjects.push_back(query);
  subjects.back().id = "s0";
  subjects.push_back(planted(rng, "s1", 400, SeqType::Dna, query, 0, 60, 0));
  SearchOptions opts = dna_options();
  opts.both_strands = false;
  const auto counts = expect_subjects_independent(subjects, query, opts);
  EXPECT_GE(counts[0], 1u);
  EXPECT_GE(counts[1], 1u) << "subject 1 must have a hit for the test to bite";
}

TEST(Search, DiagonalMarksDoNotLeakIntoTheNextSubjectProteinTwoHit) {
  // s0/s1 as in the DNA test, for the extension marks. s2/s3 cover the
  // two-hit marks: s2 holds one lone query word near its end on the main
  // diagonal, recorded as an unextended hit; s3 starts with the query's
  // first 50 residues, whose pairs of hits on that diagonal lie below the
  // lone hit's mark.
  Rng rng(2302);
  Sequence query = random_sequence(rng, "q", 300, SeqType::Protein);
  std::vector<Sequence> subjects;
  subjects.push_back(query);
  subjects.back().id = "s0";
  subjects.push_back(planted(rng, "s1", 300, SeqType::Protein, query, 0, 50, 0));
  subjects.push_back(planted(rng, "s2", 300, SeqType::Protein, query, 250, 3, 250));
  subjects.push_back(planted(rng, "s3", 300, SeqType::Protein, query, 0, 50, 0));
  SearchOptions opts = make_protein_options();
  opts.filter_low_complexity = false;
  ASSERT_TRUE(opts.two_hit);
  const auto counts = expect_subjects_independent(subjects, query, opts);
  EXPECT_GE(counts[0], 1u);
  EXPECT_GE(counts[1], 1u);
  EXPECT_GE(counts[3], 1u);
}

TEST(Search, DiagonalMarksRezeroBeforeTheBiasPasses32Bits) {
  // Bases step by length + 1 per subject; a subject whose marks would pass
  // 2^32 - 1 finds every mark re-zeroed and the bases restarted at 1.
  const std::uint64_t max = std::numeric_limits<std::uint32_t>::max();
  DiagMarks marks(max - 6);
  marks.begin_subject(8, 3, /*two_hit=*/true);  // base max - 6, marks <= max - 3
  EXPECT_EQ(marks.end(2), -1);
  marks.set_end(2, 3);
  marks.set_hit(5, 1);
  EXPECT_EQ(marks.end(2), 3);
  EXPECT_EQ(marks.hit(5), 1);
  marks.begin_subject(8, 2, true);  // base max - 2, marks <= max: no wrap yet
  EXPECT_EQ(marks.end(2), -1);
  EXPECT_EQ(marks.hit(5), -1);
  marks.set_end(4, 2);
  EXPECT_EQ(marks.end(4), 2);
  marks.begin_subject(8, 3, true);  // would pass 2^32 - 1: re-zero, base 1
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(marks.end(d), -1) << d;
    EXPECT_EQ(marks.hit(d), -1) << d;
  }
  marks.set_end(2, 1);
  EXPECT_EQ(marks.end(2), 1);
  marks.begin_subject(16, 5, false);  // base 5; grown marks read stale too
  EXPECT_EQ(marks.end(2), -1);
  EXPECT_EQ(marks.end(15), -1);
}

TEST(Search, ReusedThreadWorkspaceMatchesFreshSearches) {
  // One thread runs a large DNA block, then a small block of the same
  // reads (same concat coordinates, so the same diagonals), then a
  // protein search; each must match the same search on a fresh thread.
  Rng rng(2303);
  std::vector<Sequence> genomes;
  for (int g = 0; g < 3; ++g) {
    genomes.push_back(random_sequence(rng, "g" + std::to_string(g), 2000, SeqType::Dna));
  }
  const auto dna_vol = make_volume(genomes, SeqType::Dna);
  std::vector<Sequence> copies;
  for (const Sequence& g : genomes) copies.push_back(mutate(rng, g, g.id, 0.05, SeqType::Dna));
  const std::vector<Sequence> large = shred(copies, 300, 100);
  const std::vector<Sequence> small(large.begin(), large.begin() + 3);

  std::vector<Sequence> proteins;
  for (int p = 0; p < 4; ++p) {
    proteins.push_back(random_sequence(rng, "p" + std::to_string(p), 300, SeqType::Protein));
  }
  const auto prot_vol = make_volume(proteins, SeqType::Protein);
  std::vector<Sequence> prot_queries;
  for (const Sequence& p : proteins) {
    prot_queries.push_back(mutate(rng, p, p.id, 0.2, SeqType::Protein));
  }
  SearchOptions prot_opts = make_protein_options();
  prot_opts.filter_low_complexity = false;

  const BlastSearcher dna(dna_vol, SearchOptions{});
  const BlastSearcher prot(prot_vol, prot_opts);
  const std::vector<std::function<std::uint64_t()>> searches = {
      [&] { return hsp_digest(dna.search(large), true); },
      [&] { return hsp_digest(dna.search(small), true); },
      [&] { return hsp_digest(prot.search(prot_queries), true); },
  };
  std::vector<std::uint64_t> fresh;
  for (const auto& search : searches) {
    std::thread([&] { fresh.push_back(search()); }).join();
  }
  std::vector<std::uint64_t> reused;
  std::thread([&] {
    for (const auto& search : searches) reused.push_back(search());
  }).join();
  EXPECT_EQ(reused, fresh);
  std::size_t small_hsps = 0;
  for (const QueryResult& qr : dna.search(small)) small_hsps += qr.hsps.size();
  EXPECT_GT(small_hsps, 0u) << "the small block must have hits for the test to bite";
}

TEST(Search, QueryShorterThanWordFindsNothing) {
  Rng rng(45);
  const auto vol = make_volume({random_sequence(rng, "t", 200, SeqType::Dna)}, SeqType::Dna);
  Sequence tiny;
  tiny.id = "tiny";
  tiny.data.assign(vol->seq(0).data.begin(), vol->seq(0).data.begin() + 6);
  BlastSearcher searcher(vol, dna_options());  // word size 11 > 6
  EXPECT_TRUE(searcher.search({tiny})[0].hsps.empty());
}

}  // namespace
}  // namespace mrbio::blast
