#include "blast/search.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "blast/diag_marks.hpp"
#include "blast/extend.hpp"
#include "blast/filter.hpp"
#include "blast/lookup.hpp"
#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::blast {

SearchOptions make_protein_options() {
  SearchOptions o;
  o.type = SeqType::Protein;
  o.word_size = 3;
  o.threshold = 11;
  o.two_hit = true;
  o.gap_open = 11;
  o.gap_extend = 1;
  o.xdrop_ungapped = 16;
  o.xdrop_gapped = 38;
  o.both_strands = false;
  return o;
}

namespace {

/// One strand of one query inside the concatenated block coordinate space.
struct QueryEntry {
  std::uint32_t query_idx;
  bool reverse;
  std::size_t begin;  ///< offset of the first residue in the concat space
  std::size_t len;
};

/// What one thread's searches reuse: the diagonal marks and the nucleotide
/// lookup's storage. A map task then neither zero-fills fresh memory for
/// them nor, once glibc trims the freed chunks, faults their pages in again.
struct SearchWorkspace {
  DiagMarks marks;
  NucLookup nuc;
};

/// True when a shredded query fragment "parent/123-456" hits its own
/// parent record "parent".
bool is_self_hit(const std::string& query_id, const std::string& subject_id) {
  if (query_id == subject_id) return true;
  return query_id.size() > subject_id.size() + 1 &&
         query_id.compare(0, subject_id.size(), subject_id) == 0 &&
         query_id[subject_id.size()] == '/';
}

}  // namespace

BlastSearcher::BlastSearcher(std::shared_ptr<const DbVolume> volume, SearchOptions options)
    : volume_(std::move(volume)), options_(options) {
  MRBIO_REQUIRE(volume_ != nullptr, "BlastSearcher needs a database volume");
  MRBIO_REQUIRE(volume_->type() == options_.type,
                "database type does not match search options");
  scorer_ = options_.type == SeqType::Dna
                ? Scorer::dna(options_.match, options_.mismatch, options_.gap_open,
                              options_.gap_extend)
                : Scorer::blosum62(options_.gap_open, options_.gap_extend);
  params_ungapped_ = karlin_ungapped(scorer_);
  params_gapped_ = karlin_gapped(scorer_);
}

std::vector<QueryResult> BlastSearcher::search(const std::vector<Sequence>& queries) const {
  stats_ = SearchStats{};
  const bool dna = options_.type == SeqType::Dna;

  // ---- build the concatenated query block ----
  std::vector<std::uint8_t> concat_raw;     // real residues, for extension
  std::vector<std::uint8_t> concat_masked;  // filtered residues, for seeding
  std::vector<QueryEntry> entries;
  std::vector<std::size_t> entry_bounds;  // begin offsets, for binary search
  concat_raw.push_back(kSentinel);
  concat_masked.push_back(kSentinel);

  auto add_entry = [&](std::uint32_t qidx, bool reverse,
                       std::span<const std::uint8_t> raw,
                       std::span<const std::uint8_t> masked) {
    QueryEntry e;
    e.query_idx = qidx;
    e.reverse = reverse;
    e.begin = concat_raw.size();
    e.len = raw.size();
    concat_raw.insert(concat_raw.end(), raw.begin(), raw.end());
    concat_raw.push_back(kSentinel);
    concat_masked.insert(concat_masked.end(), masked.begin(), masked.end());
    concat_masked.push_back(kSentinel);
    entry_bounds.push_back(e.begin);
    entries.push_back(e);
  };

  for (std::uint32_t qi = 0; qi < queries.size(); ++qi) {
    const Sequence& q = queries[qi];
    std::vector<std::uint8_t> masked = q.data;
    if (options_.filter_low_complexity) {
      const auto ranges = dna ? dust_mask(q.data) : seg_mask(q.data);
      masked = apply_mask(q.data, ranges, options_.type);
    }
    add_entry(qi, false, q.data, masked);
    if (dna && options_.both_strands) {
      const auto rev_raw = reverse_complement(q.data);
      const auto rev_masked = reverse_complement(masked);
      add_entry(qi, true, rev_raw, rev_masked);
    }
  }

  auto entry_of = [&](std::size_t concat_pos) -> const QueryEntry& {
    const auto it =
        std::upper_bound(entry_bounds.begin(), entry_bounds.end(), concat_pos);
    MRBIO_CHECK(it != entry_bounds.begin(), "concat position before first entry");
    return entries[static_cast<std::size_t>(it - entry_bounds.begin() - 1)];
  };

  // ---- stage 1 tables ----
  // Safe to share per thread: the call neither yields nor recurses.
  thread_local SearchWorkspace ws;
  DiagMarks& marks = ws.marks;
  const NucLookup& nuc_lookup = ws.nuc;
  std::unique_ptr<ProtLookup> prot_lookup;
  if (dna) {
    ws.nuc.rebuild(concat_masked, options_.word_size);
  } else {
    prot_lookup = std::make_unique<ProtLookup>(concat_masked, options_.threshold, scorer_);
  }
  const std::size_t word_len =
      dna ? static_cast<std::size_t>(options_.word_size) : ProtLookup::kWordSize;

  // ---- statistics setup ----
  const std::uint64_t db_len = options_.effective_db_length > 0
                                   ? options_.effective_db_length
                                   : volume_->residues();
  const std::uint64_t db_seqs =
      options_.effective_db_seqs > 0 ? options_.effective_db_seqs : volume_->num_seqs();
  // Raw ungapped score required to trigger the gapped stage.
  const int gap_trigger_raw = static_cast<int>(
      std::ceil((options_.gap_trigger_bits * std::log(2.0) + std::log(params_ungapped_.K)) /
                params_ungapped_.lambda));

  // Per-query effective search spaces (depend only on query length).
  std::vector<SearchSpace> spaces(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    spaces[qi] =
        effective_search_space(params_gapped_, queries[qi].length(), db_len, db_seqs);
  }

  // ---- scan every subject ----
  std::vector<std::vector<Hsp>> per_query(queries.size());
  const bool two_hit = !dna && options_.two_hit;

  for (std::size_t si = 0; si < volume_->num_seqs(); ++si) {
    const Sequence& subject = volume_->seq(si);
    if (subject.length() < word_len) continue;
    // Diagonal qpos - spos + length - 1 lies below concat + length.
    marks.begin_subject(concat_raw.size() + subject.length(), subject.length(), two_hit);
    const std::span<const std::uint8_t> sdata(subject.data);
    const std::int64_t diag_off = static_cast<std::int64_t>(subject.length()) - 1;

    auto handle_hit = [&](std::size_t qpos, std::size_t spos) {
      ++stats_.word_hits;
      const std::size_t d = static_cast<std::size_t>(
          static_cast<std::int64_t>(qpos) - static_cast<std::int64_t>(spos) + diag_off);
      if (static_cast<std::int64_t>(spos) < marks.end(d)) return;  // inside a prior HSP

      if (two_hit) {
        // Require a second non-overlapping hit within the window before
        // paying for an extension. A hit overlapping the recorded one is
        // dropped (the recorded hit stays, so a later non-overlapping hit
        // can still pair with it); a hit beyond the window replaces the
        // record and waits for its own partner.
        const std::int64_t prev_end = marks.hit(d);
        if (prev_end >= 0 && static_cast<std::int64_t>(spos) < prev_end) {
          return;
        }
        if (prev_end < 0 ||
            static_cast<std::int64_t>(spos) - prev_end > options_.two_hit_window) {
          marks.set_hit(d, spos + word_len);
          return;
        }
        // Partner found: fall through to the extension.
      }

      const QueryEntry& entry = entry_of(qpos);
      ++stats_.ungapped_extensions;
      const UngappedSegment seg =
          extend_ungapped(concat_raw, sdata, qpos, spos, word_len, scorer_,
                          options_.xdrop_ungapped);
      marks.set_end(d, seg.s_end);
      if (seg.score < gap_trigger_raw) return;

      ++stats_.gapped_extensions;
      // Clamp the gapped extension to the seed's own query entry. Sentinel
      // columns score -16384, which stops diagonal moves, but an affine gap
      // consumes query letters at gap cost without scoring them — so when a
      // lucky run of matches follows in the NEXT entry the DP could jump
      // the separator and land its best cell across it.
      const std::span<const std::uint8_t> qspan(concat_raw.data() + entry.begin, entry.len);
      GappedAlignment aln = extend_gapped(qspan, sdata, seg.q_best - entry.begin,
                                          seg.s_best, scorer_, options_.xdrop_gapped);
      aln.q_start += entry.begin;
      aln.q_end += entry.begin;
      const SearchSpace& space = spaces[entry.query_idx];
      const double ev = evalue(aln.score, space.m_eff, space.n_eff, params_gapped_);
      if (ev > options_.evalue_cutoff) return;

      const Sequence& q = queries[entry.query_idx];
      if (options_.exclude_self_hits && is_self_hit(q.id, subject.id)) return;

      Hsp h;
      h.subject_id = subject.id;
      h.raw_score = aln.score;
      h.bit_score = bit_score(aln.score, params_gapped_);
      h.evalue = ev;
      h.identities = aln.identities;
      h.align_len = aln.align_len;
      h.gaps = aln.gaps;
      h.ops = aln.ops;
      h.s_start = aln.s_start;
      h.s_end = aln.s_end;
      // Map concat coordinates back into the query, flipping minus-strand
      // matches onto plus-strand coordinates.
      const std::size_t qa = aln.q_start - entry.begin;
      const std::size_t qb = aln.q_end - entry.begin;
      MRBIO_CHECK(qb <= entry.len, "alignment crossed a sentinel");
      if (entry.reverse) {
        h.minus_strand = true;
        h.q_start = entry.len - qb;
        h.q_end = entry.len - qa;
      } else {
        h.q_start = qa;
        h.q_end = qb;
      }
      per_query[entry.query_idx].push_back(std::move(h));
      // Push the diagonal high-water mark past the gapped alignment too.
      marks.set_end(d, std::max(seg.s_end, aln.s_end));
    };

    // Subject word scans run through the dispatched word kernels in
    // blocks; valid bits iterate lowest-first, so word hits arrive in the
    // same ascending subject order as the scalar scans did.
    const simd::Kernels& kern = simd::kernels();
    if (dna) {
      const auto w = static_cast<std::size_t>(options_.word_size);
      const std::uint32_t mask =
          static_cast<std::uint32_t>((std::uint64_t{1} << (2 * w)) - 1);
      constexpr std::size_t kBlock = 48;
      std::uint32_t codes[kBlock];
      std::uint64_t valid = 0;
      std::uint32_t word = 0;
      std::uint64_t hist = 0;
      for (std::size_t base = 0; base < sdata.size(); base += kBlock) {
        const std::size_t m = std::min(kBlock, sdata.size() - base);
        kern.dna_words(sdata.data() + base, m, options_.word_size, mask, &word, &hist,
                       codes, &valid);
        while (valid != 0) {
          const int bi = std::countr_zero(valid);
          valid &= valid - 1;
          for (const std::uint32_t qpos : nuc_lookup.hits(codes[bi])) {
            handle_hit(qpos, base + static_cast<std::size_t>(bi) + 1 - w);
          }
        }
      }
    } else {
      constexpr std::size_t kBlock = 64;
      std::uint16_t codes[kBlock];
      std::uint64_t valid = 0;
      const std::size_t last = sdata.size() - ProtLookup::kWordSize;  // last word start
      for (std::size_t base = 0; base <= last; base += kBlock) {
        const std::size_t m = std::min(kBlock, last - base + 1);
        kern.prot_words(sdata.data() + base, m, codes, &valid);
        while (valid != 0) {
          const int bi = std::countr_zero(valid);
          valid &= valid - 1;
          for (const std::uint32_t qpos : prot_lookup->hits(codes[bi])) {
            handle_hit(qpos, base + static_cast<std::size_t>(bi));
          }
        }
      }
    }
  }

  // ---- reporting ----
  std::vector<QueryResult> results(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    results[qi].query_id = queries[qi].id;
    auto& hsps = per_query[qi];
    cull_contained(hsps);
    sort_and_truncate(hsps, options_.max_hits_per_query);
    stats_.hsps_reported += hsps.size();
    results[qi].hsps = std::move(hsps);
  }
  return results;
}

}  // namespace mrbio::blast
