// Stage-2 ungapped and stage-3 gapped extensions.
//
// Ungapped: classic X-drop extension of a word hit in both directions;
// the result is the maximal-scoring ungapped segment pair through the
// seed, abandoned early once the running score falls more than `xdrop`
// below the best seen.
//
// Gapped: X-drop dynamic programming with affine gaps (Zhang et al. /
// NCBI ALIGN_EX style) from a single seed point, extended independently
// to the right and to the left with full traceback, then spliced. Rows
// maintain an active column window that the X-drop criterion shrinks and
// grows, so cost is proportional to the explored band, not to the full
// DP matrix.
//
// The DP allocates nothing in steady state: a per-thread workspace keeps
// two H/F row pairs that swap after each row (the previous row's alive
// window is an offset into one pair), one arena with every row's
// traceback flags back to back plus each row's first column and offset,
// and the reversed prefixes of the leftward pass. Each row ends at most
// one column past the previous row's last alive column, so the leftward
// pass reads fewer than q_seed + R subject bytes left of the seed, R
// being row 0's reach (12 at the blastn defaults); it reverses only
// min(s_seed, q_seed + R + 1) of them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blast/score.hpp"

namespace mrbio::blast {

/// Result of an ungapped extension; coordinates are half-open offsets into
/// the sequences passed to the call.
struct UngappedSegment {
  std::size_t q_start = 0;
  std::size_t q_end = 0;
  std::size_t s_start = 0;
  std::size_t s_end = 0;
  int score = 0;
  /// Offset pair of the highest-scoring column, the anchor for the gapped
  /// stage.
  std::size_t q_best = 0;
  std::size_t s_best = 0;
};

/// Extends a word match of length `word_len` at (q_pos, s_pos). Sentinel
/// and ambiguity codes stop the extension via their scores.
UngappedSegment extend_ungapped(std::span<const std::uint8_t> query,
                                std::span<const std::uint8_t> subject, std::size_t q_pos,
                                std::size_t s_pos, std::size_t word_len,
                                const Scorer& scorer, int xdrop);

/// One aligned run: `len` columns of the given type.
struct EditOp {
  enum class Type : std::uint8_t { Match, InsertQ, InsertS };
  // Match = both advance; InsertQ = gap in subject (query residue alone);
  // InsertS = gap in query (subject residue alone).
  Type type;
  std::uint32_t len;
};

struct GappedAlignment {
  int score = 0;
  std::size_t q_start = 0;
  std::size_t q_end = 0;
  std::size_t s_start = 0;
  std::size_t s_end = 0;
  std::vector<EditOp> ops;  ///< from (q_start, s_start) to (q_end, s_end)
  std::uint32_t identities = 0;
  std::uint32_t align_len = 0;  ///< alignment columns including gaps
  std::uint32_t gaps = 0;       ///< gapped columns
};

/// Gapped X-drop extension through the seed pair (q_seed, s_seed), which
/// must be a genuine residue match position. The seed column is counted
/// once (in the rightward pass).
GappedAlignment extend_gapped(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> subject, std::size_t q_seed,
                              std::size_t s_seed, const Scorer& scorer, int xdrop);

}  // namespace mrbio::blast
