// Per-diagonal high-water marks of the stage-1 word scan, 4 bytes a
// diagonal.
//
// For each diagonal of the subject being scanned the search keeps two
// subject offsets: how far an extension on it already reached (`end`) and,
// for protein two-hit seeding only, where its last unextended word hit
// ended (`hit`). A mark stores base + offset as a uint32. Each subject gets
// a base above every mark written before it -- 1 + sum of (length + 1)
// over the subjects already scanned -- so a mark below the current base is
// stale and reads as -1. The marks therefore need no stamp and are never
// cleared, neither between subjects nor between searches; growing them
// adds zeros, which are stale too. Only when a subject's marks would pass
// 2^32 - 1 are both arrays re-zeroed and the bases restarted at 1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace mrbio::blast {

class DiagMarks {
 public:
  /// `next_base` is the base the first subject gets. Searches start at 1;
  /// tests start near 2^32 to reach the re-zeroing path.
  explicit DiagMarks(std::uint64_t next_base = 1) : next_(next_base) {}

  /// Readies the marks for a subject of `length` residues whose diagonals
  /// are indexed below `ndiags`. `two_hit` also readies the hit marks.
  void begin_subject(std::size_t ndiags, std::size_t length, bool two_hit) {
    MRBIO_CHECK(length < kMaxMark, "subject of ", length,
                " residues is too long for 32-bit diagonal marks");
    if (next_ + length > kMaxMark) {
      std::fill(end_.begin(), end_.end(), 0u);
      std::fill(hit_.begin(), hit_.end(), 0u);
      next_ = 1;
    }
    base_ = static_cast<std::uint32_t>(next_);
    next_ += length + 1;
    if (end_.size() < ndiags) end_.resize(ndiags, 0u);
    if (two_hit && hit_.size() < ndiags) hit_.resize(ndiags, 0u);
  }

  /// Subject offset up to which an extension on diagonal `d` reached, or
  /// -1 if none did in this subject.
  std::int64_t end(std::size_t d) const { return read(end_[d]); }
  void set_end(std::size_t d, std::size_t offset) { end_[d] = mark(offset); }

  /// Subject end of the last unextended hit on diagonal `d`, or -1.
  std::int64_t hit(std::size_t d) const { return read(hit_[d]); }
  void set_hit(std::size_t d, std::size_t offset) { hit_[d] = mark(offset); }

 private:
  static constexpr std::uint64_t kMaxMark = std::numeric_limits<std::uint32_t>::max();

  std::int64_t read(std::uint32_t m) const {
    return m < base_ ? -1 : static_cast<std::int64_t>(m - base_);
  }
  std::uint32_t mark(std::size_t offset) const {
    return base_ + static_cast<std::uint32_t>(offset);
  }

  std::vector<std::uint32_t> end_;
  std::vector<std::uint32_t> hit_;
  std::uint32_t base_ = 0;  ///< the current subject's base
  std::uint64_t next_;      ///< the next subject's base
};

}  // namespace mrbio::blast
