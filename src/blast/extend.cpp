#include "blast/extend.hpp"

#include <algorithm>
#include <climits>

#include "common/error.hpp"
#include "simd/simd.hpp"

namespace mrbio::blast {

UngappedSegment extend_ungapped(std::span<const std::uint8_t> query,
                                std::span<const std::uint8_t> subject, std::size_t q_pos,
                                std::size_t s_pos, std::size_t word_len,
                                const Scorer& scorer, int xdrop) {
  MRBIO_CHECK(q_pos + word_len <= query.size() && s_pos + word_len <= subject.size(),
              "seed out of range");
  UngappedSegment seg;

  // Score the seed word itself.
  int score = 0;
  int best = 0;
  std::size_t best_q_end = q_pos;
  std::size_t best_point = 0;  // offset of best column within the seed/right scan
  for (std::size_t k = 0; k < word_len; ++k) {
    score += scorer.score(query[q_pos + k], subject[s_pos + k]);
    if (score > best) {
      best = score;
      best_q_end = q_pos + k + 1;
    }
  }

  const simd::Kernels& kern = simd::kernels();

  // Rightward X-drop extension.
  {
    const std::size_t n = std::min(query.size() - (q_pos + word_len),
                                   subject.size() - (s_pos + word_len));
    const simd::DiagScanResult r =
        kern.diag_scan(query.data() + q_pos + word_len, subject.data() + s_pos + word_len, n,
                       false, scorer.table(), score, best, xdrop);
    if (r.best > best) {
      best = r.best;
      best_q_end = q_pos + word_len + r.best_len;
    }
  }
  seg.q_end = best_q_end;
  seg.s_end = s_pos + (best_q_end - q_pos);
  const int right_best = best;

  // Leftward X-drop extension from just before the seed.
  int left_gain = 0;
  {
    const std::size_t n = std::min(q_pos, s_pos);
    const simd::DiagScanResult r =
        kern.diag_scan(query.data() + q_pos, subject.data() + s_pos, n, true, scorer.table(),
                       0, 0, xdrop);
    seg.q_start = q_pos - r.best_len;
    seg.s_start = s_pos - r.best_len;
    left_gain = r.best;
  }

  seg.score = right_best + left_gain;
  // Anchor for the gapped stage: the first column of the best-scoring
  // right-hand point (a guaranteed aligned residue pair).
  best_point = best_q_end > q_pos ? best_q_end - 1 : q_pos;
  seg.q_best = best_point;
  seg.s_best = s_pos + (best_point - q_pos);
  return seg;
}

namespace {

constexpr int kNegInf = simd::kNegInf;  // == INT_MIN / 4, shared with the kernels

// Traceback flags per cell.
constexpr std::uint8_t kHDiag = 0;
constexpr std::uint8_t kHFromE = 1;
constexpr std::uint8_t kHFromF = 2;
constexpr std::uint8_t kHStart = 3;
constexpr std::uint8_t kHMask = 3;
constexpr std::uint8_t kEExtend = 1 << 2;  ///< E came from E (else from H)
constexpr std::uint8_t kFExtend = 1 << 3;  ///< F came from F (else from H)

/// Where one DP row's traceback flags sit in the workspace arena.
struct RowSpan {
  std::size_t lo;   ///< first column of the row
  std::size_t off;  ///< arena offset of that column's flags
};

/// Scratch memory of extend_gapped. One instance per thread is reused by
/// every call, so the DP allocates nothing once the buffers have grown to
/// the largest extension the thread has seen.
struct Workspace {
  // H and F rows; the previous row's alive window starts at an offset
  // into one pair while the current row is written into the other.
  std::vector<int> h[2];
  std::vector<int> f[2];
  std::vector<std::uint8_t> tb;  ///< every row's traceback flags, back to back
  std::vector<RowSpan> rows;
  std::vector<EditOp> right_ops;  ///< traceback runs, last column first
  std::vector<EditOp> left_ops;
  std::vector<std::uint8_t> qrev;  ///< reversed prefixes for the leftward pass
  std::vector<std::uint8_t> srev;
};

/// Grows a scratch buffer to at least n elements, keeping its contents.
template <typename T>
void fit(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(std::max(n, 2 * v.size()));
}

struct DirResult {
  int score = 0;
  std::size_t a_len = 0;  ///< residues of `a` consumed by the best alignment
  std::size_t b_len = 0;
};

void push_op(std::vector<EditOp>& ops, EditOp::Type t) {
  if (!ops.empty() && ops.back().type == t) {
    ++ops.back().len;
  } else {
    ops.push_back(EditOp{t, 1});
  }
}

/// Columns of row 0, the run of gaps in `a` from the anchor: the anchor
/// plus every gap length whose cost stays within `xdrop` (the best score
/// is still 0 there), for a `b` of length n.
std::size_t row0_width(const Scorer& scorer, int xdrop, std::size_t n) {
  const int open_first = scorer.gap_open() + scorer.gap_extend();
  const int ext = scorer.gap_extend();
  if (xdrop < 0) return 0;
  if (xdrop < open_first) return 1;
  const std::size_t gaps =
      ext > 0 ? 1 + static_cast<std::size_t>((xdrop - open_first) / ext) : n;
  return 1 + std::min(gaps, n);
}

/// One-directional gapped X-drop DP of `a` against `b` anchored at their
/// starts. Returns the best-scoring extension and appends its edit runs
/// to `rev` in traceback order (last column first).
DirResult extend_dir(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
                     const Scorer& scorer, int xdrop, Workspace& ws,
                     std::vector<EditOp>& rev) {
  const int open_first = scorer.gap_open() + scorer.gap_extend();  ///< cost of gap length 1
  const int ext = scorer.gap_extend();
  const simd::Kernels& kern = simd::kernels();

  int best = 0;
  std::size_t best_i = 0;
  std::size_t best_j = 0;

  // Row 0: gaps in `a` only, written into buffer pair 0.
  const std::size_t width0 = row0_width(scorer, xdrop, b.size());
  fit(ws.h[0], width0);
  fit(ws.f[0], width0);
  fit(ws.tb, width0);
  for (std::size_t j = 0; j < width0; ++j) {
    ws.h[0][j] = j == 0 ? 0 : -(open_first + static_cast<int>(j - 1) * ext);
    ws.f[0][j] = kNegInf;
    std::uint8_t tb = (j == 0) ? kHStart : kHFromE;
    if (j > 1) tb |= kEExtend;
    ws.tb[j] = tb;
  }
  ws.rows.assign(1, RowSpan{0, 0});
  std::size_t used = width0;  // arena bytes holding finished rows
  int prev = 0;               // buffer pair holding the previous row
  std::size_t prev_off = 0;   // its alive window [prev_off, prev_off + prev_n)
  std::size_t prev_n = width0;
  std::size_t lo_prev = 0;    // column of the window's first entry

  for (std::size_t i = 1; i <= a.size(); ++i) {
    if (prev_n == 0) break;
    const std::size_t lo = lo_prev;                          // F/diag reach
    const std::size_t hi = std::min(lo_prev + prev_n, b.size());  // one past prev's last
    if (lo > hi) break;
    const std::size_t m = hi - lo + 1;

    // The kernel writes the row's diagonal candidates into H, its vertical
    // (gap in b) candidates into F and their extend flags into the arena;
    // the scalar pass below then overwrites each cell with its final
    // value. lo == lo_prev, so window offsets t = j - lo line up with the
    // previous row's window directly.
    const int cur = prev ^ 1;
    fit(ws.h[cur], m);
    fit(ws.f[cur], m);
    fit(ws.tb, used + m);
    int* const hc = ws.h[cur].data();
    int* const fc = ws.f[cur].data();
    std::uint8_t* const tbc = ws.tb.data() + used;
    const int* score_row = scorer.table() + static_cast<std::size_t>(a[i - 1]) * kScoreDim;
    kern.gapped_row_prep(ws.h[prev].data() + prev_off, ws.f[prev].data() + prev_off, prev_n,
                         b.data() + lo, score_row, open_first, ext, m, hc, fc, tbc);

    // The sequential E-chain, pruning and traceback flags stay scalar and
    // are shared by every ISA level, which is what keeps gapped alignments
    // bit-identical across --simd settings.
    int e_run = kNegInf;  // E state carried left-to-right within the row
    bool any_alive = false;
    std::size_t first_alive = 0;
    std::size_t last_alive = 0;

    for (std::size_t t = 0; t < m; ++t) {
      const std::size_t j = lo + t;
      int f = fc[t];
      std::uint8_t tb = tbc[t] ? kFExtend : std::uint8_t{0};

      // Horizontal (gap in a): from current row, previous j.
      int e = kNegInf;
      if (t > 0) {
        const int prev_h = hc[t - 1];
        const int from_h = prev_h > kNegInf ? prev_h - open_first : kNegInf;
        const int from_e = e_run > kNegInf ? e_run - ext : kNegInf;
        if (from_e > from_h) {
          e = from_e;
          tb |= kEExtend;
        } else {
          e = from_h;
        }
      }
      e_run = e;

      const int d = hc[t];

      int h = std::max({d, e, f});
      if (h == d && d > kNegInf) {
        tb |= kHDiag;
      } else if (h == e && e > kNegInf) {
        tb |= kHFromE;
      } else if (h == f && f > kNegInf) {
        tb |= kHFromF;
      } else {
        tb |= kHStart;
        h = kNegInf;
      }

      if (h < best - xdrop) {
        h = kNegInf;
        tb = (tb & ~kHMask) | kHStart;
      }
      if (f < best - xdrop) f = kNegInf;
      if (e < best - xdrop) e_run = kNegInf;

      hc[t] = h;
      fc[t] = f;
      tbc[t] = tb;

      if (h > kNegInf || f > kNegInf || e_run > kNegInf) {
        if (!any_alive) first_alive = j;
        last_alive = j;
        any_alive = true;
      }
      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }

    if (!any_alive) break;

    // The next row reads only this row's alive window.
    ws.rows.push_back(RowSpan{lo, used});
    used += m;
    prev = cur;
    prev_off = first_alive - lo;
    prev_n = last_alive - first_alive + 1;
    lo_prev = first_alive;
  }

  // Traceback from the best H cell.
  std::size_t i = best_i;
  std::size_t j = best_j;
  char state = 'H';
  while (i != 0 || j != 0) {
    MRBIO_CHECK(i < ws.rows.size(), "traceback row out of range");
    const RowSpan& row = ws.rows[i];
    const std::size_t row_end = i + 1 < ws.rows.size() ? ws.rows[i + 1].off : used;
    MRBIO_CHECK(j >= row.lo && j - row.lo < row_end - row.off,
                "traceback column out of range");
    const std::uint8_t tb = ws.tb[row.off + (j - row.lo)];
    if (state == 'H') {
      switch (tb & kHMask) {
        case kHDiag:
          push_op(rev, EditOp::Type::Match);
          --i;
          --j;
          break;
        case kHFromE:
          state = 'E';
          break;
        case kHFromF:
          state = 'F';
          break;
        default:
          MRBIO_CHECK(false, "traceback reached a dead cell");
      }
    } else if (state == 'E') {
      push_op(rev, EditOp::Type::InsertS);
      if ((tb & kEExtend) == 0) state = 'H';
      --j;
    } else {  // 'F'
      push_op(rev, EditOp::Type::InsertQ);
      if ((tb & kFExtend) == 0) state = 'H';
      --i;
    }
  }
  return DirResult{best, best_i, best_j};
}

}  // namespace

GappedAlignment extend_gapped(std::span<const std::uint8_t> query,
                              std::span<const std::uint8_t> subject, std::size_t q_seed,
                              std::size_t s_seed, const Scorer& scorer, int xdrop) {
  MRBIO_CHECK(q_seed < query.size() && s_seed < subject.size(), "gapped seed out of range");
  // Safe to share per thread: the call neither yields nor recurses.
  thread_local Workspace ws;

  // Rightward pass includes the seed column.
  ws.right_ops.clear();
  const DirResult right = extend_dir(query.subspan(q_seed), subject.subspan(s_seed), scorer,
                                     xdrop, ws, ws.right_ops);

  // Leftward pass on reversed prefixes (excluding the seed column), over
  // only the subject bytes it can reach. Window invariant: row 0 ends at
  // column R = row0_width - 1, and each later row ends at most one column
  // past the previous row's last alive column, so row i ends at or before
  // column R + i. The q_seed rows of this pass thus read subject bytes
  // below q_seed + R only (column j reads byte j - 1), and with
  // q_seed + R + 1 bytes the subject's end clips no row's window: the
  // alignment is the one the whole reversed prefix would give.
  const std::size_t window = std::min(s_seed, q_seed + row0_width(scorer, xdrop, s_seed));
  const auto s_left = subject.rbegin() + static_cast<std::ptrdiff_t>(subject.size() - s_seed);
  ws.qrev.assign(query.rbegin() + static_cast<std::ptrdiff_t>(query.size() - q_seed),
                 query.rend());
  ws.srev.assign(s_left, s_left + static_cast<std::ptrdiff_t>(window));
  ws.left_ops.clear();
  const DirResult left = extend_dir(ws.qrev, ws.srev, scorer, xdrop, ws, ws.left_ops);

  GappedAlignment out;
  out.score = left.score + right.score;
  out.q_start = q_seed - left.a_len;
  out.s_start = s_seed - left.b_len;
  out.q_end = q_seed + right.a_len;
  out.s_end = s_seed + right.b_len;

  // The left runs, read last-column-first in reversed coordinates, are
  // already in forward order; the right runs are flipped and spliced on.
  out.ops.reserve(ws.left_ops.size() + ws.right_ops.size());
  out.ops.assign(ws.left_ops.begin(), ws.left_ops.end());
  for (auto op = ws.right_ops.rbegin(); op != ws.right_ops.rend(); ++op) {
    if (!out.ops.empty() && out.ops.back().type == op->type) {
      out.ops.back().len += op->len;
    } else {
      out.ops.push_back(*op);
    }
  }

  // Walk the ops once for identity/gap accounting.
  std::size_t q = out.q_start;
  std::size_t s = out.s_start;
  for (const EditOp& op : out.ops) {
    out.align_len += op.len;
    switch (op.type) {
      case EditOp::Type::Match:
        for (std::uint32_t k = 0; k < op.len; ++k) {
          if (query[q + k] == subject[s + k] && query[q + k] < kSentinel) ++out.identities;
        }
        q += op.len;
        s += op.len;
        break;
      case EditOp::Type::InsertQ:
        q += op.len;
        out.gaps += op.len;
        break;
      case EditOp::Type::InsertS:
        s += op.len;
        out.gaps += op.len;
        break;
    }
  }
  MRBIO_CHECK(q == out.q_end && s == out.s_end, "edit script does not span the alignment");
  return out;
}

}  // namespace mrbio::blast
