// Checkpoint layer unit tests: CRC-32 vectors, record framing round
// trips, torn-write and flipped-byte detection, manifest resume guards,
// ledger replay, atomic snapshots, map-log truncation, fault-injected
// corruption, and cleanup. Every corruption case must degrade to "drop
// the bad tail and re-run" — never a crash, never silently wrong bytes.
#include "ckpt/ckpt.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace mrbio::ckpt {
namespace {

std::vector<std::byte> payload(const std::string& text) {
  const auto* bytes = reinterpret_cast<const std::byte*>(text.data());
  return {bytes, bytes + text.size()};  // no memcpy: an empty vector's data() may be null
}

std::string text_of(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by pid: ctest -j runs each test case as its own process, so a
    // plain static counter would collide on the same /tmp path.
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("mrbio_ckpt_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CheckpointConfig config(bool resume = false) const {
    CheckpointConfig c;
    c.dir = dir_;
    c.resume = resume;
    return c;
  }

  std::string dir_;
};

TEST(Crc32, KnownVectorsAndSeedChaining) {
  // The standard CRC-32 check value for "123456789".
  const auto check = payload("123456789");
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(payload("")), 0u);
  // Chaining via seed equals one pass over the concatenation.
  const auto a = payload("12345");
  const auto b = payload("6789");
  EXPECT_EQ(crc32(b, crc32(a)), 0xCBF43926u);
  // One flipped bit changes the sum.
  auto flipped = check;
  flipped[4] ^= std::byte{0x01};
  EXPECT_NE(crc32(flipped), 0xCBF43926u);
}

TEST_F(CkptTest, RecordRoundTrip) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/t.log";
  std::uint64_t end = 0;
  {
    RecordWriter w(path, 0);
    w.append(payload("alpha"));
    w.append(payload(""));  // zero-length payloads are legal records
    w.append(payload("gamma"));
    w.sync();
    end = w.bytes_written();
  }
  RecordReader r(path);
  std::vector<std::byte> p;
  ASSERT_EQ(r.next(p), ReadStatus::Ok);
  EXPECT_EQ(text_of(p), "alpha");
  ASSERT_EQ(r.next(p), ReadStatus::Ok);
  EXPECT_TRUE(p.empty());
  ASSERT_EQ(r.next(p), ReadStatus::Ok);
  EXPECT_EQ(text_of(p), "gamma");
  EXPECT_EQ(r.next(p), ReadStatus::Eof);
  EXPECT_EQ(r.valid_end(), end);
}

TEST_F(CkptTest, TornTailDroppedAndTruncatedOnReopen) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/t.log";
  std::uint64_t good_end = 0;
  {
    RecordWriter w(path, 0);
    w.append(payload("one"));
    w.append(payload("two"));
    w.sync();
    good_end = w.bytes_written();
  }
  // A torn write: half a frame of garbage at the end.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x52\x43\x50\x4bgarbage", 11);
  }
  std::uint64_t valid_end = 0;
  {
    RecordReader r(path);
    std::vector<std::byte> p;
    EXPECT_EQ(r.next(p), ReadStatus::Ok);
    EXPECT_EQ(r.next(p), ReadStatus::Ok);
    EXPECT_EQ(r.next(p), ReadStatus::Corrupt);
    valid_end = r.valid_end();
    EXPECT_EQ(valid_end, good_end);
  }
  // Reopening through RecordWriter(valid_end) cuts the tail for good.
  { RecordWriter w(path, valid_end); }
  EXPECT_EQ(std::filesystem::file_size(path), good_end);
  RecordReader again(path);
  std::vector<std::byte> p;
  EXPECT_EQ(again.next(p), ReadStatus::Ok);
  EXPECT_EQ(again.next(p), ReadStatus::Ok);
  EXPECT_EQ(again.next(p), ReadStatus::Eof);
}

TEST_F(CkptTest, FlippedByteFailsCrcAnywhereInTheRecord) {
  std::filesystem::create_directories(dir_);
  for (const std::uint64_t offset : {0ULL, 5ULL, 9ULL, 17ULL}) {
    const std::string path = dir_ + "/flip" + std::to_string(offset) + ".log";
    std::uint64_t first_end = 0;
    {
      RecordWriter w(path, 0);
      w.append(payload("payload-bytes"));
      first_end = w.bytes_written();
      w.append(payload("second"));
      w.sync();
    }
    // Flip one byte of the FIRST record: in the magic (0), the stored crc
    // (5), the length (9), and the payload (17).
    flip_byte(path, offset);
    RecordReader r(path);
    std::vector<std::byte> p;
    EXPECT_EQ(r.next(p), ReadStatus::Corrupt) << "offset " << offset;
    EXPECT_EQ(r.valid_end(), 0u) << "offset " << offset;
    (void)first_end;
  }
}

TEST_F(CkptTest, MissingFileReadsAsEmpty) {
  RecordReader r(dir_ + "/nope.log");
  std::vector<std::byte> p;
  EXPECT_EQ(r.next(p), ReadStatus::Eof);
  EXPECT_EQ(r.valid_end(), 0u);
}

TEST_F(CkptTest, DisabledCheckpointerReportsDisabledAndRejectsOpen) {
  Checkpointer cp(CheckpointConfig{});
  EXPECT_FALSE(cp.enabled());
  EXPECT_FALSE(cp.resuming());
  // Callers must gate open() on enabled(); opening without a dir is a
  // configuration error, not a silent no-op.
  EXPECT_THROW(cp.open("whatever"), InputError);
}

TEST_F(CkptTest, ManifestGuardsResume) {
  {
    Checkpointer cp(config());
    cp.open("run A");
    EXPECT_FALSE(cp.resuming());
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/MANIFEST"));
  }
  // Same dir without --resume: refuse to clobber someone's checkpoint.
  {
    Checkpointer cp(config(false));
    EXPECT_THROW(cp.open("run A"), InputError);
  }
  // --resume with a different fingerprint: refuse to splice runs.
  {
    Checkpointer cp(config(true));
    EXPECT_THROW(cp.open("run B"), InputError);
  }
  // --resume with the matching fingerprint continues.
  {
    Checkpointer cp(config(true));
    cp.open("run A");
    EXPECT_TRUE(cp.resuming());
  }
  // --resume over an empty dir degrades to a fresh start.
  std::filesystem::remove_all(dir_);
  {
    Checkpointer cp(config(true));
    cp.open("run A");
    EXPECT_FALSE(cp.resuming());
  }
}

TEST_F(CkptTest, LedgerReplayAndCorruptTailDropped) {
  {
    Checkpointer cp(config());
    cp.open("fp");
    cp.append_cycle_record(payload("cycle0"));
    cp.append_cycle_record(payload("cycle1"));
    cp.append_cycle_record(payload("cycle2"));
  }
  {
    Checkpointer cp(config(true));
    cp.open("fp");
    ASSERT_EQ(cp.ledger_records().size(), 3u);
    EXPECT_EQ(text_of(cp.ledger_records()[0]), "cycle0");
    EXPECT_EQ(text_of(cp.ledger_records()[2]), "cycle2");
    EXPECT_EQ(cp.stats().records_replayed, 3u);
  }
  // Flip a byte inside the LAST record: the intact prefix must survive,
  // the bad tail must be dropped and counted, and appending must work.
  const auto size = std::filesystem::file_size(dir_ + "/ledger.log");
  flip_byte(dir_ + "/ledger.log", size - 3);
  {
    Checkpointer cp(config(true));
    cp.open("fp");
    ASSERT_EQ(cp.ledger_records().size(), 2u);
    EXPECT_EQ(text_of(cp.ledger_records()[1]), "cycle1");
    EXPECT_EQ(cp.stats().corrupt_records, 1u);
    cp.append_cycle_record(payload("cycle2b"));
  }
  {
    Checkpointer cp(config(true));
    cp.open("fp");
    ASSERT_EQ(cp.ledger_records().size(), 3u);
    EXPECT_EQ(text_of(cp.ledger_records()[2]), "cycle2b");
  }
}

TEST_F(CkptTest, SnapshotAtomicRoundTripAndCorruptionDegrades) {
  Checkpointer cp(config());
  cp.open("fp");
  std::vector<std::byte> out;
  EXPECT_FALSE(cp.load_snapshot("codebook", out));  // missing = start fresh
  cp.save_snapshot("codebook", payload("weights v1"));
  cp.save_snapshot("codebook", payload("weights v2"));  // overwrite is atomic
  ASSERT_TRUE(cp.load_snapshot("codebook", out));
  EXPECT_EQ(text_of(out), "weights v2");
  EXPECT_EQ(cp.stats().snapshots_saved, 2u);
  // No leftover tmp file from the write-then-rename protocol.
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos) << e.path();
  }
  flip_byte(dir_ + "/snap.codebook.bin", 20);
  EXPECT_FALSE(cp.load_snapshot("codebook", out));  // CRC catches the flip
}

TEST_F(CkptTest, MapLogReplayTruncationAndRemoval) {
  Checkpointer cp(config());
  cp.open("fp");
  cp.begin_cycle(/*rank=*/2, /*cycle=*/7);
  EXPECT_EQ(cp.cycle(2), 7u);
  {
    auto w = cp.open_map_log(2, 7, 0);
    w->append(payload("task 11"));
    w->append(payload("task 12"));
    w->sync();
  }
  std::vector<std::string> seen;
  const std::uint64_t valid_end = cp.read_map_log(
      2, 7, [&](std::span<const std::byte> p) { seen.push_back(text_of(p)); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "task 11");
  EXPECT_EQ(seen[1], "task 12");
  EXPECT_EQ(valid_end, std::filesystem::file_size(cp.map_log_path(2, 7)));

  // Corrupt the second record: replay stops after the first and the
  // returned truncation point reopens the log without the bad tail.
  flip_byte(cp.map_log_path(2, 7), valid_end - 2);
  seen.clear();
  const std::uint64_t cut = cp.read_map_log(
      2, 7, [&](std::span<const std::byte> p) { seen.push_back(text_of(p)); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_LT(cut, valid_end);
  {
    auto w = cp.open_map_log(2, 7, cut);
    w->append(payload("task 12 retry"));
    w->sync();
  }
  seen.clear();
  cp.read_map_log(2, 7, [&](std::span<const std::byte> p) { seen.push_back(text_of(p)); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "task 12 retry");

  cp.remove_map_log(2, 7);
  EXPECT_FALSE(std::filesystem::exists(cp.map_log_path(2, 7)));
}

TEST_F(CkptTest, InjectedCorruptionIsCaughtOnReplay) {
  fault::Injector injector(fault::FaultPlan::parse("corrupt:target=ledger,count=1"));
  {
    Checkpointer cp(config(), &injector);
    cp.open("fp");
    cp.append_cycle_record(payload("cycle0"));  // corrupted right after the write
    cp.append_cycle_record(payload("cycle1"));
  }
  EXPECT_EQ(injector.stats().checkpoints_corrupted, 1u);
  Checkpointer cp(config(true));
  cp.open("fp");
  // The flip hit record 0, so the whole ledger after it is dropped: resume
  // degrades to re-running every cycle rather than trusting bad bytes.
  EXPECT_TRUE(cp.ledger_records().empty());
  EXPECT_GE(cp.stats().corrupt_records, 1u);
}

TEST_F(CkptTest, CleanupOnSuccessRemovesOwnFiles) {
  {
    Checkpointer cp(config());
    cp.open("fp");
    cp.begin_cycle(0, 0);
    cp.append_cycle_record(payload("cycle0"));
    cp.save_snapshot("codebook", payload("w"));
    { auto w = cp.open_map_log(0, 0, 0); w->append(payload("t")); }
    EXPECT_TRUE(std::filesystem::exists(cp.spill_dir()));
    cp.cleanup_on_success();
  }
  EXPECT_FALSE(std::filesystem::exists(dir_))
      << "an empty checkpoint dir should be removed entirely";
}

}  // namespace
}  // namespace mrbio::ckpt
