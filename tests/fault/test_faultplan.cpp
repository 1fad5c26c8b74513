// FaultPlan parsing: the compact spec grammar, the JSON form, the
// describe() round trip, validation against a rank count, and the
// Injector's bookkeeping (trigger matching, fault counts, slow factors).
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mrbio::fault {
namespace {

TEST(FaultPlan, ParsesCrashWithTimeTrigger) {
  const FaultPlan plan = FaultPlan::parse("crash:rank=3@t=0.4");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 3);
  EXPECT_DOUBLE_EQ(plan.crashes[0].t, 0.4);
  EXPECT_LT(plan.crashes[0].task, 0);
  EXPECT_FALSE(plan.crashes[0].permanent);
}

TEST(FaultPlan, ParsesCrashWithTaskTriggerAndMode) {
  const FaultPlan plan = FaultPlan::parse("crash:rank=1,task=2,mode=permanent");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 1);
  EXPECT_EQ(plan.crashes[0].task, 2);
  EXPECT_LT(plan.crashes[0].t, 0.0);
  EXPECT_TRUE(plan.crashes[0].permanent);
}

TEST(FaultPlan, ParsesMessageAndSlowClauses) {
  const FaultPlan plan = FaultPlan::parse(
      "drop:src=1,dst=0,count=2; dup:dst=3; delay:src=2,by=0.05,count=4; "
      "slow:rank=2,factor=4");
  ASSERT_EQ(plan.messages.size(), 3u);
  EXPECT_EQ(plan.messages[0].kind, MessageFault::Kind::Drop);
  EXPECT_EQ(plan.messages[0].src, 1);
  EXPECT_EQ(plan.messages[0].dst, 0);
  EXPECT_EQ(plan.messages[0].count, 2);
  EXPECT_EQ(plan.messages[1].kind, MessageFault::Kind::Duplicate);
  EXPECT_EQ(plan.messages[1].src, -1);  // wildcard
  EXPECT_EQ(plan.messages[1].dst, 3);
  EXPECT_EQ(plan.messages[2].kind, MessageFault::Kind::Delay);
  EXPECT_DOUBLE_EQ(plan.messages[2].by, 0.05);
  EXPECT_EQ(plan.messages[2].count, 4);
  ASSERT_EQ(plan.slows.size(), 1u);
  EXPECT_EQ(plan.slows[0].rank, 2);
  EXPECT_DOUBLE_EQ(plan.slows[0].factor, 4.0);
}

TEST(FaultPlan, DescribeRoundTrips) {
  const std::string spec =
      "crash:rank=3@t=0.4; crash:rank=1@task=2,mode=permanent; "
      "drop:src=1,dst=0,count=2; delay:src=-1,dst=0,by=0.1,count=1; "
      "slow:rank=2,factor=4";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(plan.describe(), again.describe());
  EXPECT_EQ(again.crashes.size(), 2u);
  EXPECT_EQ(again.messages.size(), 2u);
  EXPECT_EQ(again.slows.size(), 1u);
}

TEST(FaultPlan, ParsesJsonDocument) {
  const FaultPlan plan = FaultPlan::parse(
      R"({"faults":[{"kind":"crash","rank":3,"t":0.4},)"
      R"({"kind":"crash","rank":2,"task":1,"mode":"permanent"},)"
      R"({"kind":"drop","src":1,"dst":0,"count":2},)"
      R"({"kind":"delay","src":2,"by":0.05},)"
      R"({"kind":"slow","rank":4,"factor":8}]})");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.crashes[0].t, 0.4);
  EXPECT_TRUE(plan.crashes[1].permanent);
  ASSERT_EQ(plan.messages.size(), 2u);
  EXPECT_EQ(plan.messages[0].count, 2);
  ASSERT_EQ(plan.slows.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.slows[0].factor, 8.0);
}

TEST(FaultPlan, FromFileAutoDetectsBothForms) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec_path = dir / "mrbio_plan.txt";
  const auto json_path = dir / "mrbio_plan.json";
  std::ofstream(spec_path) << "crash:rank=1@t=0.5\n";
  std::ofstream(json_path) << R"({"faults":[{"kind":"crash","rank":1,"t":0.5}]})";
  for (const auto& p : {spec_path, json_path}) {
    const FaultPlan plan = FaultPlan::from_file(p.string());
    ASSERT_EQ(plan.crashes.size(), 1u) << p;
    EXPECT_DOUBLE_EQ(plan.crashes[0].t, 0.5) << p;
  }
  std::filesystem::remove(spec_path);
  std::filesystem::remove(json_path);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("boom:rank=1"), InputError);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1"), InputError);  // no trigger
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,t=1,task=2"), InputError);  // both
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,t=0.4,mode=sideways"), InputError);
  EXPECT_THROW(FaultPlan::parse("crash:rank=one,t=0.4"), InputError);
  EXPECT_THROW(FaultPlan::parse("drop:src=1,by=0.4"), InputError);
  EXPECT_THROW(FaultPlan::parse("delay:src=1"), InputError);  // no by=
  EXPECT_THROW(FaultPlan::parse("slow:rank=1,factor=0.5"), InputError);
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,t=0.4,rank=2"), InputError);
  EXPECT_THROW(FaultPlan::parse(R"({"faults":)"), InputError);
  EXPECT_THROW(FaultPlan::parse(R"({"nofaults":[]})"), InputError);
}

TEST(FaultPlan, ValidateChecksRankBounds) {
  FaultPlan::parse("crash:rank=3@t=0.4").validate(4);  // fine
  EXPECT_THROW(FaultPlan::parse("crash:rank=4@t=0.4").validate(4), InputError);
  EXPECT_THROW(FaultPlan::parse("crash:rank=0@t=0.4").validate(4), InputError);
  EXPECT_THROW(FaultPlan::parse("drop:src=7,dst=0").validate(4), InputError);
  EXPECT_THROW(FaultPlan::parse("slow:rank=-1,factor=2").validate(4), InputError);
  FaultPlan::parse("drop:src=-1,dst=-1").validate(4);  // wildcards are fine
}

TEST(FaultPlan, ValidateGatesRankZeroCrashOnMasterFailover) {
  // Killing rank 0 is only survivable when the scheduler elects a ledger
  // successor; validate() rejects the plan unless the launch advertises
  // master failover.
  FaultPlan plan = FaultPlan::parse("crash:rank=0@t=0.4");
  EXPECT_THROW(plan.validate(4), InputError);
  EXPECT_THROW(plan.validate(4, /*checkpointing=*/true), InputError);
  plan.validate(4, /*checkpointing=*/false, /*master_failover=*/true);
  // Non-zero ranks never needed the gate.
  FaultPlan::parse("crash:rank=2@t=0.4").validate(4, false, false);
}

TEST(FaultPlan, FuzzedSpecsThrowInputErrorOrParse) {
  // Seeded byte-level mutations of valid plans: parse() must either
  // produce a plan or throw InputError — no other exception, no crash.
  const std::vector<std::string> seeds = {
      "crash:rank=3@t=0.4",
      "crash:rank=1,task=2,mode=permanent",
      "drop:src=1,dst=0,count=2; dup:dst=3; delay:src=2,by=0.05,count=4",
      "slow:rank=2,factor=4",
      "kill:t=0.5; corrupt:target=map,byte=12,count=3",
      R"({"faults":[{"kind":"crash","rank":3,"t":0.4}]})"};
  Rng rng(0xfa0177ULL);
  const std::string alphabet =
      "crashdroplwkiltcorup:;,=@-0123456789.{}[]\"tsrcdstmodefactor ";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s = seeds[static_cast<std::size_t>(rng.uniform() * seeds.size())];
    const int edits = 1 + static_cast<int>(rng.uniform() * 4);
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(rng.uniform() * (s.size() + 1));
      const char c =
          alphabet[static_cast<std::size_t>(rng.uniform() * alphabet.size())];
      switch (static_cast<int>(rng.uniform() * 3)) {
        case 0: s.insert(pos, 1, c); break;
        case 1: if (!s.empty()) s.erase(pos % s.size(), 1); break;
        default: if (!s.empty()) s[pos % s.size()] = c; break;
      }
    }
    try {
      const FaultPlan plan = FaultPlan::parse(s);
      // Whatever parsed must also survive a describe round trip.
      FaultPlan::parse(plan.describe());
    } catch (const InputError&) {
      // Expected for malformed mutants.
    }
  }
}

TEST(FaultPlan, ParsesKillAndCorruptClauses) {
  const FaultPlan plan = FaultPlan::parse(
      "kill:t=0.5; corrupt:target=ledger; corrupt:target=map,byte=12,count=3; "
      "corrupt:target=snapshot; corrupt:target=any");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.kills[0].t, 0.5);
  ASSERT_EQ(plan.corrupts.size(), 4u);
  EXPECT_EQ(plan.corrupts[0].target, CorruptTarget::Ledger);
  EXPECT_EQ(plan.corrupts[0].byte, -1);  // middle of the file
  EXPECT_EQ(plan.corrupts[0].count, 1);
  EXPECT_EQ(plan.corrupts[1].target, CorruptTarget::MapLog);
  EXPECT_EQ(plan.corrupts[1].byte, 12);
  EXPECT_EQ(plan.corrupts[1].count, 3);
  EXPECT_EQ(plan.corrupts[2].target, CorruptTarget::Snapshot);
  EXPECT_EQ(plan.corrupts[3].target, CorruptTarget::Any);
}

TEST(FaultPlan, ParsesKillAndCorruptJson) {
  const FaultPlan plan = FaultPlan::parse(
      R"({"faults":[{"kind":"kill","t":0.25},)"
      R"({"kind":"corrupt","target":"map","byte":7,"count":2}]})");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.kills[0].t, 0.25);
  ASSERT_EQ(plan.corrupts.size(), 1u);
  EXPECT_EQ(plan.corrupts[0].target, CorruptTarget::MapLog);
  EXPECT_EQ(plan.corrupts[0].byte, 7);
  EXPECT_EQ(plan.corrupts[0].count, 2);
}

TEST(FaultPlan, KillAndCorruptDescribeRoundTrips) {
  const std::string spec =
      "kill:t=0.5; corrupt:target=ledger; corrupt:target=map,byte=12,count=3; "
      "corrupt:target=snapshot; corrupt:target=any,count=2";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(plan.describe(), again.describe());
  ASSERT_EQ(again.kills.size(), 1u);
  EXPECT_DOUBLE_EQ(again.kills[0].t, 0.5);
  ASSERT_EQ(again.corrupts.size(), 4u);
  EXPECT_EQ(again.corrupts[1].byte, 12);
  EXPECT_EQ(again.corrupts[1].count, 3);
  EXPECT_EQ(again.corrupts[3].count, 2);
}

TEST(FaultPlan, RejectsMalformedKillAndCorrupt) {
  EXPECT_THROW(FaultPlan::parse("kill:t=-1"), InputError);
  EXPECT_THROW(FaultPlan::parse("kill:rank=1,t=0.5"), InputError);  // no rank field
  EXPECT_THROW(FaultPlan::parse("corrupt:target=everything"), InputError);
  EXPECT_THROW(FaultPlan::parse("corrupt:target=map,byte=-3"), InputError);
  EXPECT_THROW(FaultPlan::parse("corrupt:target=map,count=0"), InputError);
}

TEST(FaultPlan, ValidateRejectsCorruptWithoutCheckpointing) {
  FaultPlan kill = FaultPlan::parse("kill:t=0.5");
  kill.validate(4, /*checkpointing=*/false);  // kills need no checkpoint
  kill.validate(4, /*checkpointing=*/true);
  FaultPlan corrupt = FaultPlan::parse("corrupt:target=any");
  EXPECT_THROW(corrupt.validate(4, /*checkpointing=*/false), InputError);
  corrupt.validate(4, /*checkpointing=*/true);  // fine with a checkpoint dir
}

TEST(FaultPlan, RequiresFtForCrashDropAndDupOnly) {
  // The drivers' one gate: these kinds need the ft protocol (and so a
  // remote scheduler); the rest run on any scheduler.
  const std::pair<const char*, bool> table[] = {
      {"crash:rank=1@t=0.4", true},
      {"drop:src=1,dst=0,count=2", true},
      {"dup:src=-1,dst=-1,count=5", true},
      {"delay:src=-1,dst=-1,by=0.05,count=3", false},
      {"slow:rank=2,factor=4", false},
      {"kill:t=0.3", false},
      {"corrupt:target=map,count=3", false},
      {"delay:src=-1,dst=-1,by=0.05; slow:rank=2,factor=4; kill:t=0.3", false},
      {"delay:src=-1,dst=-1,by=0.05; dup:dst=0", true},
  };
  for (const auto& [spec, needs_ft] : table) {
    EXPECT_EQ(FaultPlan::parse(spec).requires_ft(), needs_ft) << spec;
  }
}

TEST(Injector, KillThrowsOnEveryPollOnceDue) {
  Injector inj(FaultPlan::parse("kill:t=1.0"));
  EXPECT_NO_THROW(inj.maybe_crash(0, 0.5));
  EXPECT_THROW(inj.maybe_crash(1, 1.0), JobKillSignal);
  // Unlike a crash, the kill keeps firing for every rank at every later
  // poll: no rank may compute past the kill point.
  EXPECT_THROW(inj.maybe_crash(0, 1.5), JobKillSignal);
  EXPECT_THROW(inj.maybe_crash(2, 2.0), JobKillSignal);
  EXPECT_EQ(inj.stats().kills_fired, 1u);  // counted once
}

TEST(Injector, KillIsNotACrashSignal) {
  // The fault-tolerant worker loop catches CrashSignal; a JobKillSignal
  // must not be swallowed by it.
  Injector inj(FaultPlan::parse("kill:t=0.0"));
  bool caught_as_crash = false;
  try {
    inj.maybe_crash(0, 0.0);
  } catch (const CrashSignal&) {
    caught_as_crash = true;
  } catch (const JobKillSignal&) {
  }
  EXPECT_FALSE(caught_as_crash);
}

TEST(Injector, TakeCorruptConsumesCountsAndMatchesTargets) {
  Injector inj(FaultPlan::parse(
      "corrupt:target=ledger,count=1; corrupt:target=map,byte=5,count=2"));
  CorruptFault out;
  // Snapshot writes match neither pending fault.
  EXPECT_FALSE(inj.take_corrupt(CorruptTarget::Snapshot, out));
  ASSERT_TRUE(inj.take_corrupt(CorruptTarget::Ledger, out));
  EXPECT_EQ(out.target, CorruptTarget::Ledger);
  EXPECT_FALSE(inj.take_corrupt(CorruptTarget::Ledger, out));  // count spent
  ASSERT_TRUE(inj.take_corrupt(CorruptTarget::MapLog, out));
  EXPECT_EQ(out.byte, 5);
  ASSERT_TRUE(inj.take_corrupt(CorruptTarget::MapLog, out));
  EXPECT_FALSE(inj.take_corrupt(CorruptTarget::MapLog, out));
  EXPECT_EQ(inj.stats().checkpoints_corrupted, 3u);
}

TEST(Injector, TakeCorruptAnyMatchesEveryWriteClass) {
  Injector inj(FaultPlan::parse("corrupt:target=any,count=2"));
  CorruptFault out;
  ASSERT_TRUE(inj.take_corrupt(CorruptTarget::Snapshot, out));
  ASSERT_TRUE(inj.take_corrupt(CorruptTarget::Ledger, out));
  EXPECT_FALSE(inj.take_corrupt(CorruptTarget::MapLog, out));
}

TEST(Injector, TimeTriggerFiresOncePerFault) {
  Injector inj(FaultPlan::parse("crash:rank=2@t=1.0"));
  EXPECT_NO_THROW(inj.maybe_crash(2, 0.5));   // not due yet
  EXPECT_NO_THROW(inj.maybe_crash(1, 2.0));   // wrong rank
  EXPECT_THROW(inj.maybe_crash(2, 1.0), CrashSignal);
  EXPECT_TRUE(inj.crashed(2));
  EXPECT_FALSE(inj.permanently_crashed(2));
  EXPECT_NO_THROW(inj.maybe_crash(2, 5.0));   // fires only once
  EXPECT_EQ(inj.stats().crashes_fired, 1u);
}

TEST(Injector, TaskTriggerCountsPerRank) {
  Injector inj(FaultPlan::parse("crash:rank=1,task=1,mode=permanent"));
  EXPECT_NO_THROW(inj.task_started(1, 0.0));  // task 0
  EXPECT_NO_THROW(inj.task_started(2, 0.0));  // other rank's counter
  EXPECT_NO_THROW(inj.task_started(2, 0.0));
  EXPECT_THROW(inj.task_started(1, 0.0), CrashSignal);  // rank 1 task 1
  EXPECT_TRUE(inj.permanently_crashed(1));
}

TEST(Injector, MessageFaultsConsumeCountsAndIgnoreInternalTags) {
  Injector inj(FaultPlan::parse("drop:src=1,dst=0,count=2"));
  // Internal (collective) tags are immune regardless of the channel.
  EXPECT_EQ(inj.on_send(1, 0, kUserTagLimit + 1, kUserTagLimit).kind,
            SendAction::Kind::Deliver);
  EXPECT_EQ(inj.on_send(1, 2, 5, kUserTagLimit).kind, SendAction::Kind::Deliver);
  EXPECT_EQ(inj.on_send(1, 0, 5, kUserTagLimit).kind, SendAction::Kind::Drop);
  EXPECT_EQ(inj.on_send(1, 0, 5, kUserTagLimit).kind, SendAction::Kind::Drop);
  EXPECT_EQ(inj.on_send(1, 0, 5, kUserTagLimit).kind, SendAction::Kind::Deliver);
  EXPECT_EQ(inj.stats().messages_dropped, 2u);
}

TEST(Injector, SlowFactorsCompose) {
  Injector inj(FaultPlan::parse("slow:rank=2,factor=4; slow:rank=2,factor=2"));
  EXPECT_DOUBLE_EQ(inj.slow_factor(2), 8.0);
  EXPECT_DOUBLE_EQ(inj.slow_factor(1), 1.0);
}

}  // namespace
}  // namespace mrbio::fault
