// End-to-end crash recovery: a child process ingests against a
// persistent engine and dies by SIGKILL mid-stream — no destructors, no
// flushes — then the parent recovers from the directory the corpse left
// behind and demands *bit-identical* user-facing state against a twin
// engine that never crashed (histories, vote lists, neighborhoods,
// recommendation scores, across every index backend). The suite also
// pins the failure-policy half of the contract: torn journal tails are
// cleanly discarded (and only genuine tails — an intact record beyond
// the damage proves mid-file corruption), while corruption anywhere
// else (older generations, mid-file in the newest one, the snapshot)
// fails Bootstrap with a clean Status — never a crash, never silently
// wrong state. A failed append seals its journal generation; the Save
// that rotates it out deletes it, which is also pinned here.
//
// Forking rules (see tests/testing/subprocess.h): Engine::Bootstrap
// uses the global thread pool, whose workers do not survive a fork, so
// every engine is bootstrapped in the parent; children only ingest
// (single-threaded with identify off) and die.

#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "online/engine.h"
#include "persist/fs.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "testing/subprocess.h"
#include "testing/temp_dir.h"

namespace sccf::online {
namespace {

using core::IndexKind;
using core::RealTimeService;
using sccf::testing::ExitedCleanly;
using sccf::testing::KilledBySignal;
using sccf::testing::RunInChild;
using sccf::testing::SelfKill;
using sccf::testing::TempDir;

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "recovery-test";
    cfg.num_users = 80;
    cfg.num_items = 120;
    cfg.num_clusters = 8;
    cfg.min_actions = 8;
    cfg.max_actions = 18;
    cfg.seed = 71;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);
    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 0;  // untrained: deterministic weights, instant Fit
    fism_ = new models::Fism(fopts);
    SCCF_CHECK(fism_->Fit(*split_).ok());
  }
  static void TearDownTestSuite() {
    delete fism_;
    delete split_;
    delete dataset_;
    fism_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static Engine::Options MakeOptions(IndexKind kind, size_t threshold,
                                     const std::string& recover_dir) {
    Engine::Options opts;
    opts.beta = 10;
    opts.num_shards = 4;
    opts.index_kind = kind;
    opts.compaction_threshold = threshold;
    opts.recover_dir = recover_dir;
    return opts;
  }

  /// Deterministic interleaved event stream: 20 warm users plus two
  /// cold-start ones, chronological per user.
  static std::vector<Engine::Event> EventLog() {
    std::vector<Engine::Event> events;
    const int num_items = static_cast<int>(dataset_->num_items());
    for (int step = 0; step < 8; ++step) {
      for (int u = 0; u < 20; ++u) {
        events.push_back({u, (u * 11 + step * 7) % num_items, step});
      }
      events.push_back({9000, (step * 13 + 1) % num_items, step});
      events.push_back({9001, (step * 17 + 2) % num_items, step});
    }
    return events;
  }

  /// Ingests events[lo, hi) in `batch` sized chunks, identify off (the
  /// fan-out search never mutates state and keeps children off the
  /// thread pool for sure).
  static void IngestRange(Engine& engine,
                          const std::vector<Engine::Event>& events,
                          size_t lo, size_t hi, size_t batch) {
    for (size_t i = lo; i < hi; i += batch) {
      Engine::IngestRequest req;
      req.identify = false;
      const size_t end = std::min(hi, i + batch);
      req.events.assign(events.begin() + i, events.begin() + end);
      const auto response = engine.Ingest(req);
      SCCF_CHECK(response.ok()) << response.status().ToString();
    }
  }

  /// The users every equivalence check probes: warm, busiest, and the
  /// two cold-start users created mid-stream.
  static std::vector<int> ProbeUsers() { return {0, 1, 5, 19, 9000, 9001}; }

  /// Bit-identical user-facing state: histories, Eq. 11
  /// neighborhoods, and Eq. 12 recommendation lists with exact float
  /// equality — the recovery contract is "as if the crash never
  /// happened", not "approximately".
  static void ExpectSameState(const RealTimeService& a,
                              const RealTimeService& b,
                              const std::vector<int>& users) {
    ASSERT_EQ(a.num_users(), b.num_users());
    for (int user : users) {
      auto h_a = a.History(user);
      auto h_b = b.History(user);
      ASSERT_TRUE(h_a.ok()) << "user " << user;
      ASSERT_TRUE(h_b.ok()) << "user " << user;
      EXPECT_EQ(*h_a, *h_b) << "history diverged for user " << user;

      auto n_a = a.Neighbors(user);
      auto n_b = b.Neighbors(user);
      ASSERT_TRUE(n_a.ok()) << "user " << user;
      ASSERT_TRUE(n_b.ok()) << "user " << user;
      ASSERT_EQ(n_a->size(), n_b->size()) << "user " << user;
      for (size_t i = 0; i < n_a->size(); ++i) {
        EXPECT_EQ((*n_a)[i].id, (*n_b)[i].id)
            << "user " << user << " rank " << i;
        EXPECT_EQ((*n_a)[i].score, (*n_b)[i].score)
            << "user " << user << " rank " << i;
      }

      auto r_a = a.RecommendUserBased(user, 10);
      auto r_b = b.RecommendUserBased(user, 10);
      ASSERT_TRUE(r_a.ok()) << "user " << user;
      ASSERT_TRUE(r_b.ok()) << "user " << user;
      ASSERT_EQ(r_a->size(), r_b->size()) << "user " << user;
      for (size_t i = 0; i < r_a->size(); ++i) {
        EXPECT_EQ((*r_a)[i].id, (*r_b)[i].id)
            << "user " << user << " rank " << i;
        EXPECT_EQ((*r_a)[i].score, (*r_b)[i].score)
            << "user " << user << " rank " << i;
      }
    }
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* RecoveryTest::dataset_ = nullptr;
data::LeaveOneOutSplit* RecoveryTest::split_ = nullptr;
models::Fism* RecoveryTest::fism_ = nullptr;

// ------------------------------------------------- crash equivalence

TEST_F(RecoveryTest, SigkillMidIngestRecoversBitIdentical) {
  // Every index backend, two batch shapes. Brute force is bit-exact
  // under any compaction threshold, so it runs with staged upserts in
  // flight at the kill; HNSW/IVF run write-through (threshold 1), where
  // drain timing — part of their internal state — is fixed by the event
  // sequence alone.
  struct Config {
    IndexKind kind;
    size_t threshold;
    size_t batch;
  };
  const Config configs[] = {
      {IndexKind::kBruteForce, 3, 1}, {IndexKind::kBruteForce, 3, 7},
      {IndexKind::kIvfFlat, 1, 1},    {IndexKind::kIvfFlat, 1, 7},
      {IndexKind::kHnsw, 1, 1},       {IndexKind::kHnsw, 1, 7},
  };
  const std::vector<Engine::Event> events = EventLog();

  for (const Config& cfg : configs) {
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(cfg.kind)) +
                 " batch=" + std::to_string(cfg.batch));
    TempDir dir;
    // Kill point: roughly mid-stream, on a batch boundary so the parent
    // can reproduce exactly what the child committed.
    const size_t kill = (events.size() / 2 / cfg.batch) * cfg.batch;

    {
      auto crash = std::make_unique<Engine>(
          *fism_, MakeOptions(cfg.kind, cfg.threshold, dir.path()));
      ASSERT_TRUE(crash->BootstrapFromSplit(*split_).ok());
      const int status = RunInChild([&] {
        IngestRange(*crash, events, 0, kill, cfg.batch);
        SelfKill();
      });
      ASSERT_TRUE(KilledBySignal(status, SIGKILL));
      // The parent's copy of the engine never saw the child's ingest
      // (copy-on-write address spaces); it is destroyed here untouched.
    }

    Engine recovered(*fism_,
                     MakeOptions(cfg.kind, cfg.threshold, dir.path()));
    ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
    Engine witness(*fism_, MakeOptions(cfg.kind, cfg.threshold, ""));
    ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
    IngestRange(witness, events, 0, kill, cfg.batch);
    ExpectSameState(recovered.service(), witness.service(), ProbeUsers());

    // Recovery must also *compose*: both engines absorb the rest of the
    // stream and must still agree — this is what pins serialized index
    // internals (HNSW RNG state, IVF centroids) rather than just the
    // visible maps.
    IngestRange(recovered, events, kill, events.size(), cfg.batch);
    IngestRange(witness, events, kill, events.size(), cfg.batch);
    ExpectSameState(recovered.service(), witness.service(), ProbeUsers());
  }
}

TEST_F(RecoveryTest, SaveMidStreamThenCrashRecoversSnapshotPlusTail) {
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  const size_t half = (events.size() / 2 / 5) * 5;

  {
    auto crash = std::make_unique<Engine>(
        *fism_, MakeOptions(IndexKind::kBruteForce, 3, dir.path()));
    ASSERT_TRUE(crash->BootstrapFromSplit(*split_).ok());
    const int status = RunInChild([&] {
      IngestRange(*crash, events, 0, half, 5);
      SCCF_CHECK(crash->Save().ok());
      IngestRange(*crash, events, half, events.size(), 5);
      SelfKill();
    });
    ASSERT_TRUE(KilledBySignal(status, SIGKILL));
  }

  // The child's Save ran to completion, so the directory holds a
  // snapshot plus the rotated-to generation with the post-save tail.
  EXPECT_TRUE(persist::PathExists(dir.file("snapshot")));
  EXPECT_TRUE(persist::PathExists(dir.file("journal-000002")));

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 3, dir.path()));
  ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 3, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, events.size(), 5);
  ExpectSameState(recovered.service(), witness.service(), ProbeUsers());
}

// -------------------------------------------- lifecycle + durability

TEST_F(RecoveryTest, FreshDirIsPlainBootstrapPlusJournaling) {
  TempDir dir;
  Engine engine(*fism_,
                MakeOptions(IndexKind::kBruteForce, 1, dir.file("data")));
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  EXPECT_TRUE(engine.persistence_enabled());
  EXPECT_EQ(engine.last_save_unix_s(), -1);  // never saved, not epoch 0

  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  EXPECT_FALSE(witness.persistence_enabled());
  ExpectSameState(engine.service(), witness.service(), {0, 1, 5, 19});

  // SAVE works once persistence is configured — and only then.
  EXPECT_TRUE(engine.Save().ok());
  EXPECT_GT(engine.last_save_unix_s(), 0);
  EXPECT_TRUE(persist::PathExists(dir.file("data/snapshot")));
  EXPECT_EQ(witness.Save().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, CleanRestartReplaysJournal) {
  // No crash, no Save: destruction closes the journal cleanly and the
  // next Bootstrap replays it in full.
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  {
    Engine first(*fism_, MakeOptions(IndexKind::kHnsw, 1, dir.path()));
    ASSERT_TRUE(first.BootstrapFromSplit(*split_).ok());
    IngestRange(first, events, 0, events.size(), 4);
  }
  Engine second(*fism_, MakeOptions(IndexKind::kHnsw, 1, dir.path()));
  ASSERT_TRUE(second.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kHnsw, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, events.size(), 4);
  ExpectSameState(second.service(), witness.service(), ProbeUsers());
}

TEST_F(RecoveryTest, SaveRotatesAndGarbageCollectsGenerations) {
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  Engine engine(*fism_, MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());

  IngestRange(engine, events, 0, 40, 4);
  ASSERT_TRUE(engine.Save().ok());  // gen 1 retained, gen 2 opened
  IngestRange(engine, events, 40, 80, 4);
  ASSERT_TRUE(engine.Save().ok());  // gen 1 deleted, gen 3 opened
  IngestRange(engine, events, 80, 120, 4);

  EXPECT_FALSE(persist::PathExists(dir.file("journal-000001")));
  EXPECT_TRUE(persist::PathExists(dir.file("journal-000002")));
  EXPECT_TRUE(persist::PathExists(dir.file("journal-000003")));
  EXPECT_TRUE(persist::PathExists(dir.file("snapshot")));

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, 120, 4);
  ExpectSameState(recovered.service(), witness.service(), ProbeUsers());
}

// ------------------------------------------------- failure semantics

TEST_F(RecoveryTest, TornJournalTailIsDiscardedCleanly) {
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  // Past the first step's cold-start events so users 9000/9001 exist.
  const size_t n = 30;
  {
    Engine engine(*fism_,
                  MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
    // Batch size 1: one journal record per event, so truncating the
    // last record removes exactly the last event from history.
    IngestRange(engine, events, 0, n, 1);
  }
  const std::string journal = dir.file("journal-000001");
  auto bytes = persist::ReadFileToString(journal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      persist::WriteFileAtomic(
          journal, std::string_view(bytes->data(), bytes->size() - 5), false)
          .ok());

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, n - 1, 1);  // the torn event is gone
  ExpectSameState(recovered.service(), witness.service(),
                  {0, 1, 5, 19, 9000, 9001});
}

TEST_F(RecoveryTest, TrailingGarbageAfterValidRecordsIsDiscarded) {
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  // Past the first step's cold-start events so users 9000/9001 exist.
  const size_t n = 30;
  {
    Engine engine(*fism_,
                  MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
    IngestRange(engine, events, 0, n, 1);
  }
  const std::string journal = dir.file("journal-000001");
  auto bytes = persist::ReadFileToString(journal);
  ASSERT_TRUE(bytes.ok());
  *bytes += std::string(37, '\xee');  // a torn half-written record
  ASSERT_TRUE(persist::WriteFileAtomic(journal, *bytes, false).ok());

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, n, 1);  // every intact record replays
  ExpectSameState(recovered.service(), witness.service(), ProbeUsers());
}

TEST_F(RecoveryTest, MidFileCorruptionInNewestGenerationFailsBootstrap) {
  // The torn-tail allowance covers only the FINAL record of the newest
  // generation: a flipped bit mid-file leaves intact, acknowledged
  // records beyond the damage, and recovery must refuse to start
  // rather than silently truncate them away.
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  const size_t n = 30;
  {
    Engine engine(*fism_,
                  MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
    IngestRange(engine, events, 0, n, 1);
  }
  const std::string journal = dir.file("journal-000001");
  auto bytes = persist::ReadFileToString(journal);
  ASSERT_TRUE(bytes.ok());
  const size_t at = bytes->size() / 3;  // ~record 10 of 30
  (*bytes)[at] = static_cast<char>((*bytes)[at] ^ 0xff);
  ASSERT_TRUE(persist::WriteFileAtomic(journal, *bytes, false).ok());

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  const Status booted = recovered.BootstrapFromSplit(*split_);
  EXPECT_EQ(booted.code(), StatusCode::kIoError) << booted.ToString();
}

TEST_F(RecoveryTest, SealedGenerationIsDeletedBySaveAndIngestResumes) {
  // A failed append seals its journal generation (journal.h): ingest
  // refuses until a Save rotates it — and that Save must DELETE the
  // sealed file rather than retain it like a healthy current
  // generation, because its damaged tail may hold a fully-written
  // record the service never acknowledged, whose seq the first
  // post-rotation record reuses; replayed, the stale record would win
  // and the acknowledged one would be silently skipped.
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  Engine engine(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  auto manager = persist::PersistenceManager::Open(dir.path(), false);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  persist::PersistenceManager& mgr = **manager;
  ASSERT_TRUE(mgr.Recover(&engine.service()).ok());
  engine.service().set_ingest_sink(&mgr);

  IngestRange(engine, events, 0, 20, 4);

  // Disk error strikes: the generation seals; ingest is refused with
  // FailedPrecondition and the batch leaves no trace in memory.
  mgr.journal_for_testing()->PoisonForTesting();
  const size_t users_before = engine.service().num_users();
  Engine::IngestRequest refused_batch;
  refused_batch.identify = false;
  refused_batch.events = {events[20]};  // a cold-start user
  const auto refused = engine.Ingest(refused_batch);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_EQ(engine.service().num_users(), users_before);

  // SAVE is the operator remedy: sealed gen 1 deleted (not retained),
  // fresh gen 2 opened, ingest resumes.
  ASSERT_TRUE(mgr.Save(engine.service()).ok());
  EXPECT_FALSE(persist::PathExists(dir.file("journal-000001")));
  EXPECT_TRUE(persist::PathExists(dir.file("journal-000002")));
  IngestRange(engine, events, 20, 40, 4);
  engine.service().set_ingest_sink(nullptr);

  // Recovery reproduces exactly the acknowledged events.
  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(recovered.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  IngestRange(witness, events, 0, 40, 4);
  ExpectSameState(recovered.service(), witness.service(), ProbeUsers());
}

TEST_F(RecoveryTest, CorruptionInOlderGenerationFailsBootstrap) {
  // A torn tail is only legitimate in the NEWEST generation — an older
  // one was rotated out by a completed Save and must be intact.
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  {
    Engine engine(*fism_,
                  MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
    IngestRange(engine, events, 0, 30, 3);
    ASSERT_TRUE(engine.Save().ok());  // gen 1 retained, gen 2 opened
    IngestRange(engine, events, 30, 60, 3);
  }
  const std::string older = dir.file("journal-000001");
  auto bytes = persist::ReadFileToString(older);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] =
      static_cast<char>((*bytes)[bytes->size() / 2] ^ 0xff);
  ASSERT_TRUE(persist::WriteFileAtomic(older, *bytes, false).ok());

  Engine recovered(*fism_,
                   MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  const Status booted = recovered.BootstrapFromSplit(*split_);
  EXPECT_EQ(booted.code(), StatusCode::kIoError) << booted.ToString();
}

TEST_F(RecoveryTest, CorruptSnapshotFailsBootstrapCleanly) {
  TempDir dir;
  const std::vector<Engine::Event> events = EventLog();
  {
    Engine engine(*fism_,
                  MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
    IngestRange(engine, events, 0, 40, 4);
    ASSERT_TRUE(engine.Save().ok());
  }
  const std::string snapshot = dir.file("snapshot");
  auto bytes = persist::ReadFileToString(snapshot);
  ASSERT_TRUE(bytes.ok());

  // Bit flip mid-file: some section's CRC breaks.
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0xff);
  ASSERT_TRUE(persist::WriteFileAtomic(snapshot, flipped, false).ok());
  {
    Engine e(*fism_, MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    EXPECT_FALSE(e.BootstrapFromSplit(*split_).ok());
  }

  // Truncation: the end marker is missing.
  ASSERT_TRUE(persist::WriteFileAtomic(
                  snapshot,
                  std::string_view(bytes->data(), bytes->size() / 2), false)
                  .ok());
  {
    Engine e(*fism_, MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
    EXPECT_FALSE(e.BootstrapFromSplit(*split_).ok());
  }
}

TEST_F(RecoveryTest, StaleTempFilesAreIgnored) {
  // A crash during snapshot write legitimately leaves a snapshot.tmp;
  // recovery must ignore it (the rename never committed, so the
  // previous state — here, none — is the truth).
  TempDir dir;
  ASSERT_TRUE(
      persist::WriteFileAtomic(dir.file("snapshot.tmp"), "garbage", false)
          .ok());
  Engine engine(*fism_, MakeOptions(IndexKind::kBruteForce, 1, dir.path()));
  ASSERT_TRUE(engine.BootstrapFromSplit(*split_).ok());
  Engine witness(*fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(witness.BootstrapFromSplit(*split_).ok());
  ExpectSameState(engine.service(), witness.service(), {0, 1, 5, 19});
}

TEST_F(RecoveryTest, JournalSequenceGapIsIoError) {
  // Service-level seq discipline: replay skips already-covered records
  // and rejects gaps (a deleted or reordered record is corruption, not
  // a tail).
  core::RealTimeService service(
      *fism_, MakeOptions(IndexKind::kBruteForce, 1, ""));
  ASSERT_TRUE(service.BootstrapFromSplit(*split_).ok());
  const std::vector<Engine::Event> events = {{0, 1, 0}};
  const size_t shard = service.ShardOf(0);

  ASSERT_TRUE(service
                  .ApplyJournalRecord(
                      shard, 1, std::span<const Engine::Event>(events))
                  .ok());
  EXPECT_EQ(service.ShardJournalSeq(shard), 1u);
  // Re-applying seq 1 is an idempotent skip (snapshot overlap).
  ASSERT_TRUE(service
                  .ApplyJournalRecord(
                      shard, 1, std::span<const Engine::Event>(events))
                  .ok());
  EXPECT_EQ(service.ShardJournalSeq(shard), 1u);
  // Seq 3 with seq 2 missing is a gap: IoError, state untouched.
  EXPECT_EQ(service
                .ApplyJournalRecord(
                    shard, 3, std::span<const Engine::Event>(events))
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(service.ShardJournalSeq(shard), 1u);
}

TEST_F(RecoveryTest, ChildThatRunsToCompletionExitsCleanly) {
  // Sanity-pin the harness itself: a child that does NOT SelfKill exits
  // 0, so the SIGKILL assertions in the crash tests are meaningful.
  const int status = RunInChild([] {});
  EXPECT_TRUE(ExitedCleanly(status));
  EXPECT_FALSE(KilledBySignal(status, SIGKILL));
}

}  // namespace
}  // namespace sccf::online
