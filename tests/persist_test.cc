// Persistence and crash-recovery tests (paper §III-D): incremental flush
// rounds, manifest atomicity, recovery up to the last complete flush,
// partial-flush truncation, and dictionary round-trips.

#include "persist/flush_manager.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "cubrick/database.h"

namespace cubrick {
namespace {

namespace fs = std::filesystem;

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cubrick_persist_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DatabaseOptions Options() {
    DatabaseOptions opts;
    opts.data_dir = dir_.string();
    return opts;
  }

  static constexpr char kDdl[] =
      "CREATE CUBE sales (region string CARDINALITY 8 RANGE 2, "
      "day int CARDINALITY 31 RANGE 31, units int, revenue double)";

  cubrick::Query CountQuery() {
    cubrick::Query q;
    q.aggs = {{AggSpec::Fn::kCount, 0},
              {AggSpec::Fn::kSum, 0},
              {AggSpec::Fn::kSum, 1}};
    return q;
  }

  fs::path dir_;
};

TEST_F(PersistTest, CheckpointAndRecoverRoundTrip) {
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales",
                        {{"US", 1, 10, 1.5},
                         {"BR", 2, 20, 2.5},
                         {"US", 3, 40, 4.0}})
                    .ok());
    auto lse = db.Checkpoint();
    ASSERT_TRUE(lse.ok()) << lse.status().ToString();
    EXPECT_GT(*lse, 0u);
  }
  // "Crash": the first Database is gone; a fresh one recovers from disk.
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.TotalRecords(), 3u);
  auto result = db.Query("sales", CountQuery());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kCount), 3.0);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kSum), 70.0);
  EXPECT_DOUBLE_EQ(result->Single(2, AggSpec::Fn::kSum), 8.0);
  // Dictionaries recovered: string filters still resolve.
  auto filter = db.EqFilter("sales", "region", "US");
  ASSERT_TRUE(filter.ok());
  cubrick::Query q = CountQuery();
  q.filters = {*filter};
  EXPECT_DOUBLE_EQ(db.Query("sales", q)->Single(0, AggSpec::Fn::kCount),
                   2.0);
}

TEST_F(PersistTest, IncrementalRoundsOnlyWriteNewEpochs) {
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Load("sales", {{"US", 2, 2, 0.0}}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  persist::FlushManager probe(dir_.string(), "sales");
  EXPECT_EQ(probe.ManifestRounds(), 2u);
  // Recover and verify both rounds' data are present exactly once.
  Database db2(Options());
  ASSERT_TRUE(db2.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db2.Recover().ok());
  EXPECT_EQ(db2.TotalRecords(), 2u);
  EXPECT_DOUBLE_EQ(db2.Query("sales", CountQuery())
                       ->Single(1, AggSpec::Fn::kSum),
                   3.0);
}

TEST_F(PersistTest, UnflushedTailIsLostExactlyOnce) {
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    // This load happens after the checkpoint and is never flushed.
    ASSERT_TRUE(db.Load("sales", {{"BR", 2, 100, 0.0}}).ok());
  }
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.TotalRecords(), 1u);
  EXPECT_DOUBLE_EQ(db.Query("sales", CountQuery())
                       ->Single(1, AggSpec::Fn::kSum),
                   1.0);
}

TEST_F(PersistTest, DeleteMarkersSurviveRecovery) {
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
    ASSERT_TRUE(db.DeletePartitions("sales", {}).ok());
    ASSERT_TRUE(db.Load("sales", {{"BR", 2, 7, 0.0}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  // The delete hides the first record from post-recovery readers.
  auto result = db.Query("sales", CountQuery());
  EXPECT_DOUBLE_EQ(result->Single(0, AggSpec::Fn::kCount), 1.0);
  EXPECT_DOUBLE_EQ(result->Single(1, AggSpec::Fn::kSum), 7.0);
}

TEST_F(PersistTest, PartialSegmentBeyondManifestIgnored) {
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Simulate a crash mid-flush: a trailing segment exists but the manifest
  // was never updated.
  std::ofstream garbage(dir_ / "sales.seg.2", std::ios::binary);
  garbage << "partial write before crash";
  garbage.close();

  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.TotalRecords(), 1u);
}

TEST_F(PersistTest, RecoveryRestoresCounters) {
  aosi::Epoch flushed_lse = 0;
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 2, 2, 0.0}}).ok());
    auto lse = db.Checkpoint();
    ASSERT_TRUE(lse.ok());
    flushed_lse = *lse;
  }
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.txns().LCE(), flushed_lse);
  EXPECT_EQ(db.txns().LSE(), flushed_lse);
  EXPECT_GT(db.txns().EC(), flushed_lse);
  // New transactions continue with unique epochs.
  ASSERT_TRUE(db.Load("sales", {{"BR", 3, 4, 0.0}}).ok());
  EXPECT_DOUBLE_EQ(db.Query("sales", CountQuery())
                       ->Single(1, AggSpec::Fn::kSum),
                   7.0);
}

TEST_F(PersistTest, MultiCubeCrashConsistency) {
  constexpr char kOther[] =
      "CREATE CUBE other (k int CARDINALITY 4, v int)";
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.ExecuteDdl(kOther).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
    ASSERT_TRUE(db.Load("other", {{0, 5}}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Load("sales", {{"BR", 2, 50, 0.0}}).ok());
    ASSERT_TRUE(db.Load("other", {{1, 50}}).ok());
    // Simulate a crash that flushed only 'other' in round 2: flush it
    // manually via its manager.
    persist::FlushManager partial(dir_.string(), "other");
    auto stats = partial.FlushRound(db.FindTable("other"), db.txns().LSE(),
                                    db.txns().LCE());
    ASSERT_TRUE(stats.ok());
  }
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.ExecuteDdl(kOther).ok());
  ASSERT_TRUE(db.Recover().ok());
  // 'other' had more rounds on disk, but the cluster-consistent snapshot is
  // the minimum LSE: the half-flushed round is truncated.
  cubrick::Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}};
  EXPECT_DOUBLE_EQ(db.Query("other", q)->Single(0, AggSpec::Fn::kSum), 5.0);
  EXPECT_EQ(db.TotalRecords(), 2u);
}

TEST_F(PersistTest, ClampedLseDoesNotDuplicateFlushedData) {
  // Regression: when an active reader pins LSE below what a checkpoint
  // flushed, the next checkpoint must resume from the manifest — not from
  // LSE — or recovery would see the overlap twice.
  {
    Database db(Options());
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());  // epoch 1
    // A reader pinned at epoch 1 will clamp LSE below later flushes.
    aosi::Txn reader = db.BeginReadOnly();
    ASSERT_TRUE(db.Load("sales", {{"BR", 2, 2, 0.0}}).ok());  // epoch 2
    auto lse1 = db.Checkpoint();  // flushes (0,2]; LSE clamps to 1
    ASSERT_TRUE(lse1.ok());
    EXPECT_EQ(*lse1, 1u);
    ASSERT_TRUE(db.Load("sales", {{"DE", 3, 4, 0.0}}).ok());  // epoch 3
    // Second checkpoint must resume from the manifest (2), not LSE (1):
    // re-flushing epoch 2 would duplicate BR on recovery.
    ASSERT_TRUE(db.Checkpoint().ok());
    db.txns().EndReadOnly(reader);
  }
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.TotalRecords(), 3u);
  EXPECT_DOUBLE_EQ(db.Query("sales", CountQuery())
                       ->Single(1, AggSpec::Fn::kSum),
                   7.0);
}

TEST_F(PersistTest, CheckpointWithoutDataDirFails) {
  Database db;
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  EXPECT_EQ(db.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Recover().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistTest, EmptyDirRecoversToEmpty) {
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.TotalRecords(), 0u);
  EXPECT_EQ(db.txns().LCE(), 0u);
}

// A corrupt run must come back from Recover as IOError before any shard
// sees it: applied on an inline shard its offsets would trip a brick check
// and abort; on a threaded shard the check would fire on the shard thread
// and leave the recovering append waiting forever.
class CorruptSegmentTest : public PersistTest {
 protected:
  // Byte layout of c.seg.1 up to the first run's first dimension column:
  // four u64 header fields, has-more (u8), bid, run count and epoch (u64
  // each), is-delete (u8) and the run's row count (u64); then the column's
  // u64 length prefix and its values. The metric column follows the same
  // way.
  static constexpr size_t kEpochAt = 4 * 8 + 1 + 2 * 8;
  static constexpr size_t kDimLengthAt = kEpochAt + 8 + 1 + 8;
  static constexpr size_t kDimValuesAt = kDimLengthAt + 8;
  static constexpr size_t kMetricValuesAt = kDimValuesAt + 4 * 8 + 8;

  /// Checkpoints one brick of cube `c` (four rows, dimension range size 4),
  /// then lets `corrupt` rewrite the bytes of `file`.
  void CheckpointThenCorrupt(const std::function<void(std::string*)>& corrupt,
                             const std::string& file = "c.seg.1") {
    {
      Database db(Options());
      ASSERT_TRUE(db.ExecuteDdl(ddl_).ok());
      ASSERT_TRUE(db.Load("c", rows_).ok());
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    const std::string segment = ReadFile("c.seg.1");
    ASSERT_GT(segment.size(), kMetricValuesAt + 4 * 8);
    uint64_t rows = 0;
    std::memcpy(&rows, segment.data() + kDimLengthAt, sizeof(rows));
    ASSERT_EQ(rows, 4u);  // the layout above still holds
    std::string bytes = ReadFile(file);
    corrupt(&bytes);
    std::ofstream out(dir_ / file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string ReadFile(const std::string& file) const {
    std::ifstream in(dir_ / file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void PutU64(std::string* bytes, size_t at, uint64_t v) {
    std::memcpy(bytes->data() + at, &v, sizeof(v));
  }

  /// Recovers the corrupt files with inline and with threaded shards.
  void ExpectIOErrorInBothShardModes(
      const std::string& where = "segment 1, brick 0") {
    for (bool threaded : {false, true}) {
      DatabaseOptions opts = Options();
      opts.threaded_shards = threaded;
      Database db(opts);
      ASSERT_TRUE(db.ExecuteDdl(ddl_).ok());
      const Status status = db.Recover();
      EXPECT_EQ(status.code(), StatusCode::kIOError)
          << "threaded=" << threaded << ": " << status.ToString();
      EXPECT_NE(status.message().find(where), std::string::npos)
          << status.ToString();
    }
  }

  std::string ddl_ = "CREATE CUBE c (k int CARDINALITY 16 RANGE 4, v int)";
  std::vector<Record> rows_ = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
};

TEST_F(CorruptSegmentTest, DimensionOffsetOutsideRangeIsIOError) {
  CheckpointThenCorrupt(
      [](std::string* bytes) { PutU64(bytes, kDimValuesAt, 1000); });
  ExpectIOErrorInBothShardModes();
}

TEST_F(CorruptSegmentTest, DroppedDimensionEntryIsIOError) {
  CheckpointThenCorrupt([](std::string* bytes) {
    PutU64(bytes, kDimLengthAt, 3);
    bytes->erase(kDimValuesAt, 8);
  });
  ExpectIOErrorInBothShardModes();
}

TEST_F(CorruptSegmentTest, EpochOutsideRoundIsIOError) {
  CheckpointThenCorrupt([](std::string* bytes) { PutU64(bytes, kEpochAt, 0); });
  ExpectIOErrorInBothShardModes();
}

TEST_F(CorruptSegmentTest, StringIdMissingFromDictionaryIsIOError) {
  ddl_ = "CREATE CUBE c (k string CARDINALITY 16 RANGE 4, tag string)";
  rows_ = {{"a", "x"}, {"b", "x"}, {"a", "x"}, {"b", "x"}};
  // Id 3 lies inside brick 0 and inside the column's cardinality, but
  // past k's two dictionary entries and tag's one.
  for (size_t at : {kDimValuesAt, kMetricValuesAt}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    CheckpointThenCorrupt([at](std::string* bytes) { PutU64(bytes, at, 3); });
    ExpectIOErrorInBothShardModes();
  }
}

TEST_F(CorruptSegmentTest, ColumnLengthPastEndOfFileIsIOError) {
  CheckpointThenCorrupt(
      [](std::string* bytes) { (*bytes)[kDimLengthAt + 7] ^= 0x40; });
  ExpectIOErrorInBothShardModes();
}

TEST_F(CorruptSegmentTest, DictionaryStringLengthPastEndOfFileIsIOError) {
  ddl_ = "CREATE CUBE c (k string CARDINALITY 16 RANGE 4, v int)";
  rows_ = {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}};
  // c.dict: magic, column count, k's entry count, then k's first string's
  // u64 length.
  CheckpointThenCorrupt(
      [](std::string* bytes) { (*bytes)[3 * 8 + 7] ^= 0x40; }, "c.dict");
  ExpectIOErrorInBothShardModes("dictionary");
}

// A crash or full disk part-way through a round's dictionary write must not
// cost the rounds already durable: the file is replaced, never truncated.
TEST_F(PersistTest, FailedDictionaryWriteKeepsTheLastRound) {
  Database db(Options());  // inline shards: the child below needs no thread
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("sales", {{"US", 1, 10, 1.5}, {"BR", 2, 20, 2.5}}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  // Round 2 runs in a child under a 4 KiB file size limit, with SIGXFSZ
  // ignored so a write past the limit fails with EFBIG instead of killing
  // the child. Its segment holds two short rows and fits; its dictionary
  // holds two new 4 KiB strings and does not.
  constexpr rlim_t kLimit = 4096;
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    alarm(60);  // a wedged child fails the test instead of hanging it
    signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{kLimit, kLimit};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    if (!db.Load("sales", {{std::string(kLimit, 'a'), 3, 30, 3.5},
                           {std::string(kLimit, 'b'), 4, 40, 4.5}})
             .ok()) {
      _exit(2);
    }
    _exit(db.Checkpoint().ok() ? 1 : 0);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status)) << "wait status " << wait_status;
  ASSERT_EQ(WEXITSTATUS(wait_status), 0)
      << "round 2 should fail on its dictionary";
  EXPECT_TRUE(fs::exists(dir_ / "sales.seg.2"));

  Database recovered(Options());
  ASSERT_TRUE(recovered.ExecuteDdl(kDdl).ok());
  const Status recover = recovered.Recover();
  ASSERT_TRUE(recover.ok()) << recover.ToString();
  EXPECT_EQ(recovered.TotalRecords(), 2u);
  auto filter = recovered.EqFilter("sales", "region", "BR");
  ASSERT_TRUE(filter.ok());
  cubrick::Query q = CountQuery();
  q.filters = {*filter};
  EXPECT_DOUBLE_EQ(
      recovered.Query("sales", q)->Single(0, AggSpec::Fn::kCount), 1.0);
}

TEST_F(PersistTest, CheckpointSkipsWhenNothingNew) {
  Database db(Options());
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Load("sales", {{"US", 1, 1, 0.0}}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  persist::FlushManager probe(dir_.string(), "sales");
  const uint64_t rounds = probe.ManifestRounds();
  // No new commits: a second checkpoint must not add a round.
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(probe.ManifestRounds(), rounds);
}

// Pins the on-disk checkpoint format byte for byte: size and FNV-1a of every
// file a fixed workload leaves behind. A refactor of the flush or recovery
// code must keep these constants; a deliberate format change (say, adding
// segment checksums) updates them in the same change.
TEST_F(PersistTest, CheckpointFilesAreByteStable) {
  DatabaseOptions opts = Options();
  opts.shards_per_cube = 1;
  opts.threaded_shards = false;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteDdl(
                    "CREATE CUBE c (region string CARDINALITY 8 RANGE 2, "
                    "day int CARDINALITY 16 RANGE 4, units int, "
                    "revenue double)")
                  .ok());
  ASSERT_TRUE(db.Load("c", {{"US", 1, 10, 1.5},
                            {"BR", 2, 20, 2.5},
                            {"MX", 5, 30, 3.5},
                            {"US", 9, 40, 4.5}})
                  .ok());
  ASSERT_TRUE(
      db.Load("c", {{"JP", 6, 50, 5.5}, {"BR", 13, 60, 6.5}}).ok());
  auto late_days = db.RangeFilter("c", "day", 4, 7);
  ASSERT_TRUE(late_days.ok());
  ASSERT_TRUE(db.DeletePartitions("c", {*late_days}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.Load("c", {{"MX", 2, 70, 7.5}, {"US", 14, 80, 8.5}}).ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  const auto fnv1a = [](const std::string& bytes) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char byte : bytes) {
      h = (h ^ byte) * 0x100000001b3ULL;
    }
    return h;
  };
  struct Pinned {
    const char* file;
    size_t size;
    uint64_t fnv1a;
  };
  for (const Pinned& pinned : {Pinned{"c.seg.1", 639, 0x77e9a43cd9fc3703ULL},
                               Pinned{"c.seg.2", 229, 0xbbc97e7807d3ed27ULL},
                               Pinned{"c.dict", 88, 0x78e6b51f8fff532aULL},
                               Pinned{"c.manifest", 24,
                                      0x1c89634031119536ULL}}) {
    std::ifstream in(dir_ / pinned.file, std::ios::binary);
    ASSERT_TRUE(in) << pinned.file;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), pinned.size) << pinned.file;
    EXPECT_EQ(fnv1a(bytes), pinned.fnv1a) << pinned.file;
  }
}

}  // namespace
}  // namespace cubrick
