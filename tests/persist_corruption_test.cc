// Corruption sweep over the files of one checkpoint (paper §III-D): every
// truncation, and every single-byte XOR with 0xff, 0x80 and 0x01, of the
// segment, the dictionary file and the manifest, each recovered with inline
// and with threaded shards. Recover must return OK or IOError. After an OK
// the cube must still answer a grouped query, a Select of every row and a
// checkpoint with a Status. Nothing may abort, throw or hang.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "cubrick/database.h"

namespace cubrick {
namespace {

namespace fs = std::filesystem;

constexpr char kDdl[] =
    "CREATE CUBE c (region string CARDINALITY 8 RANGE 2, "
    "day int CARDINALITY 8 RANGE 4, units int, revenue double)";

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Overwrites `path` in place and then sets its size: a truncation to zero
/// before the write would make ext4 start writeback on every close.
void WriteFile(const fs::path& path, const std::string& bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!out) out.open(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fs::resize_file(path, bytes.size());
}

class CorruptionSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("cubrick_corruption_sweep_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "clean");
  }
  void TearDown() override { fs::remove_all(root_); }

  /// One round holding two appends and a partition delete.
  void Checkpoint() {
    DatabaseOptions opts;
    opts.data_dir = (root_ / "clean").string();
    Database db(opts);
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    ASSERT_TRUE(db.Load("c", {{"US", 1, 10, 1.5},
                              {"BR", 2, 20, 2.5},
                              {"MX", 5, 30, 3.5}})
                    .ok());
    ASSERT_TRUE(db.Load("c", {{"US", 6, 40, 4.5}, {"JP", 3, 50, 5.5}}).ok());
    auto late_days = db.RangeFilter("c", "day", 4, 7);
    ASSERT_TRUE(late_days.ok());
    ASSERT_TRUE(db.DeletePartitions("c", {*late_days}).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    for (const char* file : {"c.seg.1", "c.dict", "c.manifest"}) {
      ASSERT_TRUE(fs::exists(root_ / "clean" / file)) << file;
      files_[file] = ReadFile(root_ / "clean" / file);
    }
  }

  /// Restores a fresh copy of the checkpoint with `file` replaced by
  /// `bytes`, recovers it, and checks what the header comment promises.
  void RecoverCase(const std::string& file, const std::string& bytes,
                   const std::string& what) {
    const fs::path dir = root_ / "case";
    for (bool threaded : {false, true}) {
      // Files are rewritten in place, not unlinked and copied: on a disk
      // file system that keeps the sweep's thousands of cases fast.
      fs::create_directories(dir);
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (files_.count(entry.path().filename().string()) == 0) {
          fs::remove(entry.path());
        }
      }
      for (const auto& [name, original] : files_) {
        WriteFile(dir / name, name == file ? bytes : original);
      }
      const std::string label =
          file + " " + what + (threaded ? " threaded" : " inline");
      try {
        DatabaseOptions opts;
        opts.data_dir = dir.string();
        opts.threaded_shards = threaded;
        Database db(opts);
        ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
        const Status status = db.Recover();
        if (status.ok()) {
          ++recovered_;
        } else {
          EXPECT_EQ(status.code(), StatusCode::kIOError)
              << label << ": " << status.ToString();
          ++rejected_;
          continue;
        }
        cubrick::Query grouped;
        grouped.group_by = {0};
        grouped.aggs = {{AggSpec::Fn::kCount, 0},
                        {AggSpec::Fn::kSum, 0},
                        {AggSpec::Fn::kSum, 1}};
        (void)db.Query("c", grouped).status();
        (void)db.Select("c", {}).status();
        (void)db.Checkpoint().status();
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << " threw: " << e.what();
      }
    }
  }

  fs::path root_;
  std::map<std::string, std::string> files_;
  uint64_t recovered_ = 0;
  uint64_t rejected_ = 0;
};

TEST_F(CorruptionSweepTest, EveryTruncationAndByteFlipRecoversOrFails) {
  ASSERT_NO_FATAL_FAILURE(Checkpoint());
  for (const auto& [file, original] : files_) {
    for (size_t len = 0; len < original.size(); ++len) {
      RecoverCase(file, original.substr(0, len),
                  "truncated to " + std::to_string(len));
    }
    for (size_t at = 0; at < original.size(); ++at) {
      for (unsigned mask : {0xffu, 0x80u, 0x01u}) {
        std::string bytes = original;
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        RecoverCase(file, bytes,
                    "byte " + std::to_string(at) + " ^ " +
                        std::to_string(mask));
      }
    }
  }
  // Both outcomes occur: the sweep is not vacuous either way.
  EXPECT_GT(recovered_, 0u);
  EXPECT_GT(rejected_, 0u);
}

}  // namespace
}  // namespace cubrick
