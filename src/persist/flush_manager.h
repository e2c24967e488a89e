// Persistence and durability (paper §III-D).
//
// In-memory OLAP databases ensure durability with background disk flushes
// plus replication. Each flush round selects a candidate LSE' and writes the
// data between the current LSE and LSE' on every partition — identified by
// walking the epochs vectors — to an append-only segment file. After the
// segment is durable, the manifest (round count + LSE) is atomically
// replaced. No transactional history needs to be flushed: everything at or
// before LSE is by definition finished, so recovery only needs the data and
// a single LSE timestamp.
//
// Both directions go through engine/run_extract: a round serializes the
// runs SelectBrickRuns picks, decoded by DecodeRun, and recovery reads a
// round back into ExtractedBricks and replays it with ReplayExtracted.
//
// Crash recovery replays the segments the manifest covers, ignoring any
// trailing partially-written segment, and restores the epoch counters to the
// flushed LSE. Data after LSE is recovered from replicas (the cluster layer
// redelivers; a single-node deployment loses it, exactly as the paper
// states).

#pragma once

#include <string>

#include "aosi/epoch.h"
#include "common/mutex.h"
#include "engine/table.h"
#include "storage/schema.h"

namespace cubrick::obs {
class MetricsRegistry;
}  // namespace cubrick::obs

namespace cubrick::persist {

struct FlushRoundStats {
  uint64_t rows_written = 0;
  uint64_t delete_markers_written = 0;
  uint64_t bricks_touched = 0;

  /// Adds this round's tallies to the registry's "persist.*" counters
  /// (docs/OBSERVABILITY.md). Called by FlushManager::FlushRound.
  void PublishTo(obs::MetricsRegistry& reg) const;
};

struct RecoveryResult {
  /// The LSE recorded by the last complete flush round.
  aosi::Epoch lse = aosi::kNoEpoch;
  uint64_t rows_recovered = 0;
  uint64_t rounds_replayed = 0;
};

class FlushManager {
 public:
  /// `dir` must exist; all segment/manifest files for the cube live there.
  FlushManager(std::string dir, std::string cube_name);

  /// Writes one flush round covering epochs in (from_lse, to_lse]. The
  /// caller picks to_lse (typically the node's LCE) and, on success,
  /// advances the transaction manager's LSE to it. Safe to call from
  /// concurrent maintenance threads: rounds are serialized internally, and
  /// from_lse is re-clamped to the manifest LSE under the lock so a range a
  /// concurrent round already made durable is never flushed twice (which
  /// would duplicate rows on recovery). A round whose range is already
  /// covered returns empty stats.
  Result<FlushRoundStats> FlushRound(Table* table, aosi::Epoch from_lse,
                                     aosi::Epoch to_lse);

  /// Replays all complete flush rounds into `table` (which must be empty)
  /// and returns the recovered LSE. Also restores the schema's string
  /// dictionaries. An unreadable manifest, dictionary file or segment is
  /// an IOError, and so is a run that no flush round could have written:
  /// one whose epoch lies outside its round's (from_lse, to_lse], or whose
  /// string ids are missing from the recovered dictionaries. Each round is
  /// read and checked whole before any of it is applied, so a failure
  /// leaves `table` holding exactly the rounds before the bad one.
  Result<RecoveryResult> Recover(Table* table);

  /// LSE recorded in the manifest; kNoEpoch when there is no manifest or
  /// it is unreadable.
  aosi::Epoch ManifestLse() const;
  /// Number of complete rounds in the manifest; 0 when there is no
  /// manifest or it is unreadable.
  uint64_t ManifestRounds() const;

 private:
  std::string SegmentPath(uint64_t round) const;
  std::string DictPath() const;
  std::string ManifestPath() const;

  struct Manifest {
    uint64_t rounds = 0;
    aosi::Epoch lse = aosi::kNoEpoch;
  };
  /// No rounds when the manifest is absent; IOError when it is present but
  /// has a bad magic, a short body or zero rounds (WriteManifest never
  /// writes zero rounds).
  Result<Manifest> ReadManifest() const;

  /// Atomically replaces the manifest (tmp file + rename).
  Status WriteManifest(uint64_t rounds, aosi::Epoch lse) const;

  /// Atomically replaces the dictionary file (tmp file + rename), so a
  /// failed write leaves the last complete round's dictionaries in place.
  Status WriteDictionaries(const CubeSchema& schema) const;
  Status ReadDictionaries(const CubeSchema& schema) const;

  std::string dir_;
  std::string cube_name_;

  /// Serializes FlushRound/Recover. The round counter and manifest are a
  /// disk-side read-modify-write; callers (Database/ClusterNode maintenance)
  /// run outside their registry locks and may overlap.
  mutable Mutex io_mu_;
};

}  // namespace cubrick::persist
