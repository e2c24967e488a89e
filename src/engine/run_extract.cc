#include "engine/run_extract.h"

namespace cubrick {

ExtractedBrick ExtractBrickRuns(const Brick& brick,
                                aosi::Epoch from_exclusive,
                                aosi::Epoch to_inclusive) {
  const CubeSchema& schema = brick.schema();
  ExtractedBrick out;
  out.bid = brick.bid();
  for (const auto& run : brick.history().Decode()) {
    if (!aosi::InEpochRange(run.epoch, from_exclusive, to_inclusive)) {
      continue;
    }
    ExtractedRun extracted(schema);
    extracted.epoch = run.epoch;
    extracted.is_delete = run.is_delete;
    if (!run.is_delete) {
      EncodedBatch& batch = extracted.batch;
      batch.num_rows = run.end - run.begin;
      for (size_t d = 0; d < schema.num_dimensions(); ++d) {
        auto& offsets = batch.dim_offsets[d];
        offsets.resize(batch.num_rows);
        brick.bess().DecodeDim(run.begin, batch.num_rows, d, offsets.data());
      }
      for (size_t m = 0; m < schema.num_metrics(); ++m) {
        const MetricColumn& col = brick.metric(m);
        if (col.type() == DataType::kDouble) {
          batch.metric_doubles[m].assign(col.doubles().begin() + run.begin,
                                         col.doubles().begin() + run.end);
        } else {
          batch.metric_ints[m].assign(col.ints().begin() + run.begin,
                                      col.ints().begin() + run.end);
        }
      }
      batch.ClosePartition(brick.bid());
    }
    out.runs.push_back(std::move(extracted));
  }
  return out;
}

std::vector<ExtractedBrick> ExtractTableRuns(Table* table,
                                             aosi::Epoch from_exclusive,
                                             aosi::Epoch to_inclusive) {
  std::vector<ExtractedBrick> result;
  table->VisitBricks([&](const Brick& brick) {
    ExtractedBrick extracted =
        ExtractBrickRuns(brick, from_exclusive, to_inclusive);
    if (!extracted.runs.empty()) {
      result.push_back(std::move(extracted));
    }
  });
  return result;
}

Status ReplayExtracted(Table* table, std::vector<ExtractedBrick> bricks) {
  for (auto& brick : bricks) {
    for (auto& run : brick.runs) {
      if (run.is_delete) {
        const aosi::Epoch epoch = run.epoch;
        table->ApplyToBrick(brick.bid,
                            [epoch](Brick& b) { b.MarkDeleted(epoch); });
      } else {
        CUBRICK_RETURN_IF_ERROR(
            table->Append(run.epoch, std::move(run.batch)));
      }
    }
  }
  return Status::OK();
}

}  // namespace cubrick
