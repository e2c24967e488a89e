#include "engine/run_extract.h"

namespace cubrick {

std::vector<aosi::EpochRun> SelectBrickRuns(const Brick& brick,
                                            aosi::Epoch from_exclusive,
                                            aosi::Epoch to_inclusive) {
  std::vector<aosi::EpochRun> runs = brick.history().Decode();
  std::erase_if(runs, [&](const aosi::EpochRun& run) {
    return !aosi::InEpochRange(run.epoch, from_exclusive, to_inclusive);
  });
  return runs;
}

void DecodeRun(const Brick& brick, const aosi::EpochRun& run,
               EncodedBatch* batch) {
  const CubeSchema& schema = brick.schema();
  batch->num_rows = run.end - run.begin;
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    auto& offsets = batch->dim_offsets[d];
    offsets.resize(batch->num_rows);
    brick.bess().DecodeDim(run.begin, batch->num_rows, d, offsets.data());
  }
  for (size_t m = 0; m < schema.num_metrics(); ++m) {
    const MetricColumn& col = brick.metric(m);
    if (col.type() == DataType::kDouble) {
      batch->metric_doubles[m].assign(col.doubles().begin() + run.begin,
                                      col.doubles().begin() + run.end);
    } else {
      batch->metric_ints[m].assign(col.ints().begin() + run.begin,
                                   col.ints().begin() + run.end);
    }
  }
  batch->bids.clear();
  batch->starts.resize(1);
  batch->ClosePartition(brick.bid());
}

ExtractedBrick ExtractBrickRuns(const Brick& brick,
                                aosi::Epoch from_exclusive,
                                aosi::Epoch to_inclusive) {
  ExtractedBrick out;
  out.bid = brick.bid();
  for (const auto& run :
       SelectBrickRuns(brick, from_exclusive, to_inclusive)) {
    ExtractedRun& extracted = out.runs.emplace_back(brick.schema());
    extracted.epoch = run.epoch;
    extracted.is_delete = run.is_delete;
    if (!run.is_delete) DecodeRun(brick, run, &extracted.batch);
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
