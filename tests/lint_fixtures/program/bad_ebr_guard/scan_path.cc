// aosi-lint-fixture: ebr-guard
// aosi-lint-as: src/query/scan_path.cc
//
// Dereference-without-pin: calls EpochVector::PinnedSnapshot with no
// ebr::Guard declared anywhere in the function. The view it fills borrows
// an EBR-protected history Rep — the collector may free it the moment no
// pin covers the reading thread — so the call must trip the ebr-guard pass.

namespace cubrick {

class EpochVector;
struct HistoryView;

class ScanPath {
 public:
  void ScanBrick();

 private:
  EpochVector* history_;
};

void ScanPath::ScanBrick() {
  HistoryView* view = nullptr;
  history_->PinnedSnapshot(view);
}

}  // namespace cubrick
