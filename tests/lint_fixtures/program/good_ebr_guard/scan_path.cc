// aosi-lint-fixture: ebr-guard
// aosi-lint-as: src/query/scan_path.cc
//
// The compliant counterpart of bad_ebr_guard: the EBR-protected read is
// dominated by an ebr::Guard declaration in the same function, and the
// retire-managed Rep is handed to ebr::RetireDelete instead of being
// deleted raw. The program pass must stay silent.

namespace cubrick {

namespace ebr {
class Guard {
 public:
  Guard();
  ~Guard();
};
template <typename T>
void RetireDelete(const T* ptr, unsigned long long extra_bytes);
}  // namespace ebr

class EpochVector;
struct HistoryView;

struct Rep {
  unsigned long long capacity;
};

class ScanPath {
 public:
  void ScanBrick();
  void DropDisplacedRep(const Rep* victim);

 private:
  EpochVector* history_;
};

void ScanPath::ScanBrick() {
  const ebr::Guard guard;
  HistoryView* view = nullptr;
  history_->PinnedSnapshot(view);
}

void ScanPath::DropDisplacedRep(const Rep* victim) {
  ebr::RetireDelete(victim, 0);
}

}  // namespace cubrick
