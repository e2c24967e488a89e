// aosi-lint-as: src/engine/purge_free.cc
//
// Raw delete of a retire-managed type (an EpochVector Rep) with no EBR
// deleter marker: a concurrent purge pinned before the unlink may still be
// reading the Rep's entries through PinnedSnapshot, so this free must go
// through ebr::Retire/RetireDelete instead.

namespace cubrick {

struct Rep {
  unsigned long long capacity;
};

void DropDisplacedRep(void* slot) {
  Rep* victim = static_cast<Rep*>(slot);
  delete victim;
}

}  // namespace cubrick
