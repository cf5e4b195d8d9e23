// Translation lookaside buffer model.
//
// The paper preloads both TLBs with every page the workload touches in a
// fault-free run, so that any TLB miss observed during an injected trial
// signals a potentially illegal access (classified itlb/dtlb, both SDC).
// We model exactly that: a Tlb is a set of permitted page indices per side
// (instruction / data). In learning mode accesses populate the sets; in
// checking mode an access outside the sets reports a miss.
#pragma once

#include <cstdint>
#include <unordered_set>

namespace tfsim {

class Tlb {
 public:
  // While learning, every access is permitted and recorded.
  void SetLearning(bool learning) { learning_ = learning; }
  bool learning() const { return learning_; }

  // Returns true when the page holding addr is mapped on the given side.
  bool LookupInsn(std::uint64_t addr);
  bool LookupData(std::uint64_t addr);

  std::size_t InsnPages() const { return ipages_.size(); }
  std::size_t DataPages() const { return dpages_.size(); }

 private:
  // `last_learned` is the side's most recently learned page: consecutive
  // accesses to it skip the set insert. Pages are never removed, so it is
  // always in the set.
  bool Lookup(std::unordered_set<std::uint64_t>& pages,
              std::uint64_t& last_learned, std::uint64_t addr);

  std::unordered_set<std::uint64_t> ipages_;
  std::unordered_set<std::uint64_t> dpages_;
  std::uint64_t last_ipage_ = ~0ULL;  // no page index is ~0
  std::uint64_t last_dpage_ = ~0ULL;
  bool learning_ = true;
};

}  // namespace tfsim
