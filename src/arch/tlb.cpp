#include "arch/tlb.h"

#include "arch/memory.h"

namespace tfsim {

bool Tlb::Lookup(std::unordered_set<std::uint64_t>& pages,
                 std::uint64_t& last_learned, std::uint64_t addr) {
  const std::uint64_t page = addr / kPageBytes;
  if (learning_) {
    if (page != last_learned) {
      pages.insert(page);
      last_learned = page;
    }
    return true;
  }
  return pages.count(page) != 0;
}

bool Tlb::LookupInsn(std::uint64_t addr) {
  return Lookup(ipages_, last_ipage_, addr);
}
bool Tlb::LookupData(std::uint64_t addr) {
  return Lookup(dpages_, last_dpage_, addr);
}

}  // namespace tfsim
