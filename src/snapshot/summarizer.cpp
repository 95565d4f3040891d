#include "src/snapshot/summarizer.h"

#include <algorithm>

namespace adgc {

void finalize_summary(SummarizedGraph& out) {
  for (auto& [ref, scion] : out.scions) {
    auto& v = scion.stubs_from;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  // Invert StubsFrom into ScionsTo.
  for (auto& [ref, stub] : out.stubs) stub.scions_to.clear();
  for (const auto& [sref, scion] : out.scions) {
    for (RefId stub_ref : scion.stubs_from) {
      auto it = out.stubs.find(stub_ref);
      if (it != out.stubs.end()) it->second.scions_to.push_back(sref);
    }
  }
  for (auto& [ref, stub] : out.stubs) {
    auto& v = stub.scions_to;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
}

}  // namespace adgc
