// pbcalibrate: the benchmark's calibration job.
//
// A fixed, memory-bound job (string interning in a hash map, bucketed
// hash-join probes; ~90 ms of CPU and ~20 MB on a 2.1 GHz Xeon) that
// prints a checksum. `run.py` times it beside the one-shot ops to express
// their CPU time in units of this job, which slows down with the host's
// other tenants just as they do.
//
// It is its own executable on purpose: it links no xmlprop library and is
// compiled with flags of its own (perfbench/CMakeLists.txt), so no change
// to the program's build, its compile options or its allocator can speed
// it up along with the program and cancel the gain out of the ratio.

#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

int main() {
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::string> strs;
  strs.reserve(120000);
  for (int i = 0; i < 120000; ++i) {
    strs.push_back("value-" + std::to_string(next() % 40000) +
                   "-xxxxxxxxxxxxxxxx");
  }
  std::unordered_map<std::string, uint32_t> intern;
  std::vector<uint32_t> ids(strs.size());
  for (size_t i = 0; i < strs.size(); ++i) {
    ids[i] = intern.emplace(strs[i], intern.size()).first->second;
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  for (size_t i = 0; i < ids.size(); ++i) {
    buckets[(uint64_t{ids[i]} * 2654435761u) % 60000].push_back(i);
  }
  uint64_t sum = intern.size();
  for (int i = 0; i < 400000; ++i) {
    auto it = buckets.find(next() % 60000);
    if (it != buckets.end()) sum += it->second.size();
  }
  std::cout << sum << "\n";
  return 0;
}
