#include "calibrate.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

// Keeps the kernel's result observable, so the compiler cannot drop it.
volatile std::uint64_t g_sink = 0;

}  // namespace

double calibration_kernel_s() {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;  // xorshift64, fixed start
  std::map<std::uint64_t, std::vector<std::uint32_t>> tree;
  std::unordered_map<std::uint64_t, std::string> table;
  for (int i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree[x % 4096].push_back(static_cast<std::uint32_t>(x));
    table[x % 8192] = std::to_string(x);
  }
  std::uint64_t sum = 0;
  for (const auto& [k, v] : tree) {
    for (const std::uint32_t y : v) sum += y ^ k;
  }
  for (const auto& [k, s] : table) sum += s.size() ^ k;
  g_sink = g_sink + sum;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
