#include "inputs.h"

#include <set>

namespace direbench {

std::vector<Edge> RandomGraph(Gen* gen, int n, int m) {
  std::set<Edge> edges;
  while (static_cast<int>(edges.size()) < m) {
    int a = static_cast<int>(gen->Below(static_cast<uint64_t>(n)));
    int b = static_cast<int>(gen->Below(static_cast<uint64_t>(n)));
    if (a != b) edges.emplace(a, b);
  }
  return {edges.begin(), edges.end()};
}

ConsumerData MakeConsumer(Gen* gen, int people, int products,
                          int likes_per_person, double trendy_fraction) {
  ConsumerData data;
  for (int p = 0; p < people; ++p) {
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < likes_per_person) {
      chosen.insert(static_cast<int>(gen->Below(static_cast<uint64_t>(products))));
    }
    for (int item : chosen) data.likes.emplace_back(p, item);
  }
  // Exactly this many trendy people, so the size of `buys` (and what a
  // toggle of it costs) does not vary with the seed.
  std::set<int> trendy;
  const size_t want = static_cast<size_t>(trendy_fraction * people + 0.5);
  while (trendy.size() < want) {
    trendy.insert(static_cast<int>(gen->Below(static_cast<uint64_t>(people))));
  }
  data.trendy.assign(trendy.begin(), trendy.end());
  return data;
}

std::string Node(int i) { return "n" + std::to_string(i); }
std::string Person(int i) { return "p" + std::to_string(i); }
std::string Item(int i) { return "item" + std::to_string(i); }

std::string FactLine(const std::string& pred,
                     const std::vector<std::string>& values) {
  std::string line = pred + "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) line += ", ";
    line += values[i];
  }
  return line + ").";
}

}  // namespace direbench
