// Seeded input shapes shared by the workloads. Node constants are rendered
// "n<i>", people "p<i>", products "item<i>".
#ifndef DIREBENCH_INPUTS_H_
#define DIREBENCH_INPUTS_H_

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace direbench {

using Edge = std::pair<int, int>;

// m distinct directed edges without self loops over n nodes, sorted.
std::vector<Edge> RandomGraph(Gen* gen, int n, int m);

// Paper Example 1.2 data: `likes_per_person` distinct products per person
// (pairs person, product) and round(trendy_fraction * people) distinct
// trendy people.
struct ConsumerData {
  std::vector<std::pair<int, int>> likes;
  std::vector<int> trendy;
};
ConsumerData MakeConsumer(Gen* gen, int people, int products,
                          int likes_per_person, double trendy_fraction);

std::string Node(int i);
std::string Person(int i);
std::string Item(int i);

// "pred(a, b)." for a ground fact.
std::string FactLine(const std::string& pred,
                     const std::vector<std::string>& values);

}  // namespace direbench

#endif  // DIREBENCH_INPUTS_H_
