#include "queryopt/optimizer.h"

#include <algorithm>
#include <numeric>
#include "common/check.h"

namespace dhs {

std::string JoinPlan::OrderString(const JoinQuery& query) const {
  std::string out;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += " ⋈ ";
    out += query.inputs[static_cast<size_t>(order[i])].name;
  }
  return out;
}

JoinOptimizer::JoinOptimizer(const JoinQuery* query) : query_(query) {
  CHECK(query != nullptr);
  CHECK(query->SpecsAligned()) << "query relations have misaligned specs";
}

StatusOr<JoinPlan> JoinOptimizer::Evaluate(
    const std::vector<int>& order) const {
  const size_t n = query_->NumRelations();
  if (order.size() != n) {
    return Status::InvalidArgument("order size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (int idx : order) {
    if (idx < 0 || static_cast<size_t>(idx) >= n || seen[idx]) {
      return Status::InvalidArgument("order is not a permutation");
    }
    seen[idx] = true;
  }
  if (n == 0) return JoinPlan{};

  JoinPlan plan;
  plan.order = order;

  // Fold the left-deep pipeline: at each step ship both inputs, then
  // compose the per-bucket histograms into the intermediate result.
  const JoinInput& first = query_->inputs[static_cast<size_t>(order[0])];
  AttributeStats current = first.stats;
  double current_tuple_bytes = static_cast<double>(first.tuple_bytes);

  for (size_t step = 1; step < n; ++step) {
    const JoinInput& right = query_->inputs[static_cast<size_t>(order[step])];
    const double left_bytes =
        current.TotalCardinality() * current_tuple_bytes;
    plan.transfer_bytes += left_bytes + right.TotalBytes();
    current = ComposeJoin(current, right.stats);
    current_tuple_bytes += static_cast<double>(right.tuple_bytes);
  }
  plan.result_tuples = current.TotalCardinality();
  return plan;
}

template <typename Select>
StatusOr<JoinPlan> JoinOptimizer::Extremal(Select&& better) const {
  const size_t n = query_->NumRelations();
  if (n == 0) return Status::FailedPrecondition("empty query");
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  bool have_best = false;
  JoinPlan best;
  do {
    auto plan = Evaluate(order);
    if (!plan.ok()) return plan.status();
    if (!have_best || better(*plan, best)) {
      best = *plan;
      have_best = true;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

StatusOr<JoinPlan> JoinOptimizer::Best() const {
  return Extremal([](const JoinPlan& a, const JoinPlan& b) {
    return a.transfer_bytes < b.transfer_bytes;
  });
}

StatusOr<JoinPlan> JoinOptimizer::Worst() const {
  return Extremal([](const JoinPlan& a, const JoinPlan& b) {
    return a.transfer_bytes > b.transfer_bytes;
  });
}

StatusOr<double> JoinOptimizer::AverageTransfer() const {
  const size_t n = query_->NumRelations();
  if (n == 0) return Status::FailedPrecondition("empty query");
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  double total = 0.0;
  size_t count = 0;
  do {
    auto plan = Evaluate(order);
    if (!plan.ok()) return plan.status();
    total += plan->transfer_bytes;
    ++count;
  } while (std::next_permutation(order.begin(), order.end()));
  return total / static_cast<double>(count);
}

}  // namespace dhs
