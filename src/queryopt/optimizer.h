// Left-deep join-order enumeration with a PIER-style data-transfer cost
// model.
//
// In a DHT query engine every binary (symmetric hash) join rehashes both
// inputs across the network, so the cost of a join step is the byte size
// of both inputs; the cost of a plan is the sum over its join steps. The
// optimizer enumerates all left-deep orders (exact for the 3-4 relation
// queries of the evaluation) and ranks them by estimated transfer.

#ifndef DHS_QUERYOPT_OPTIMIZER_H_
#define DHS_QUERYOPT_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "queryopt/join_graph.h"

namespace dhs {

/// One evaluated left-deep plan.
struct JoinPlan {
  std::vector<int> order;       // permutation of relation indices
  double result_tuples = 0.0;   // estimated final result size
  double transfer_bytes = 0.0;  // total shipped bytes under the cost model

  std::string OrderString(const JoinQuery& query) const;
};

/// Enumerates left-deep plans for a JoinQuery.
class JoinOptimizer {
 public:
  /// The query must outlive the optimizer and have aligned specs.
  explicit JoinOptimizer(const JoinQuery* query);

  /// Evaluates one explicit order (size must equal NumRelations()).
  [[nodiscard]] StatusOr<JoinPlan> Evaluate(const std::vector<int>& order) const;

  /// Cheapest left-deep plan (exhaustive enumeration).
  [[nodiscard]] StatusOr<JoinPlan> Best() const;

  /// Most expensive left-deep plan — the "pessimal optimizer" bound.
  [[nodiscard]] StatusOr<JoinPlan> Worst() const;

  /// Average transfer over all left-deep orders — a model of an
  /// optimizer-less engine that picks an arbitrary order.
  [[nodiscard]] StatusOr<double> AverageTransfer() const;

 private:
  template <typename Select>
  [[nodiscard]] StatusOr<JoinPlan> Extremal(Select&& better) const;

  const JoinQuery* query_;
};

}  // namespace dhs

#endif  // DHS_QUERYOPT_OPTIMIZER_H_
