#include "baselines/central_counter.h"

namespace dhs {

CentralCounter::CentralCounter(DhtNetwork* network, uint64_t metric_id,
                               Mode mode)
    : network_(network), metric_id_(metric_id), mode_(mode) {}

StatusOr<uint64_t> CentralCounter::CounterNode() const {
  return network_->ResponsibleNode(metric_id_);
}

void CentralCounter::Rehost(uint64_t node) {
  if (!network_->Contains(host_)) {
    tally_ = 0;
    items_.clear();
  }
  host_ = node;
}

Status CentralCounter::Add(uint64_t origin_node, uint64_t item_hash) {
  ScopedSpan span(network_->tracer(), "central_add");
  if (MetricsRegistry* mr = network_->metrics(); mr != nullptr) {
    mr->GetCounter("baseline_ops_total", {{"op", "central_add"}})
        ->Increment();
  }
  const size_t payload = 8;
  auto lookup = network_->Lookup(origin_node, metric_id_, payload);
  if (!lookup.ok()) return lookup.status();
  Rehost(lookup->node);
  network_->LoadAt(lookup->node)->stores += 1;
  if (mode_ == Mode::kExactSet) {
    items_.insert(item_hash);
  } else {
    ++tally_;
  }
  return Status::OK();
}

StatusOr<double> CentralCounter::Read(uint64_t origin_node) {
  ScopedSpan span(network_->tracer(), "central_read");
  if (MetricsRegistry* mr = network_->metrics(); mr != nullptr) {
    mr->GetCounter("baseline_ops_total", {{"op", "central_read"}})
        ->Increment();
  }
  auto lookup = network_->Lookup(origin_node, metric_id_, 8);
  if (!lookup.ok()) return lookup.status();
  Rehost(lookup->node);
  network_->ChargeBytes(8);  // response
  return static_cast<double>(mode_ == Mode::kExactSet ? items_.size()
                                                      : tally_);
}

}  // namespace dhs
