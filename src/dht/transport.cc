#include "dht/transport.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "dht/store.h"
#include "dht/wire.h"

namespace dhs {

namespace {

// Absolute expiry of a delivered put: relative TTLs are anchored at the
// delivery tick (the historical client computed expires right after the
// routing lookup succeeded — same instant), saturating instead of
// wrapping for adversarially large TTLs.
uint64_t PutExpiry(const PutFrame& put, uint64_t now) {
  if (put.absolute_expiry || put.expiry == kNoExpiry) return put.expiry;
  return put.expiry > kNoExpiry - now ? kNoExpiry : now + put.expiry;
}

// Extra ReplicaCandidates requested beyond the copies still needed, so
// a crashed or unreachable candidate can be skipped without running the
// list dry.
constexpr int kReplicaSlack = 2;

/// Records a retry instant inside the enclosing span (no-op when
/// tracing is off).
void TraceRetry(const DhtNetwork& network, const char* what, int attempt) {
  Tracer* tracer = network.tracer();
  if (tracer == nullptr) return;
  tracer->Instant("retry", {TraceArg::Str("what", what),
                            TraceArg::I64("attempt", attempt)});
}

StatusOr<std::string> ServePut(DhtNetwork& network, uint64_t node,
                               const PutFrame& put) {
  NodeStore* store = network.StoreAt(node);
  NodeLoad* load = network.LoadAt(node);
  CHECK(store != nullptr && load != nullptr)
      << "holder " << node << " vanished mid-insert";
  load->stores += 1;
  const uint64_t expires = PutExpiry(put, network.now());
  for (const StoreKey& key : put.keys) {
    store->Put(put.dst_key, key, expires);
  }
  AckFrame ack;
  ack.code = static_cast<uint8_t>(StatusCode::kOk);
  ack.node = node;
  return EncodeAck(ack);
}

StatusOr<std::string> ServeMetricQuery(DhtNetwork& network, uint64_t node,
                                       const MetricQueryFrame& query) {
  NodeStore* store = network.StoreAt(node);
  if (store == nullptr) {
    // The node is gone; nothing is charged (the historical probe read
    // returned empty-handed for free in this case).
    return Status::NotFound("metric query holder is gone");
  }
  NodeLoad* load = network.LoadAt(node);
  if (load != nullptr) load->probes += 1;
  VectorResponseFrame response;
  response.metric_id = query.metric_id;
  store->ForEachDhs(query.metric_id, query.bit, network.now(),
                    [&response](const StoreKey& key, const StoreRecord&) {
                      response.vector_ids.push_back(key.vector_id());
                    });
  std::string encoded = EncodeVectorResponse(response);
  // The §5.1 probe-response charge: 8 + 2v, once per exchange.
  network.ChargeBytes(VectorResponsePayloadBytes(response.vector_ids.size()));
  return encoded;
}

}  // namespace

StatusOr<std::string> ServeFrame(DhtNetwork& network, uint64_t node,
                                 std::string_view frame) {
  auto view = ParseFrame(frame);
  if (!view.ok()) return view.status();
  switch (view->type) {
    case FrameType::kProbeOpen: {
      // Opening a walk has no server-side effect: the per-metric reads
      // are separate kMetricQuery exchanges.
      auto open = DecodeProbeOpen(frame);
      if (!open.ok()) return open.status();
      AckFrame ack;
      ack.code = static_cast<uint8_t>(StatusCode::kOk);
      ack.node = node;
      return EncodeAck(ack);
    }
    case FrameType::kMetricQuery: {
      auto query = DecodeMetricQuery(frame);
      if (!query.ok()) return query.status();
      return ServeMetricQuery(network, node, *query);
    }
    case FrameType::kPut: {
      auto put = DecodePut(frame);
      if (!put.ok()) return put.status();
      return ServePut(network, node, *put);
    }
    case FrameType::kVectorResponse:
    case FrameType::kAck:
      return Status::InvalidArgument(std::string("wire: ") +
                                     FrameTypeName(view->type) +
                                     " is a reply frame and cannot be served");
  }
  return Status::InvalidArgument("wire: unknown frame type");
}

void SimTransport::Tap(std::string_view frame, size_t charged, int hops,
                       bool delivered) {
  if (!tap_ && network_->metrics() == nullptr) return;
  auto view = ParseFrame(frame);
  if (!view.ok()) return;
  if (network_->metrics() != wire_registry_) {
    wire_registry_ = network_->metrics();
    wire_metrics_.Attach(wire_registry_, name());
  }
  auto accounted = AccountedPayloadBytes(frame);
  wire_metrics_.Record(FrameTypeName(view->type), frame.size(),
                       accounted.ok() ? *accounted : 0);
  if (!tap_) return;
  FrameTapEvent event;
  event.type = view->type;
  event.wire_bytes = frame.size();
  event.charged_bytes = charged;
  event.hops = hops;
  event.delivered = delivered;
  tap_(event);
}

StatusOr<Transport::Delivery> SimTransport::Route(uint64_t origin_node,
                                                  const std::string& frame) {
  auto dst = RoutedDstKey(frame);
  if (!dst.ok()) return dst.status();
  auto accounted = AccountedPayloadBytes(frame);
  if (!accounted.ok()) return accounted.status();
  auto lookup = network_->Lookup(origin_node, *dst, *accounted);
  if (!lookup.ok()) {
    // Faulted route: one message charged, no hops, no bytes (the frame
    // never arrived anywhere).
    Tap(frame, 0, 0, false);
    return lookup.status();
  }
  auto response = ServeFrame(*network_, lookup->node, frame);
  if (!response.ok()) return response.status();
  Tap(frame, *accounted * static_cast<size_t>(lookup->hops), lookup->hops,
      true);
  Tap(*response, 0, 0, true);
  Delivery delivery;
  delivery.node = lookup->node;
  delivery.hops = lookup->hops;
  delivery.response = std::move(*response);
  return delivery;
}

StatusOr<Transport::Delivery> SimTransport::Send(uint64_t from_node,
                                                 uint64_t to_node,
                                                 const std::string& frame) {
  auto accounted = AccountedPayloadBytes(frame);
  if (!accounted.ok()) return accounted.status();
  Status hop = network_->DirectHop(from_node, to_node, *accounted);
  if (!hop.ok()) {
    Tap(frame, 0, 0, false);
    return hop;
  }
  auto response = ServeFrame(*network_, to_node, frame);
  if (!response.ok()) return response.status();
  const bool crossed = from_node != to_node;
  Tap(frame, crossed ? *accounted : 0, crossed ? 1 : 0, true);
  Tap(*response, 0, 0, true);
  Delivery delivery;
  delivery.node = to_node;
  delivery.hops = crossed ? 1 : 0;
  delivery.response = std::move(*response);
  return delivery;
}

StatusOr<std::string> SimTransport::Query(uint64_t node,
                                          const std::string& frame) {
  auto response = ServeFrame(*network_, node, frame);
  if (!response.ok()) {
    Tap(frame, 0, 0, false);
    return response.status();
  }
  auto accounted = AccountedPayloadBytes(*response);
  if (!accounted.ok()) return accounted.status();
  Tap(frame, 0, 0, true);
  // The response-side charge happened in ServeFrame; the tap attributes
  // it to the response frame so charged sums reconcile per frame.
  Tap(*response, *accounted, 0, true);
  return response;
}

StatusOr<Transport::Delivery> RouteFrameWithRetry(
    const FrameSender& via, uint64_t origin_node, const std::string& frame,
    size_t accounted_bytes, DhsCostReport* cost) {
  for (int attempt = 0;; ++attempt) {
    auto delivery = via.transport->Route(origin_node, frame);
    if (delivery.ok()) {
      cost->dht_lookups += 1;
      cost->hops += delivery->hops;
      cost->bytes += accounted_bytes * static_cast<size_t>(delivery->hops);
      return delivery;
    }
    if (!IsTransientFault(delivery.status())) return delivery.status();
    cost->dht_lookups += 1;  // issued and charged, then lost in flight
    if (attempt + 1 >= via.attempts) return delivery.status();
    cost->retries += 1;
    TraceRetry(*via.network, "lookup", attempt + 1);
  }
}

StatusOr<Transport::Delivery> SendFrameWithRetry(
    const FrameSender& via, uint64_t from_node, uint64_t to_node,
    const std::string& frame, size_t accounted_bytes, DhsCostReport* cost) {
  for (int attempt = 0;; ++attempt) {
    auto delivery = via.transport->Send(from_node, to_node, frame);
    if (delivery.ok()) {
      cost->direct_probes += 1;
      if (from_node != to_node) {
        cost->hops += 1;
        cost->bytes += accounted_bytes;
      }
      return delivery;
    }
    if (!IsTransientFault(delivery.status())) return delivery.status();
    cost->direct_probes += 1;  // issued and charged, then lost in flight
    if (attempt + 1 >= via.attempts) return delivery.status();
    cost->retries += 1;
    TraceRetry(*via.network, "direct_hop", attempt + 1);
  }
}

Status PutWithReplicas(const FrameSender& via, uint64_t origin_node,
                       PutFrame put, const IdInterval& interval,
                       int replication, DhsCostReport* cost) {
  const std::string frame = EncodePut(put);
  const size_t payload = PutPayloadBytes(put.keys.size());

  cost->replicas_requested += replication;
  // The primary write is durable once the routed frame reached the
  // responsible node (the transport applied it on delivery); replica
  // failures below degrade, never error.
  auto delivery = RouteFrameWithRetry(via, origin_node, frame, payload, cost);
  if (!delivery.ok()) return delivery.status();
  cost->replicas_written += 1;

  int extra_needed = replication - 1;
  if (extra_needed <= 0) return Status::OK();

  put.expiry = PutExpiry(put, via.network->now());
  put.absolute_expiry = true;
  const std::string replica_frame = EncodePut(put);

  // §3.5 replication, geometry-aware: the extra copies go to the nodes
  // the counting walk probes after the primary (ReplicaCandidates
  // shares its ordering with ProbeCandidates), falling through
  // candidates that cannot be reached.
  const uint64_t primary = delivery->node;
  const std::vector<uint64_t> replicas = via.network->ReplicaCandidates(
      interval, put.dst_key, primary, extra_needed + kReplicaSlack);
  for (uint64_t replica : replicas) {
    auto hop = SendFrameWithRetry(via, primary, replica, replica_frame,
                                  payload, cost);
    if (!hop.ok()) {
      if (hop.status().IsInvalidArgument() ||
          IsTransientFault(hop.status())) {
        cost->failed_probes += 1;
        continue;
      }
      return hop.status();
    }
    cost->replicas_written += 1;
    if (--extra_needed == 0) break;
  }
  return Status::OK();
}

}  // namespace dhs
