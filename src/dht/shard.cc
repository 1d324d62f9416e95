#include "dht/shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "dht/wire.h"
#include "obs/trace.h"

namespace dhs {

namespace {

// Decodes an op's wire frame: the executor runs what is on the wire,
// not what the caller typed next to it.
StatusOr<PutFrame> DecodeOpFrame(const ShardOp& op) {
  auto parsed = ParseFrame(op.frame);
  if (!parsed.ok()) return parsed.status();
  if (parsed->type != FrameType::kPut) {
    return Status::InvalidArgument(
        "only kPut frames route through the sharded engine");
  }
  if (op.kind != ShardOp::kPut) {
    return Status::InvalidArgument("kPut frame on a non-put op");
  }
  auto put = DecodePut(op.frame);
  if (!put.ok()) return put.status();
  if (put->absolute_expiry) {
    return Status::InvalidArgument(
        "sharded puts take relative TTLs (the clock is frozen for "
        "the whole batch, so absolute expiries cannot be anchored)");
  }
  return put;
}

}  // namespace

/// One executing op. The routed fields are the op's own, or its
/// decoded frame's; non-routed knobs (interval, replication) have no
/// wire representation and always come from the op.
struct ShardedNetwork::OpRun {
  const ShardOp& op;
  ShardOpOutcome& out;
  uint64_t ordinal;            // position in the derived fault streams
  const FaultConfig* faults;   // null when no plan is active
  uint64_t key;
  size_t payload_bytes;
  uint64_t ttl_ticks;
  std::vector<StoreKey> frame_keys;  // a decoded frame's put keys
  uint32_t fault_pos = 0;      // next draw of this op's fault stream
  Tracer* tracer = nullptr;    // set while the op's span records

  const std::vector<StoreKey>& put_keys() const {
    return op.frame.empty() ? op.put_keys : frame_keys;
  }

  OpRun(const ShardOp& o, ShardOpOutcome& outcome, uint64_t op_ordinal,
        const FaultConfig* fault_config)
      : op(o),
        out(outcome),
        ordinal(op_ordinal),
        faults(fault_config),
        key(o.key),
        payload_bytes(o.payload_bytes),
        ttl_ticks(o.ttl_ticks) {}
};

ShardedNetwork::ShardedNetwork(DhtNetwork* network, int shards)
    : net_(network) {
  CHECK(network != nullptr) << "the executor needs a network";
  CHECK_EQ(shards, 1) << "a world runs on one thread";
}

FaultType ShardedNetwork::NextFault(OpRun& run) {
  if (run.faults == nullptr) return FaultType::kNone;
  return FaultPlan::DecisionFor(*run.faults,
                                OpFaultSeq(run.ordinal, run.fault_pos++));
}

void ShardedNetwork::RecordFault(const OpRun& run, FaultType fault,
                                 uint64_t from, uint64_t target) {
  net_->fault_plan_.RecordApplied(fault);
  if (fault == FaultType::kDrop && net_->m_fault_drops_ != nullptr) {
    net_->m_fault_drops_->Increment();
  }
  if (fault == FaultType::kTimeout && net_->m_fault_timeouts_ != nullptr) {
    net_->m_fault_timeouts_->Increment();
  }
  if (run.tracer != nullptr) {
    run.tracer->Instant("fault",
                        {TraceArg::Str("kind", FaultTypeName(fault)),
                         TraceArg::U64("from", from),
                         TraceArg::U64("target", target)});
  }
}

void ShardedNetwork::RunOp(OpRun& run, size_t origin_idx) {
  ShardOpOutcome& o = run.out;
  const std::vector<uint64_t>& ring = net_->ring_;
  const uint64_t key = net_->space_.Clamp(run.key);
  const uint64_t origin = ring[origin_idx];

  // Lookup attempts. A fault hits the request as issued — one message
  // charged, no hops — and a self-delivered request (origin already
  // responsible) is downgraded to delivery, both exactly as the
  // sequential Lookup/InjectFault pair.
  for (int attempt = 1;; ++attempt) {
    o.delta.messages += 1;
    o.lookups_issued += 1;
    const FaultType f = NextFault(run);
    if (f == FaultType::kNone) break;  // delivered
    auto responsible = net_->ResponsibleNode(key);
    CHECK_OK(responsible) << "responsibility on a non-empty network";
    if (responsible.value() == origin) break;  // self-delivered
    RecordFault(run, f, origin, responsible.value());
    if (attempt >= retry_attempts_) {
      o.status = f == FaultType::kTimeout
                     ? Status::DeadlineExceeded(
                           "message timed out (fault injection)")
                     : Status::Unavailable("message dropped (fault injection)");
      return;
    }
    o.retries += 1;
    if (run.tracer != nullptr) {
      run.tracer->Instant("retry", {TraceArg::Str("what", "lookup"),
                                    TraceArg::I64("attempt", attempt)});
    }
  }

  // Hop toward the responsible node.
  size_t cur = origin_idx;
  int hops = 0;
  for (;; ++hops) {
    if (hops > net_->config_.max_route_hops) {
      o.status = Status::Internal("routing did not converge (cycle?)");
      return;
    }
    const size_t next = net_->NextHopIndex(cur, ring[cur], key);
    if (next == cur) break;
    if (run.tracer != nullptr) {
      run.tracer->Instant("hop", {TraceArg::U64("from", ring[cur]),
                                  TraceArg::U64("to", ring[next])});
    }
    net_->loads_[cur].routed += 1;
    o.delta.hops += 1;
    o.delta.bytes += run.payload_bytes;
    cur = next;
  }
  // Terminal: the responsible node serves the request.
  net_->loads_[cur].served += 1;
  o.node = ring[cur];
  o.lookup_hops = hops;
  if (run.op.kind == ShardOp::kPut) StorePut(run, cur);
}

void ShardedNetwork::StorePut(OpRun& run, size_t primary_idx) {
  const ShardOp& op = run.op;
  ShardOpOutcome& o = run.out;
  const uint64_t key = net_->space_.Clamp(run.key);
  const uint64_t expires =
      run.ttl_ticks == kNoExpiry ? kNoExpiry : net_->now_ + run.ttl_ticks;
  const auto store_at = [&](size_t idx) {
    net_->loads_[idx].stores += 1;
    NodeStore& store = net_->nodes_.at(net_->ring_[idx]);
    for (const StoreKey& app_key : run.put_keys()) {
      store.Put(key, app_key, std::string(), expires);
    }
    o.replicas_written += 1;
  };

  // The primary write is durable once the lookup reached the
  // responsible node (sequential StoreTuple), whose lookup already
  // counted it as served.
  const uint64_t primary = net_->ring_[primary_idx];
  store_at(primary_idx);

  int extra_needed = op.replication - 1;
  if (extra_needed <= 0) return;
  const std::vector<uint64_t> replicas = net_->ReplicaCandidates(
      op.interval, key, primary, extra_needed + op.replica_slack);
  for (uint64_t replica : replicas) {
    bool reached = false;
    for (int attempt = 1;; ++attempt) {
      o.delta.messages += 1;
      o.direct_issued += 1;
      const FaultType f = NextFault(run);
      if (f == FaultType::kNone || replica == primary) {
        reached = true;
        break;
      }
      RecordFault(run, f, primary, replica);
      if (attempt >= retry_attempts_) break;
      o.retries += 1;
      if (run.tracer != nullptr) {
        run.tracer->Instant("retry", {TraceArg::Str("what", "direct_hop"),
                                      TraceArg::I64("attempt", attempt)});
      }
    }
    if (!reached) {
      o.failed_candidates += 1;
      continue;
    }
    if (replica != primary) {
      o.delta.hops += 1;
      o.delta.bytes += run.payload_bytes;
    }
    const size_t idx = net_->RingIndexOf(replica);
    net_->loads_[idx].served += 1;
    store_at(idx);
    if (--extra_needed == 0) break;
  }
}

StatusOr<std::vector<ShardOpOutcome>> ShardedNetwork::ExecuteBatch(
    const std::vector<ShardOp>& ops) {
  const FaultPlan& plan = net_->fault_plan_;
  if (plan.active() && plan.config().crash_probability > 0.0) {
    return Status::InvalidArgument(
        "sharded batches cannot inject crash faults (membership is "
        "frozen during a batch)");
  }
  const FaultConfig* faults = plan.active() ? &plan.config() : nullptr;
  static const char* const kSpanNames[] = {"lookup", "put"};

  std::vector<ShardOpOutcome> out(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const ShardOp& op = ops[i];
    ShardOpOutcome& o = out[i];
    OpRun run(op, o, op_ordinal_ + i, faults);
    if (!op.frame.empty()) {
      auto put = DecodeOpFrame(op);
      if (put.ok()) {
        run.key = put->dst_key;
        run.payload_bytes = PutPayloadBytes(put->keys.size());
        run.ttl_ticks = put->expiry;
        run.frame_keys = std::move(put->keys);
      } else {
        o.status = put.status();
      }
    }

    // One span per op, carrying the op's exact stats delta: the delta
    // is merged into the global counters while the span is open, so
    // the tracer's per-span deltas still sum to the global growth.
    ScopedSpan span(net_->tracer_, kSpanNames[op.kind]);
    if (span.active()) {
      span.Arg(TraceArg::U64("from", net_->space_.Clamp(op.origin)));
      span.Arg(TraceArg::U64("key", net_->space_.Clamp(run.key)));
    }
    run.tracer = span.tracer();
    if (o.status.ok()) {
      const uint64_t origin = net_->space_.Clamp(op.origin);
      auto it = std::lower_bound(net_->ring_.begin(), net_->ring_.end(),
                                 origin);
      if (it == net_->ring_.end() || *it != origin) {
        o.status = Status::InvalidArgument("lookup origin is not a live node");
      } else {
        RunOp(run, static_cast<size_t>(it - net_->ring_.begin()));
      }
    }
    // Only an op whose lookup reached the responsible node is OK.
    const bool reached = o.status.ok();
    if (reached) span.Arg(TraceArg::U64("node", o.node));
    if (net_->m_lookups_ != nullptr) {
      net_->m_lookups_->Increment(static_cast<uint64_t>(o.lookups_issued));
    }
    if (net_->m_direct_hops_ != nullptr) {
      net_->m_direct_hops_->Increment(static_cast<uint64_t>(o.direct_issued));
    }
    net_->stats_ += o.delta;
    if (reached && net_->m_lookup_hops_ != nullptr) {
      net_->m_lookup_hops_->Observe(o.lookup_hops);
    }
  }
  op_ordinal_ += ops.size();
  return out;
}

}  // namespace dhs
