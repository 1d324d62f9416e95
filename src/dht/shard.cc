#include "dht/shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "dht/wire.h"
#include "obs/trace.h"

namespace dhs {

namespace {

// Decodes an op's wire frame into its routed fields: the engine
// executes what is on the wire, not what the caller typed next to it.
// Non-routed knobs (interval, replication) have no wire representation
// and stay as given.
Status ApplyFrame(ShardOp& op) {
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
  op.key = put->dst_key;
  op.payload_bytes = PutPayloadBytes(put->keys.size());
  op.put_keys = std::move(put->keys);
  op.ttl_ticks = put->expiry;
  return Status::OK();
}
}  // namespace

/// Trace event recorded while a token executes; replayed on the
/// coordinator in operation order after the walk completes.
struct ShardedNetwork::OpEvent {
  enum Kind : uint8_t { kHop, kFault, kRetry };
  Kind kind;
  FaultType fault = FaultType::kNone;  // kFault
  const char* what = nullptr;          // kRetry: "lookup" / "direct_hop"
  int attempt = 0;                     // kRetry
  uint64_t a = 0;                      // kHop/kFault: from
  uint64_t b = 0;                      // kHop: to; kFault: target

  static OpEvent Hop(uint64_t from, uint64_t to) {
    OpEvent e;
    e.kind = kHop;
    e.a = from;
    e.b = to;
    return e;
  }
  static OpEvent Fault(FaultType fault, uint64_t from, uint64_t target) {
    OpEvent e;
    e.kind = kFault;
    e.fault = fault;
    e.a = from;
    e.b = target;
    return e;
  }
  static OpEvent Retry(const char* what, int attempt) {
    OpEvent e;
    e.kind = kRetry;
    e.what = what;
    e.attempt = attempt;
    return e;
  }
};

/// One operation's routing cursor. Exactly one token exists per
/// op, so the token holder owns the op's outcome and scratch state.
struct ShardedNetwork::Token {
  uint32_t op = 0;
  uint32_t cur_idx = 0;    // ring index the token sits at
  bool routing = false;    // lookup delivered, hopping toward the key
  int attempt = 0;         // lookup attempts already faulted
  int steps = 0;           // routing iterations completed (== hops)
  uint32_t fault_pos = 0;  // next draw of this op's fault stream
};

struct ShardedNetwork::OpState {
  bool done = false;
  bool reached = false;           // lookup delivered and routed
  std::vector<OpEvent> events;
  uint32_t effect_seq = 0;
};

/// A deferred store write: op `op` stores its put_keys at ring index
/// `node_idx` (served = 1 for replica copies, whose direct hop also
/// terminates there). Committed after the walk in (op, seq) order, so
/// the final store state is shard-count-invariant.
struct ShardedNetwork::Effect {
  uint32_t op = 0;
  uint32_t seq = 0;
  uint32_t node_idx = 0;
  uint8_t served = 0;
};

struct ShardedNetwork::BatchCtx {
  const std::vector<ShardOp>* ops = nullptr;
  std::vector<ShardOpOutcome>* out = nullptr;
  std::vector<OpState>* st = nullptr;
  uint64_t ordinal_base = 0;
  bool faults = false;
  FaultConfig fcfg;
  // outbox[src][dst]: tokens worker src emitted toward shard dst this
  // round, in emission order — the (round, source_shard, seq) total
  // order the coordinator merges at the barrier.
  std::vector<std::vector<std::vector<Token>>> outbox;
  std::vector<std::vector<Effect>> effects;  // per source worker
};

ShardedNetwork::ShardedNetwork(DhtNetwork* network, int shards)
    : net_(network), pool_(shards) {
  CHECK(network != nullptr) << "sharded engine needs a network";
  Resync();
}

void ShardedNetwork::Resync() {
  net_->SetShardPlan(pool_.shards());
  dirty_ = false;
}

Status ShardedNetwork::JoinNode(uint64_t node_id) {
  Status s = net_->AddNode(node_id);
  if (s.ok()) dirty_ = true;
  return s;
}

Status ShardedNetwork::LeaveNode(uint64_t node_id) {
  Status s = net_->RemoveNode(node_id);
  if (s.ok()) dirty_ = true;
  return s;
}

Status ShardedNetwork::CrashNode(uint64_t node_id) {
  Status s = net_->FailNode(node_id);
  if (s.ok()) dirty_ = true;
  return s;
}

void ShardedNetwork::AdvanceClock(uint64_t ticks) {
  if (dirty_) Resync();
  net_->now_ += ticks;
  pool_.RunRound([this](int shard) {
    if (net_->shard_expiry_[static_cast<size_t>(shard)] <= net_->now_) {
      net_->ExpireShard(shard);
    }
  });
}

void ShardedNetwork::FinishLookupFailure(BatchCtx& ctx, Token& tok,
                                         FaultType last) {
  ShardOpOutcome& o = (*ctx.out)[tok.op];
  o.status = last == FaultType::kTimeout
                 ? Status::DeadlineExceeded(
                       "message timed out (fault injection)")
                 : Status::Unavailable("message dropped (fault injection)");
  (*ctx.st)[tok.op].done = true;
}

void ShardedNetwork::TerminalPut(BatchCtx& ctx, int shard, Token& tok) {
  const ShardOp& op = (*ctx.ops)[tok.op];
  ShardOpOutcome& o = (*ctx.out)[tok.op];
  OpState& s = (*ctx.st)[tok.op];
  const uint64_t key = net_->space_.Clamp(op.key);
  const size_t primary_idx = tok.cur_idx;
  const uint64_t primary = net_->ring_[primary_idx];

  // The primary write is durable once the lookup reached the
  // responsible node (sequential StoreTuple); its served count came
  // from the lookup terminal, so the effect carries only the store.
  ctx.effects[static_cast<size_t>(shard)].push_back(
      Effect{tok.op, s.effect_seq++, static_cast<uint32_t>(primary_idx), 0});
  o.replicas_written += 1;

  int extra_needed = op.replication - 1;
  if (extra_needed <= 0) return;
  const std::vector<uint64_t> replicas = net_->ReplicaCandidates(
      op.interval, key, primary, extra_needed + op.replica_slack);
  for (uint64_t replica : replicas) {
    bool reached = false;
    for (int attempt = 0;; ++attempt) {
      o.delta.messages += 1;
      o.direct_issued += 1;
      const FaultType f =
          ctx.faults ? FaultPlan::DecisionFor(
                           ctx.fcfg, OpFaultSeq(ctx.ordinal_base + tok.op,
                                                tok.fault_pos++))
                     : FaultType::kNone;
      if (f != FaultType::kNone && replica != primary) {
        s.events.push_back(OpEvent::Fault(f, primary, replica));
        if (attempt + 1 >= retry_attempts_) break;
        o.retries += 1;
        s.events.push_back(OpEvent::Retry("direct_hop", attempt + 1));
        continue;
      }
      reached = true;
      break;
    }
    if (!reached) {
      o.failed_candidates += 1;
      continue;
    }
    if (replica != primary) {
      o.delta.hops += 1;
      o.delta.bytes += op.payload_bytes;
    }
    ctx.effects[static_cast<size_t>(shard)].push_back(
        Effect{tok.op, s.effect_seq++,
               static_cast<uint32_t>(net_->RingIndexOf(replica)), 1});
    o.replicas_written += 1;
    if (--extra_needed == 0) break;
  }
}

void ShardedNetwork::StepToken(BatchCtx& ctx, int shard, Token tok) {
  const ShardOp& op = (*ctx.ops)[tok.op];
  ShardOpOutcome& o = (*ctx.out)[tok.op];
  OpState& s = (*ctx.st)[tok.op];
  const std::vector<uint64_t>& ring = net_->ring_;
  const uint64_t key = net_->space_.Clamp(op.key);

  if (!tok.routing) {
    // Lookup attempts. A fault hits the request as issued — one
    // message charged, no hops — and a self-delivered request (origin
    // already responsible) is downgraded to delivery, both exactly as
    // the sequential Lookup/InjectFault pair.
    const uint64_t origin = ring[tok.cur_idx];
    for (;;) {
      o.delta.messages += 1;
      o.lookups_issued += 1;
      const FaultType f =
          ctx.faults ? FaultPlan::DecisionFor(
                           ctx.fcfg, OpFaultSeq(ctx.ordinal_base + tok.op,
                                                tok.fault_pos++))
                     : FaultType::kNone;
      if (f != FaultType::kNone) {
        auto responsible = net_->ResponsibleNode(key);
        CHECK_OK(responsible) << "responsibility on a non-empty network";
        if (responsible.value() != origin) {
          s.events.push_back(OpEvent::Fault(f, origin, responsible.value()));
          if (tok.attempt + 1 >= retry_attempts_) {
            FinishLookupFailure(ctx, tok, f);
            return;
          }
          tok.attempt += 1;
          o.retries += 1;
          s.events.push_back(OpEvent::Retry("lookup", tok.attempt));
          continue;
        }
      }
      break;  // delivered
    }
    tok.routing = true;
  }

  // Hop toward the responsible node, leaving the shard whenever the
  // next hop belongs to another one.
  for (;;) {
    if (tok.steps > net_->config_.max_route_hops) {
      o.status = Status::Internal("routing did not converge (cycle?)");
      s.done = true;
      return;
    }
    const size_t cur = tok.cur_idx;
    const size_t next = net_->NextHopIndex(cur, ring[cur], key);
    if (next == cur) {
      // Terminal: the responsible node serves the request.
      net_->loads_[cur].served += 1;
      o.node = ring[cur];
      o.lookup_hops = tok.steps;
      s.reached = true;
      if (op.kind == ShardOp::kPut) TerminalPut(ctx, shard, tok);
      s.done = true;
      return;
    }
    s.events.push_back(OpEvent::Hop(ring[cur], ring[next]));
    net_->loads_[cur].routed += 1;
    tok.steps += 1;
    o.delta.hops += 1;
    o.delta.bytes += op.payload_bytes;
    tok.cur_idx = static_cast<uint32_t>(next);
    const int owner = net_->shard_plan_.ShardOf(ring[next]);
    if (owner != shard) {
      ctx.outbox[static_cast<size_t>(shard)][static_cast<size_t>(owner)]
          .push_back(tok);
      return;
    }
  }
}

void ShardedNetwork::CommitEffects(BatchCtx& ctx) {
  const int shards = pool_.shards();
  size_t total = 0;
  for (const auto& v : ctx.effects) total += v.size();
  if (total == 0) return;
  std::vector<Effect> all;
  all.reserve(total);
  for (const auto& v : ctx.effects) {
    all.insert(all.end(), v.begin(), v.end());
  }
  // Canonical commit order: (op, seq) is unique per effect, so the
  // resulting store state cannot depend on the shard count.
  std::sort(all.begin(), all.end(), [](const Effect& x, const Effect& y) {
    return x.op != y.op ? x.op < y.op : x.seq < y.seq;
  });
  std::vector<std::vector<Effect>> per_shard(static_cast<size_t>(shards));
  for (const Effect& e : all) {
    per_shard[static_cast<size_t>(
                  net_->shard_plan_.ShardOf(net_->ring_[e.node_idx]))]
        .push_back(e);
  }
  pool_.RunRound([&](int shard) {
    for (const Effect& e : per_shard[static_cast<size_t>(shard)]) {
      const ShardOp& op = (*ctx.ops)[e.op];
      NodeLoad& load = net_->loads_[e.node_idx];
      load.served += e.served;
      load.stores += 1;
      NodeStore& store = net_->nodes_.at(net_->ring_[e.node_idx]);
      const uint64_t expires = op.ttl_ticks == kNoExpiry
                                   ? kNoExpiry
                                   : net_->now_ + op.ttl_ticks;
      for (const StoreKey& app_key : op.put_keys) {
        store.Put(net_->space_.Clamp(op.key), app_key, std::string(),
                  expires);
      }
    }
  });
}

void ShardedNetwork::ReplayObservability(BatchCtx& ctx) {
  Tracer* tracer = net_->tracer_;
  const bool tracing = tracer != nullptr && tracer->enabled();
  static const char* const kSpanNames[] = {"lookup", "put"};
  for (size_t i = 0; i < ctx.ops->size(); ++i) {
    const ShardOp& op = (*ctx.ops)[i];
    ShardOpOutcome& o = (*ctx.out)[i];
    OpState& s = (*ctx.st)[i];
    // One span per op, carrying the op's exact stats delta: the delta
    // is merged into the global counters while the span is open, so
    // the tracer's per-span deltas still sum to the global growth.
    ScopedSpan span(tracer, kSpanNames[op.kind]);
    if (span.active()) {
      span.Arg(TraceArg::U64("from", net_->space_.Clamp(op.origin)));
      span.Arg(TraceArg::U64("key", net_->space_.Clamp(op.key)));
      if (s.reached) span.Arg(TraceArg::U64("node", o.node));
    }
    if (net_->m_lookups_ != nullptr) {
      net_->m_lookups_->Increment(static_cast<uint64_t>(o.lookups_issued));
    }
    if (net_->m_direct_hops_ != nullptr) {
      net_->m_direct_hops_->Increment(
          static_cast<uint64_t>(o.direct_issued));
    }
    for (const OpEvent& e : s.events) {
      switch (e.kind) {
        case OpEvent::kHop:
          if (tracing) {
            tracer->Instant("hop", {TraceArg::U64("from", e.a),
                                    TraceArg::U64("to", e.b)});
          }
          break;
        case OpEvent::kFault:
          net_->fault_plan_.RecordApplied(e.fault);
          if (e.fault == FaultType::kDrop &&
              net_->m_fault_drops_ != nullptr) {
            net_->m_fault_drops_->Increment();
          }
          if (e.fault == FaultType::kTimeout &&
              net_->m_fault_timeouts_ != nullptr) {
            net_->m_fault_timeouts_->Increment();
          }
          if (tracing) {
            tracer->Instant("fault",
                            {TraceArg::Str("kind", FaultTypeName(e.fault)),
                             TraceArg::U64("from", e.a),
                             TraceArg::U64("target", e.b)});
          }
          break;
        case OpEvent::kRetry:
          if (tracing) {
            tracer->Instant("retry", {TraceArg::Str("what", e.what),
                                      TraceArg::I64("attempt", e.attempt)});
          }
          break;
      }
    }
    net_->stats_ += o.delta;
    if (s.reached && net_->m_lookup_hops_ != nullptr) {
      net_->m_lookup_hops_->Observe(o.lookup_hops);
    }
  }
}

StatusOr<std::vector<ShardOpOutcome>> ShardedNetwork::ExecuteBatch(
    const std::vector<ShardOp>& ops) {
  if (dirty_) Resync();
  const bool faults = net_->fault_plan_.active();
  if (faults && net_->fault_plan_.config().crash_probability > 0.0) {
    return Status::InvalidArgument(
        "sharded batches cannot inject crash faults (membership is "
        "frozen during a batch)");
  }
  std::vector<ShardOpOutcome> out(ops.size());
  if (ops.empty()) return out;

  const int shards = pool_.shards();
  std::vector<OpState> st(ops.size());

  // Framed ops (ShardOp::frame) are decoded up front on the
  // coordinator so every worker sees one representation; the copy is
  // only materialized when a frame is actually present. A frame that
  // fails to decode fails its op before any token is seeded.
  std::vector<ShardOp> decoded;
  bool any_frame = false;
  for (const ShardOp& op : ops) {
    if (!op.frame.empty()) {
      any_frame = true;
      break;
    }
  }
  if (any_frame) {
    decoded = ops;
    for (size_t i = 0; i < decoded.size(); ++i) {
      if (decoded[i].frame.empty()) continue;
      Status applied = ApplyFrame(decoded[i]);
      if (!applied.ok()) {
        out[i].status = applied;
        st[i].done = true;
      }
    }
  }
  const std::vector<ShardOp>& batch = any_frame ? decoded : ops;

  BatchCtx ctx;
  ctx.ops = &batch;
  ctx.out = &out;
  ctx.st = &st;
  ctx.ordinal_base = op_ordinal_;
  op_ordinal_ += ops.size();
  ctx.faults = faults;
  ctx.fcfg = net_->fault_plan_.config();
  ctx.outbox.assign(
      static_cast<size_t>(shards),
      std::vector<std::vector<Token>>(static_cast<size_t>(shards)));
  ctx.effects.assign(static_cast<size_t>(shards), {});

  // Seed one token per op at its origin's shard, in op order.
  std::vector<std::vector<Token>> inbox(static_cast<size_t>(shards));
  for (size_t i = 0; i < batch.size(); ++i) {
    if (st[i].done) continue;  // frame decode already failed this op
    const uint64_t origin = net_->space_.Clamp(batch[i].origin);
    auto it =
        std::lower_bound(net_->ring_.begin(), net_->ring_.end(), origin);
    if (it == net_->ring_.end() || *it != origin) {
      out[i].status =
          Status::InvalidArgument("lookup origin is not a live node");
      st[i].done = true;
      continue;
    }
    Token tok;
    tok.op = static_cast<uint32_t>(i);
    tok.cur_idx = static_cast<uint32_t>(it - net_->ring_.begin());
    inbox[static_cast<size_t>(net_->shard_plan_.ShardOf(origin))].push_back(
        tok);
  }

  // BSP rounds: each worker drains its own inbox; departing tokens are
  // redistributed at the barrier in (source_shard, emission_seq) order,
  // so the whole schedule is a pure function of the batch.
  for (;;) {
    pool_.RunRound([this, &ctx, &inbox](int shard) {
      auto& queue = inbox[static_cast<size_t>(shard)];
      for (Token& tok : queue) StepToken(ctx, shard, tok);
      queue.clear();
    });
    bool pending = false;
    for (int src = 0; src < shards; ++src) {
      for (int dst = 0; dst < shards; ++dst) {
        auto& emitted =
            ctx.outbox[static_cast<size_t>(src)][static_cast<size_t>(dst)];
        if (emitted.empty()) continue;
        pending = true;
        auto& queue = inbox[static_cast<size_t>(dst)];
        queue.insert(queue.end(), emitted.begin(), emitted.end());
        emitted.clear();
      }
    }
    if (!pending) break;
  }

  CommitEffects(ctx);
  ReplayObservability(ctx);
  return out;
}

}  // namespace dhs
