#include "host/traffic_generator.h"

#include <algorithm>

#include "util/logging.h"

namespace lumina {

TrafficGenerator::TrafficGenerator(Simulator* sim, std::vector<Rnic*> nics,
                                   std::vector<HostConfig> host_cfgs,
                                   std::vector<ConnectionSpec> connections,
                                   TrafficConfig traffic, EtsConfig ets,
                                   std::uint64_t seed)
    : sim_(sim),
      nics_(std::move(nics)),
      host_cfgs_(std::move(host_cfgs)),
      conn_specs_(std::move(connections)),
      traffic_(std::move(traffic)),
      ets_(std::move(ets)),
      rng_(seed) {}

void TrafficGenerator::setup() {
  const int n = num_connections();
  metrics_.resize(static_cast<std::size_t>(n));
  posted_.assign(static_cast<std::size_t>(n), 0);
  completed_.assign(static_cast<std::size_t>(n), 0);
  flows_remaining_ = n;

  if (!ets_.tc_weights.empty()) {
    for (Rnic* nic : nics_) nic->configure_ets(ets_.tc_weights);
  }

  for (int i = 0; i < n; ++i) {
    const ConnectionSpec& spec = conn_specs_[static_cast<std::size_t>(i)];
    Rnic* req_nic = nics_[static_cast<std::size_t>(spec.src_host)];
    Rnic* resp_nic = nics_[static_cast<std::size_t>(spec.dst_host)];
    const HostConfig& req_cfg =
        host_cfgs_[static_cast<std::size_t>(spec.src_host)];
    const HostConfig& resp_cfg =
        host_cfgs_[static_cast<std::size_t>(spec.dst_host)];
    QpConfig qc;
    qc.mtu = traffic_.mtu;
    qc.timeout = traffic_.min_retransmit_timeout;
    qc.retry_cnt = traffic_.max_retransmit_retry;
    const int tc = static_cast<std::size_t>(i) < ets_.tc_of_qp.size()
                       ? ets_.tc_of_qp[static_cast<std::size_t>(i)]
                       : 0;
    qc.traffic_class = tc;

    QpConfig req_qc = qc;
    req_qc.adaptive_retrans = req_cfg.roce.adaptive_retrans;
    QpConfig resp_qc = qc;
    resp_qc.adaptive_retrans = resp_cfg.roce.adaptive_retrans;

    QueuePair* req_qp = req_nic->create_qp(req_qc);
    QueuePair* resp_qp = resp_nic->create_qp(resp_qc);

    // GID (IPv4) selection: with multi-gid each connection emulates traffic
    // from a distinct host address (§5, traffic generator capability).
    const auto pick_ip = [this, i](const std::vector<Ipv4Address>& list,
                                   std::uint8_t fallback_octet) {
      if (list.empty()) {
        return Ipv4Address::from_octets(10, 0, 0, fallback_octet);
      }
      const std::size_t idx =
          traffic_.multi_gid ? static_cast<std::size_t>(i) % list.size() : 0;
      return list[idx];
    };

    ConnectionMetadata meta;
    meta.src_host = spec.src_host;
    meta.dst_host = spec.dst_host;
    meta.requester.ip = pick_ip(
        req_cfg.ip_list, static_cast<std::uint8_t>(spec.src_host + 1));
    meta.requester.qpn = req_qp->qpn();
    meta.requester.ipsn =
        static_cast<std::uint32_t>(rng_.next_below(1u << 22)) + 1;
    meta.requester.buffer_addr = 0x100000ULL * (static_cast<std::uint64_t>(i) + 1);
    meta.requester.rkey = 0x1000u + static_cast<std::uint32_t>(i);
    meta.responder.ip = pick_ip(
        resp_cfg.ip_list, static_cast<std::uint8_t>(spec.dst_host + 1));
    meta.responder.qpn = resp_qp->qpn();
    meta.responder.ipsn =
        static_cast<std::uint32_t>(rng_.next_below(1u << 22)) + 1;
    meta.responder.buffer_addr =
        0x40000000ULL + 0x100000ULL * (static_cast<std::uint64_t>(i) + 1);
    meta.responder.rkey = 0x2000u + static_cast<std::uint32_t>(i);

    // Out-of-band metadata exchange (the real tool uses a TCP connection).
    req_qp->connect(meta.requester, meta.responder);
    resp_qp->connect(meta.responder, meta.requester);

    req_qp->set_completion_callback(
        [this, i](const WorkCompletion& wc) { on_completion(i, wc); });

    if (traffic_.verb == RdmaVerb::kSendRecv ||
        traffic_.secondary_verb == RdmaVerb::kSendRecv) {
      for (int m = 0; m < traffic_.num_msgs_per_qp; ++m) {
        resp_qp->post_recv(static_cast<std::uint64_t>(m));
      }
    }

    metrics_[static_cast<std::size_t>(i)].message_size = traffic_.message_size;
    req_qps_.push_back(req_qp);
    resp_qps_.push_back(resp_qp);
    connections_.push_back(meta);
  }
}

void TrafficGenerator::start() {
  started_ = true;
  barrier_round_ = 0;
  post_burst_all();
}

void TrafficGenerator::post_burst_all() {
  // One tx_depth-deep burst on every connection.
  const int burst = std::max(1, traffic_.tx_depth);
  for (int i = 0; i < num_connections(); ++i) {
    for (int k = 0; k < burst; ++k) post_next(i);
  }
}

void TrafficGenerator::post_next(int connection) {
  const auto c = static_cast<std::size_t>(connection);
  FlowMetrics& fm = metrics_[c];
  if (fm.aborted || posted_[c] >= traffic_.num_msgs_per_qp) return;
  const int in_flight = posted_[c] - completed_[c];
  if (in_flight >= std::max(1, traffic_.tx_depth)) return;

  const int msg = posted_[c]++;
  WorkRequest wr;
  wr.wr_id = static_cast<std::uint64_t>(msg);
  // Verb combinations (§3.2): odd messages use the secondary verb.
  wr.verb = (msg % 2 == 1 && traffic_.secondary_verb)
                ? *traffic_.secondary_verb
                : traffic_.verb;
  wr.length = traffic_.message_size;
  wr.remote_addr = connections_[c].responder.buffer_addr;
  wr.rkey = connections_[c].responder.rkey;
  if (wr.verb == RdmaVerb::kFetchAdd) {
    wr.length = 8;
    wr.compare_add = 1;  // each message atomically increments the counter
  } else if (wr.verb == RdmaVerb::kCmpSwap) {
    wr.length = 8;
    wr.compare_add = static_cast<std::uint64_t>(msg);      // expected value
    wr.swap = static_cast<std::uint64_t>(msg) + 1;         // next value
  }

  const Tick now = sim_->now();
  if (fm.messages.empty() && fm.first_post == 0) fm.first_post = now;
  MessageRecord rec;
  rec.msg_index = msg;
  rec.posted_at = now;
  rec.completed_at = -1;
  fm.messages.push_back(rec);

  req_qps_[c]->post_send(wr);
}

void TrafficGenerator::attach_telemetry(telemetry::Telemetry* t) {
  if (t == nullptr || t->metrics == nullptr) {
    trace_ = nullptr;
    m_msgs_completed_ = nullptr;
    m_msgs_failed_ = nullptr;
    m_msg_completion_ = nullptr;
    return;
  }
  trace_ = t->trace;
  m_msgs_completed_ = &t->metrics->counter("host.msgs_completed");
  m_msgs_failed_ = &t->metrics->counter("host.msgs_failed");
  // Message completion times span ~10 us (clean run, small message) to
  // whole seconds when retransmission timeouts pile up.
  m_msg_completion_ = &t->metrics->histogram(
      "host.msg_completion_ns",
      telemetry::BucketBounds::exponential(10000, 2.0, 20));
}

void TrafficGenerator::on_completion(int connection, const WorkCompletion& wc) {
  const auto c = static_cast<std::size_t>(connection);
  FlowMetrics& fm = metrics_[c];
  if (fm.aborted) return;

  const auto msg = static_cast<std::size_t>(wc.wr_id);
  for (auto& rec : fm.messages) {
    if (static_cast<std::size_t>(rec.msg_index) == msg &&
        rec.completed_at < 0) {
      rec.completed_at = wc.completed_at;
      rec.status = wc.status;
      if (wc.status == WcStatus::kSuccess) {
        telemetry::inc(m_msgs_completed_);
        telemetry::observe(m_msg_completion_, rec.completion_time());
        telemetry::trace_complete(trace_, "host", "msg", rec.posted_at,
                                  rec.completion_time(), telemetry::kTrackHost,
                                  connection);
      } else {
        telemetry::inc(m_msgs_failed_);
      }
      break;
    }
  }
  ++completed_[c];
  fm.last_completion = wc.completed_at;

  if (wc.status != WcStatus::kSuccess) {
    // The flow's QP is in error: stop posting (perftest-like abort).
    fm.aborted = true;
    --flows_remaining_;
    if (traffic_.barrier_sync) maybe_advance_barrier();
    return;
  }
  if (completed_[c] >= traffic_.num_msgs_per_qp) {
    --flows_remaining_;
    if (traffic_.barrier_sync) maybe_advance_barrier();
    return;
  }
  if (traffic_.barrier_sync) {
    maybe_advance_barrier();
  } else {
    post_next(connection);
  }
}

void TrafficGenerator::maybe_advance_barrier() {
  // Barrier semantics (§3.2): the next round of requests is posted only
  // after completions of the current round arrive on ALL (live) QPs.
  const int burst = std::max(1, traffic_.tx_depth);
  const int target = std::min((barrier_round_ + 1) * burst,
                              traffic_.num_msgs_per_qp);
  for (int i = 0; i < num_connections(); ++i) {
    const auto c = static_cast<std::size_t>(i);
    if (metrics_[c].aborted) continue;
    if (completed_[c] < std::min(target, traffic_.num_msgs_per_qp)) return;
  }
  ++barrier_round_;
  post_burst_all();
}

double TrafficGenerator::avg_mct_us(const std::vector<int>& conns) const {
  double sum = 0;
  int count = 0;
  const auto add = [&](int i) {
    const FlowMetrics& fm = metrics_[static_cast<std::size_t>(i)];
    if (fm.messages.empty()) return;
    sum += fm.avg_mct_us();
    ++count;
  };
  if (conns.empty()) {
    for (int i = 0; i < num_connections(); ++i) add(i);
  } else {
    for (const int i : conns) add(i);
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace lumina
