#include "fabric/transfer.hpp"

#include <cmath>

#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

TransferService::TransferService(EventLoop& loop, AuthService& auth,
                                 SimTime latency,
                                 double bandwidth_bytes_per_s)
    : loop_(loop),
      auth_(auth),
      latency_(latency),
      bandwidth_(bandwidth_bytes_per_s) {
  OSPREY_REQUIRE(bandwidth_ > 0.0, "bandwidth must be positive");
}

void TransferService::inject_failures(double rate, std::uint64_t seed) {
  OSPREY_REQUIRE(rate >= 0.0 && rate <= 1.0, "failure rate in [0,1]");
  failure_rate_ = rate;
  failure_state_ = seed | 1;
}

bool TransferService::should_fail_next() {
  if (failure_rate_ <= 0.0) return false;
  // splitmix64 step on the private counter.
  double u = util::uniform01(util::splitmix64_next(failure_state_));
  if (u < failure_rate_) {
    m_injected_->inc();
    return true;
  }
  return false;
}

void TransferService::set_default_timeout(SimTime timeout) {
  OSPREY_REQUIRE(timeout >= 0, "timeout must be non-negative");
  timeout_ = timeout;
}

void TransferService::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_completed_ = &own_completed_;
    m_failed_ = &own_failed_;
    m_injected_ = &own_injected_;
    m_bytes_ = nullptr;
    return;
  }
  m_completed_ = &metrics->counter("fabric_transfers_completed_total",
                                   "transfers whose destination write "
                                   "completed and verified");
  m_failed_ = &metrics->counter("fabric_transfers_failed_total",
                                "transfers that ended in a terminal failure");
  m_injected_ = &metrics->counter(
      "fabric_transfers_injected_failures_total",
      "transfer failures injected by inject_failures()");
  m_bytes_ = &metrics->histogram(
      "fabric_transfer_bytes", {1e3, 1e4, 1e5, 1e6, 1e7, 1e8},
      "payload size per completed transfer (bytes)");
}

void TransferService::finish_obs(const TransferRecord& rec) {
  const bool ok = rec.status == TransferStatus::kSucceeded;
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.completed), ok,
                      rec.error);
  }
  if (ok) {
    m_completed_->inc();
    if (m_bytes_ != nullptr) {
      m_bytes_->observe(static_cast<double>(rec.bytes));
    }
  } else {
    m_failed_->inc();
  }
}

void TransferService::fail_after(TransferId id, SimTime delay,
                                 std::string error, const Callback& on_done) {
  loop_.schedule_after(delay,
                       [this, id, error = std::move(error), on_done] {
                         TransferRecord& r = records_[id];
                         r.status = TransferStatus::kFailed;
                         r.error = error;
                         r.completed = loop_.now();
                         finish_obs(r);
                         if (on_done) on_done(r);
                       });
}

SimTime TransferService::duration_for(std::uint64_t bytes) const {
  double seconds = static_cast<double>(bytes) / bandwidth_;
  return latency_ + static_cast<SimTime>(
                        std::llround(seconds * osprey::util::kSecond));
}

TransferId TransferService::transfer(
    StorageEndpoint& src, const std::string& src_collection,
    const std::string& src_path, StorageEndpoint& dst,
    const std::string& dst_collection, const std::string& dst_path,
    const std::string& token, Callback on_done) {
  auth_.validate(token, scopes::kTransfer);

  TransferId id = records_.size();
  TransferRecord rec;
  rec.id = id;
  rec.src_endpoint = src.name();
  rec.src_collection = src_collection;
  rec.src_path = src_path;
  rec.dst_endpoint = dst.name();
  rec.dst_collection = dst_collection;
  rec.dst_path = dst_path;
  rec.submitted = loop_.now();

  // Snapshot the source now; the copy materializes at completion time.
  std::string bytes;
  std::string checksum;
  std::string error;
  bool read_ok = true;
  try {
    const StoredObject& obj = src.get(src_collection, src_path, token);
    bytes = obj.bytes;
    checksum = obj.checksum;
  } catch (const osprey::util::Error& e) {
    read_ok = false;
    error = e.what();
  }

  rec.bytes = bytes.size();
  rec.checksum = checksum;
  records_.push_back(rec);
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    records_[id].trace_span = tracer->begin_span(
        obs::Category::kTransfer,
        "transfer:" + rec.src_endpoint + "->" + rec.dst_endpoint,
        obs::sim_ns(rec.submitted), obs::kInheritParent,
        std::to_string(rec.bytes) + " B " + dst_collection + "/" + dst_path);
  }

  if (!read_ok) {
    records_[id].status = TransferStatus::kFailed;
    records_[id].error = error;
    records_[id].completed = loop_.now();
    finish_obs(records_[id]);
    if (on_done) {
      loop_.schedule_after(0, [this, id, on_done] { on_done(records_[id]); });
    }
    return id;
  }

  if (should_fail_next()) {
    // Injected network failure: surfaces after the setup latency, like a
    // dropped connection.
    fail_after(id, latency_, "injected network failure", on_done);
    return id;
  }

  SimTime now = loop_.now();
  if (plan_ != nullptr &&
      plan_->should_inject(FaultKind::kTransferDrop, "transfer", dst.name(),
                           now)) {
    fail_after(id, latency_, "injected network failure", on_done);
    return id;
  }

  SimTime stall = 0;
  if (plan_ != nullptr &&
      plan_->should_inject(FaultKind::kTransferStall, "transfer", dst.name(),
                           now)) {
    stall = plan_->stall_delay;
  }
  SimTime duration = duration_for(rec.bytes) + stall;
  if (timeout_ > 0 && duration > timeout_) {
    // The per-operation timeout converts a stalled transfer into a
    // recoverable failure instead of an indefinitely late completion.
    fail_after(id, timeout_,
               "transfer timed out after " +
                   osprey::util::format_duration(timeout_),
               on_done);
    return id;
  }

  if (plan_ != nullptr &&
      plan_->should_inject(FaultKind::kTransferCorrupt, "transfer",
                           dst.name(), now)) {
    // Flip a bit in flight; the digest check below must catch it.
    if (bytes.empty()) {
      bytes.push_back('\x01');
    } else {
      bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
    }
  }

  loop_.schedule_after(
      duration, [this, id, &dst, dst_collection, dst_path, token,
                 bytes = std::move(bytes), checksum, on_done] {
        TransferRecord& r = records_[id];
        // Verify the digest of what actually arrived BEFORE the
        // destination write: a corrupted payload is rejected, never
        // accepted into storage (the caller re-transfers).
        std::string digest = osprey::crypto::Sha256::hash_hex(bytes);
        if (digest != checksum) {
          r.status = TransferStatus::kFailed;
          r.error = "checksum mismatch: payload corrupted in flight";
          if (plan_ != nullptr) {
            plan_->log().record(loop_.now(), IncidentCategory::kRecovery,
                                "corrupt-payload-rejected", "transfer",
                                r.dst_endpoint,
                                r.dst_collection + "/" + r.dst_path +
                                    " rejected before write");
          }
        } else {
          try {
            dst.put(dst_collection, dst_path, bytes, token);
            r.status = TransferStatus::kSucceeded;
          } catch (const osprey::util::Error& e) {
            r.status = TransferStatus::kFailed;
            r.error = e.what();
          }
        }
        r.completed = loop_.now();
        finish_obs(r);
        OSPREY_LOG_DEBUG("transfer",
                         r.src_endpoint << "/" << r.src_path << " -> "
                                        << r.dst_endpoint << "/" << r.dst_path
                                        << " (" << r.bytes << " B)");
        if (on_done) on_done(r);
      });
  return id;
}

const TransferRecord& TransferService::record(TransferId id) const {
  OSPREY_REQUIRE(id < records_.size(), "unknown transfer id");
  return records_[id];
}

}  // namespace osprey::fabric
