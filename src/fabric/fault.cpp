#include "fabric/fault.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::fabric {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransferDrop: return "transfer-drop";
    case FaultKind::kTransferStall: return "transfer-stall";
    case FaultKind::kTransferCorrupt: return "transfer-corrupt";
    case FaultKind::kComputeKill: return "compute-kill";
    case FaultKind::kEndpointOutage: return "endpoint-outage";
    case FaultKind::kAuthExpiry: return "auth-expiry";
    case FaultKind::kAclRace: return "acl-race";
    case FaultKind::kSourceOutage: return "source-outage";
    case FaultKind::kFlowStall: return "flow-stall";
    case FaultKind::kProcessCrash: return "process-crash";
  }
  return "?";
}

const char* incident_category_name(IncidentCategory category) {
  switch (category) {
    case IncidentCategory::kFault: return "fault";
    case IncidentCategory::kRecovery: return "recovery";
    case IncidentCategory::kDegraded: return "degraded";
  }
  return "?";
}

void IncidentLog::record(SimTime time, IncidentCategory category,
                         std::string kind, std::string component,
                         std::string site, std::string detail) {
  Incident inc;
  inc.time = time;
  inc.category = category;
  inc.kind = std::move(kind);
  inc.component = std::move(component);
  inc.site = std::move(site);
  inc.detail = std::move(detail);
  incidents_.push_back(std::move(inc));
}

std::size_t IncidentLog::count(IncidentCategory category) const {
  std::size_t n = 0;
  for (const Incident& inc : incidents_) {
    if (inc.category == category) ++n;
  }
  return n;
}

std::size_t IncidentLog::count_kind(const std::string& kind) const {
  std::size_t n = 0;
  for (const Incident& inc : incidents_) {
    if (inc.kind == kind) ++n;
  }
  return n;
}

std::string IncidentLog::to_string() const {
  std::string out;
  for (const Incident& inc : incidents_) {
    out += osprey::util::format_sim_time(inc.time);
    out += " [";
    out += incident_category_name(inc.category);
    out += "] ";
    out += inc.kind;
    out += " ";
    out += inc.component;
    out += ":";
    out += inc.site;
    if (!inc.detail.empty()) {
      out += " — ";
      out += inc.detail;
    }
    out += "\n";
  }
  return out;
}

using util::fnv1a;
using util::mix64;

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {
  std::fill(std::begin(kind_rates_), std::end(kind_rates_), 0.0);
}

void FaultPlan::set_rate(FaultKind kind, double rate) {
  OSPREY_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate in [0,1]");
  kind_rates_[static_cast<int>(kind)] = rate;
}

void FaultPlan::set_rate(FaultKind kind, const std::string& site,
                         double rate) {
  OSPREY_REQUIRE(rate >= 0.0 && rate <= 1.0, "fault rate in [0,1]");
  site_rates_[{static_cast<int>(kind), site}] = rate;
}

void FaultPlan::script_nth(FaultKind kind, const std::string& site,
                           std::uint64_t nth) {
  scripted_[{static_cast<int>(kind), site}].insert(nth);
}

void FaultPlan::script_window(FaultKind kind, const std::string& site,
                              SimTime begin, SimTime end) {
  OSPREY_REQUIRE(end > begin, "outage window must have positive length");
  windows_.push_back(Window{kind, site, begin, end, false});
}

FaultPlan FaultPlan::fork(std::uint64_t salt) const {
  FaultPlan out(mix64(seed_ ^ mix64(salt)));
  std::copy(std::begin(kind_rates_), std::end(kind_rates_),
            std::begin(out.kind_rates_));
  out.site_rates_ = site_rates_;
  out.scripted_ = scripted_;
  out.windows_ = windows_;
  for (Window& w : out.windows_) w.reported = false;
  out.active_begin_ = active_begin_;
  out.active_end_ = active_end_;
  out.stall_delay = stall_delay;
  return out;
}

void FaultPlan::set_active_window(SimTime begin, SimTime end) {
  OSPREY_REQUIRE(end > begin, "active window must have positive length");
  active_begin_ = begin;
  active_end_ = end;
}

bool FaultPlan::probabilistic_hit(FaultKind kind, const std::string& site,
                                  std::uint64_t op_index, SimTime now) const {
  if (now < active_begin_) return false;
  if (active_end_ >= 0 && now >= active_end_) return false;
  double rate = kind_rates_[static_cast<int>(kind)];
  auto it = site_rates_.find({static_cast<int>(kind), site});
  if (it != site_rates_.end()) rate = it->second;
  if (rate <= 0.0) return false;
  std::uint64_t bits =
      mix64(seed_ ^ mix64(static_cast<std::uint64_t>(kind) ^
                          mix64(fnv1a(site) ^ mix64(op_index))));
  double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return u < rate;
}

bool FaultPlan::should_inject(FaultKind kind, const std::string& component,
                              const std::string& site, SimTime now) {
  SiteKey key{static_cast<int>(kind), site};
  std::uint64_t op_index = op_counts_[key]++;

  bool scripted = false;
  auto sit = scripted_.find(key);
  if (sit != scripted_.end() && sit->second.count(op_index) > 0) {
    scripted = true;
  }
  if (!scripted && !probabilistic_hit(kind, site, op_index, now)) {
    return false;
  }
  ++injected_[static_cast<int>(kind)];
  log_.record(now, IncidentCategory::kFault, fault_kind_name(kind), component,
              site,
              (scripted ? "scripted op #" : "op #") +
                  std::to_string(op_index));
  return true;
}

bool FaultPlan::in_window(FaultKind kind, const std::string& component,
                          const std::string& site, SimTime now) {
  bool hit = false;
  for (Window& w : windows_) {
    if (w.kind != kind) continue;
    if (!w.site.empty() && w.site != site) continue;
    if (now < w.begin || now >= w.end) continue;
    hit = true;
    if (!w.reported) {
      w.reported = true;
      ++injected_[static_cast<int>(kind)];
      log_.record(now, IncidentCategory::kFault, fault_kind_name(kind),
                  component, site,
                  "window " + osprey::util::format_sim_time(w.begin) + " .. " +
                      osprey::util::format_sim_time(w.end));
    }
  }
  return hit;
}

SimTime FaultPlan::window_end(FaultKind kind, const std::string& site,
                              SimTime now) const {
  SimTime end = now;
  for (const Window& w : windows_) {
    if (w.kind != kind) continue;
    if (!w.site.empty() && w.site != site) continue;
    if (now < w.begin || now >= w.end) continue;
    end = std::max(end, w.end);
  }
  return end;
}

std::uint64_t FaultPlan::injected(FaultKind kind) const {
  return injected_[static_cast<int>(kind)];
}

std::uint64_t FaultPlan::injected_total() const {
  std::uint64_t n = 0;
  for (std::uint64_t k : injected_) n += k;
  return n;
}

}  // namespace osprey::fabric
