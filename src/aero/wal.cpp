#include "aero/wal.hpp"

#include <cstdio>
#include <cstring>

#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace osprey::aero {

namespace {

using osprey::util::Value;
using osprey::util::ValueObject;

constexpr std::size_t kHeaderBytes = 4 + 32;  // u32 length + raw SHA-256

std::string lsn_suffix(std::uint64_t lsn) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(lsn));
  return buf;
}

/// Numeric LSN from a "<dir>/<kind>-<lsn>" path; nullopt for foreign
/// files (e.g. a RealFs ".tmp" left by a crash mid-replace).
std::optional<std::uint64_t> lsn_from_path(const std::string& path) {
  std::size_t dash = path.rfind('-');
  if (dash == std::string::npos) return std::nullopt;
  std::string digits = path.substr(dash + 1);
  if (digits.empty() || digits.size() > 12) return std::nullopt;
  std::uint64_t lsn = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    lsn = lsn * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return lsn;
}

void inc(obs::Counter* c, std::uint64_t delta = 1) {
  if (c != nullptr) c->inc(delta);
}

}  // namespace

std::string encode_record(const std::string& payload) {
  OSPREY_REQUIRE(payload.size() <= 0xffffffffull, "WAL payload too large");
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  osprey::crypto::Sha256 hasher;
  hasher.update(payload);
  std::array<std::uint8_t, 32> digest = hasher.digest();
  out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
  out += payload;
  return out;
}

DecodedRecord decode_record(const std::string& buffer, std::size_t offset) {
  DecodedRecord out;
  if (offset > buffer.size() || buffer.size() - offset < kHeaderBytes) {
    return out;  // kTorn
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buffer[offset + i]))
           << (8 * i);
  }
  if (buffer.size() - offset - kHeaderBytes < len) {
    return out;  // kTorn (or a corrupted length field — indistinguishable)
  }
  osprey::crypto::Sha256 hasher;
  hasher.update(buffer.data() + offset + kHeaderBytes, len);
  std::array<std::uint8_t, 32> digest = hasher.digest();
  if (std::memcmp(digest.data(), buffer.data() + offset + 4, 32) != 0) {
    out.status = DecodeStatus::kCorrupt;
    return out;
  }
  out.status = DecodeStatus::kOk;
  out.payload = buffer.substr(offset + kHeaderBytes, len);
  out.consumed = kHeaderBytes + len;
  return out;
}

Wal::Wal(osprey::util::DurableFs& fs, WalOptions options,
         obs::MetricsRegistry* metrics, obs::TraceRecorder* tracer,
         std::function<std::uint64_t()> now_ns)
    : fs_(fs),
      options_(std::move(options)),
      tracer_(tracer),
      now_ns_(std::move(now_ns)) {
  if (metrics != nullptr) {
    appends_ = &metrics->counter("aero_wal_appends_total",
                                 "WAL records appended");
    fsyncs_ = &metrics->counter("aero_wal_fsyncs_total",
                                "durability barriers issued by the WAL");
    checkpoints_ = &metrics->counter("aero_wal_checkpoints_total",
                                     "checkpoints written");
    replayed_ = &metrics->counter("aero_wal_replayed_records_total",
                                  "WAL records replayed during recovery");
    torn_ = &metrics->counter("aero_wal_torn_records_total",
                              "torn WAL records discarded during recovery");
    corrupt_ = &metrics->counter(
        "aero_wal_corrupt_records_total",
        "checksum-rejected WAL records discarded during recovery");
    recoveries_ = &metrics->counter("aero_wal_recoveries_total",
                                    "recovery passes performed");
  }
}

Wal::~Wal() {
  if (db_ != nullptr) db_->set_wal_hook({});
}

std::string Wal::segment_path(std::uint64_t start_lsn) const {
  return options_.dir + "/wal-" + lsn_suffix(start_lsn);
}

std::string Wal::checkpoint_path(std::uint64_t lsn) const {
  return options_.dir + "/checkpoint-" + lsn_suffix(lsn);
}

RecoveryStats Wal::recover(MetadataDb& db) {
  RecoveryStats stats;
  inc(recoveries_);
  std::uint64_t t0 = now_ns_ ? now_ns_() : 0;

  // Newest valid checkpoint wins; older generations are the fallback
  // when its frame is damaged.
  std::vector<std::string> checkpoints = fs_.list(options_.dir + "/checkpoint-");
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    std::optional<std::string> bytes = fs_.read(*it);
    if (!bytes) continue;
    DecodedRecord frame = decode_record(*bytes, 0);
    if (frame.status != DecodeStatus::kOk) {
      ++stats.corrupt;
      inc(corrupt_);
      continue;
    }
    try {
      Value snapshot = Value::parse_json(frame.payload);
      std::uint64_t lsn = static_cast<std::uint64_t>(
          snapshot.at("checkpoint_lsn").as_int());
      db.load_snapshot(snapshot.at("db"));
      stats.checkpoint_loaded = true;
      stats.checkpoint_lsn = lsn;
      break;
    } catch (const osprey::util::Error&) {
      ++stats.corrupt;
      inc(corrupt_);
    }
  }

  // Replay segments past the checkpoint in LSN order (zero-padded names
  // sort numerically). Stop at the first gap or damaged record: records
  // beyond it cannot be trusted, so the longest valid prefix wins.
  std::uint64_t expect = stats.checkpoint_lsn + 1;
  std::string last_segment;
  bool damaged = false;
  std::vector<std::string> segments = fs_.list(options_.dir + "/wal-");
  for (const std::string& segment : segments) {
    std::optional<std::uint64_t> start = lsn_from_path(segment);
    if (!start || *start <= stats.checkpoint_lsn) continue;
    if (damaged || *start != expect) break;  // gap: stop at the prefix
    std::optional<std::string> bytes = fs_.read(segment);
    if (!bytes) break;
    last_segment = segment;
    std::size_t offset = 0;
    while (offset < bytes->size()) {
      DecodedRecord frame = decode_record(*bytes, offset);
      bool applied = false;
      if (frame.status == DecodeStatus::kOk) {
        try {
          Value record = Value::parse_json(frame.payload);
          std::uint64_t lsn =
              static_cast<std::uint64_t>(record.at("lsn").as_int());
          OSPREY_REQUIRE(lsn == expect, "WAL lsn discontinuity");
          db.apply_replay(record);
          applied = true;
        } catch (const osprey::util::Error&) {
          // Checksum-valid but inconsistent (should not happen without
          // foul play); treat like corruption and keep the prefix.
          frame.status = DecodeStatus::kCorrupt;
        }
      }
      if (!applied) {
        if (frame.status == DecodeStatus::kTorn) {
          ++stats.torn;
          inc(torn_);
        } else {
          ++stats.corrupt;
          inc(corrupt_);
        }
        damaged = true;
        // Truncate-by-rewrite: the valid prefix of this segment becomes
        // the whole segment, so the damage never resurfaces.
        fs_.write(segment, bytes->substr(0, offset));
        break;
      }
      ++expect;
      ++stats.replayed;
      inc(replayed_);
      offset += frame.consumed;
    }
  }
  if (damaged) {
    // Anything after the damage point is unreachable (its LSNs would
    // leave a gap) — drop it so future appends cannot collide.
    for (const std::string& segment : segments) {
      std::optional<std::uint64_t> start = lsn_from_path(segment);
      if (start && *start >= expect) fs_.remove(segment);
    }
    fs_.sync();
    inc(fsyncs_);
  }

  next_lsn_ = expect;
  appends_since_checkpoint_ = expect - 1 - stats.checkpoint_lsn;
  current_segment_ =
      last_segment.empty() ? segment_path(next_lsn_) : last_segment;
  stats.next_lsn = next_lsn_;

  db_ = &db;
  db.set_wal_hook([this](const Value& record) { on_record(record); });

  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    tracer->instant(obs::Category::kAero, "wal:recover", t0, obs::kNoSpan,
                    "checkpoint_lsn=" + std::to_string(stats.checkpoint_lsn) +
                        " replayed=" + std::to_string(stats.replayed) +
                        " torn=" + std::to_string(stats.torn) +
                        " corrupt=" + std::to_string(stats.corrupt));
  }
  return stats;
}

void Wal::on_record(const osprey::util::Value& record) {
  const std::uint64_t lsn = next_lsn_;
  if (options_.checkpoint_every > 0 &&
      appends_since_checkpoint_ >= options_.checkpoint_every) {
    // Taking the checkpoint before this append (state covers 1..lsn-1)
    // is what makes "snapshot == applied records" an invariant.
    write_checkpoint(lsn - 1);
  }
  ValueObject framed = record.as_object();
  framed["lsn"] = Value(static_cast<std::int64_t>(lsn));
  fs_.append(current_segment_, encode_record(Value(std::move(framed)).to_json()));
  if (options_.sync_each_append) {
    fs_.sync();
    inc(fsyncs_);
  }
  ++next_lsn_;
  ++appends_since_checkpoint_;
  inc(appends_);
}

void Wal::checkpoint() {
  OSPREY_REQUIRE(db_ != nullptr, "Wal::checkpoint before recover()");
  write_checkpoint(next_lsn_ - 1);
}

void Wal::write_checkpoint(std::uint64_t lsn) {
  ValueObject obj;
  obj["checkpoint_lsn"] = Value(static_cast<std::int64_t>(lsn));
  obj["db"] = db_->to_json();
  fs_.write(checkpoint_path(lsn), encode_record(Value(std::move(obj)).to_json()));
  fs_.sync();
  inc(fsyncs_);
  inc(checkpoints_);
  // Rotate: records after this checkpoint start a fresh segment, so
  // every closed segment holds only records some checkpoint covers.
  current_segment_ = segment_path(lsn + 1);
  appends_since_checkpoint_ = 0;
  prune(lsn);
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    tracer->instant(obs::Category::kAero, "wal:checkpoint",
                    now_ns_ ? now_ns_() : 0, obs::kNoSpan,
                    "lsn=" + std::to_string(lsn));
  }
}

void Wal::prune(std::uint64_t latest_checkpoint_lsn) {
  // Keep the newest two checkpoint generations (the older one is the
  // fallback if the newer frame is ever damaged), then drop segments
  // fully covered by the oldest retained generation.
  std::vector<std::string> checkpoints = fs_.list(options_.dir + "/checkpoint-");
  while (checkpoints.size() > 2) {
    fs_.remove(checkpoints.front());
    checkpoints.erase(checkpoints.begin());
  }
  std::uint64_t oldest_kept = latest_checkpoint_lsn;
  if (!checkpoints.empty()) {
    std::optional<std::uint64_t> lsn = lsn_from_path(checkpoints.front());
    if (lsn) oldest_kept = *lsn;
  }
  std::vector<std::string> segments = fs_.list(options_.dir + "/wal-");
  for (const std::string& segment : segments) {
    std::optional<std::uint64_t> start = lsn_from_path(segment);
    if (start && *start <= oldest_kept && segment != current_segment_) {
      fs_.remove(segment);
    }
  }
}

}  // namespace osprey::aero
