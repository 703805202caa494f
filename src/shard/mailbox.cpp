#include "shard/mailbox.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::shard {

using util::mix64;

bool envelope_before(const Envelope& a, const Envelope& b) {
  return std::tie(a.tick, a.origin, a.seq) < std::tie(b.tick, b.origin, b.seq);
}

std::uint64_t stable_key_hash(const std::string& key) {
  return util::fnv1a(key);
}

std::size_t shard_of(const std::string& key, std::size_t num_shards) {
  OSPREY_REQUIRE(num_shards >= 1, "need at least one shard");
  return static_cast<std::size_t>(stable_key_hash(key) % num_shards);
}

Outbox::Outbox(std::uint32_t origin, std::uint64_t seed)
    : origin_(origin),
      seed_(seed),
      base_stamp_(mix64(seed ^ mix64(origin))) {}

void Outbox::post(std::uint64_t tick, std::string dest, std::string topic,
                  osprey::util::Value payload) {
  Envelope env;
  env.tick = tick;
  env.origin = origin_;
  env.seq = seq_++;
  env.stamp = mix64(base_stamp_ ^ env.seq);
  env.topic = std::move(topic);
  env.dest = std::move(dest);
  env.payload = std::move(payload);
  pending_.push_back(std::move(env));
}

std::vector<Envelope> Outbox::drain() {
  std::vector<Envelope> out;
  out.swap(pending_);
  return out;
}

std::vector<Envelope> merge_envelopes(
    std::vector<std::vector<Envelope>> sources) {
  struct Head {
    std::size_t source;
    std::size_t index;
  };
  // Min-heap keyed by the head envelope of each source.
  auto later = [&sources](const Head& a, const Head& b) {
    return envelope_before(sources[b.source][b.index],
                           sources[a.source][a.index]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap(later);
  std::size_t total = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    total += sources[s].size();
    if (!sources[s].empty()) heap.push(Head{s, 0});
  }
  std::vector<Envelope> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    merged.push_back(std::move(sources[head.source][head.index]));
    if (head.index + 1 < sources[head.source].size()) {
      heap.push(Head{head.source, head.index + 1});
    }
  }
  return merged;
}

}  // namespace osprey::shard
