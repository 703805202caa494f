#include "emews/interleave.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::emews {

void InterleavedDriver::add(std::shared_ptr<CoopAlgorithm> algorithm) {
  OSPREY_REQUIRE(algorithm != nullptr, "null algorithm");
  algorithms_.push_back(std::move(algorithm));
}

void InterleavedDriver::run() {
  OSPREY_REQUIRE(!algorithms_.empty(), "no algorithm instances added");
  for (auto& algo : algorithms_) algo->start();

  std::vector<bool> finished(algorithms_.size(), false);
  std::size_t n_finished = 0;

  while (n_finished < algorithms_.size()) {
    bool any_progress = false;
    // Snapshot the finished counter before the round: if nothing moves
    // during the round we sleep until one more task completes.
    std::uint64_t seen = db_->finished_count();
    for (std::size_t i = 0; i < algorithms_.size(); ++i) {
      if (finished[i]) continue;
      ++polls_;
      PollResult r = algorithms_[i]->poll();
      if (r == PollResult::kFinished) {
        finished[i] = true;
        ++n_finished;
        any_progress = true;
        OSPREY_LOG_INFO("emews", "instance '" << algorithms_[i]->name()
                                 << "' finished");
      } else if (r == PollResult::kProgress) {
        any_progress = true;
      }
    }
    if (!any_progress && n_finished < algorithms_.size()) {
      ++blocked_waits_;
      db_->wait_until_finished(seen + 1);
    }
  }
}

void SequentialDriver::add(std::shared_ptr<CoopAlgorithm> algorithm) {
  OSPREY_REQUIRE(algorithm != nullptr, "null algorithm");
  algorithms_.push_back(std::move(algorithm));
}

void SequentialDriver::run() {
  OSPREY_REQUIRE(!algorithms_.empty(), "no algorithm instances added");
  for (auto& algo : algorithms_) {
    algo->start();
    while (true) {
      std::uint64_t seen = db_->finished_count();
      PollResult r = algo->poll();
      if (r == PollResult::kFinished) break;
      if (r == PollResult::kBlocked) db_->wait_until_finished(seen + 1);
    }
  }
}

}  // namespace osprey::emews
