#include "src/sched/scheduler.hpp"

#include <algorithm>

#include "src/common/clock.hpp"

namespace acn::sched {

const char* policy_name(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kNone:
      return "none";
    case SchedulerPolicy::kQueue:
      return "queue";
    case SchedulerPolicy::kAdmit:
      return "admit";
    case SchedulerPolicy::kBoth:
      return "both";
  }
  return "?";
}

std::optional<SchedulerPolicy> parse_policy(std::string_view text) noexcept {
  if (text == "none") return SchedulerPolicy::kNone;
  if (text == "queue") return SchedulerPolicy::kQueue;
  if (text == "admit") return SchedulerPolicy::kAdmit;
  if (text == "both") return SchedulerPolicy::kBoth;
  return std::nullopt;
}

namespace {

bool uses_admission(SchedulerPolicy policy) noexcept {
  return policy == SchedulerPolicy::kAdmit || policy == SchedulerPolicy::kBoth;
}

bool uses_queues(SchedulerPolicy policy) noexcept {
  return policy == SchedulerPolicy::kQueue || policy == SchedulerPolicy::kBoth;
}

}  // namespace

TxScheduler::TxScheduler(SchedulerConfig config, std::size_t n_clients,
                         std::uint64_t seed, obs::Observability* obs)
    : config_(config), obs_(obs) {
  sessions_.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    auto session = std::make_unique<Session>();
    session->owner_ = this;
    session->index_ = i;
    session->rng_.reseed(seed * 0x9e3779b97f4a7c15ULL + i + 1);
    session->window_ = std::clamp(config_.initial_window, config_.min_window,
                                  config_.max_window);
    sessions_.push_back(std::move(session));
  }
}

TxScheduler::~TxScheduler() = default;

// ---------------------------------------------------------------------------
// Admission (AIMD window)

void TxScheduler::admission_wait(Session& session) {
  const Stopwatch watch;
  const auto aging_ns =
      static_cast<std::uint64_t>(config_.aging_budget.count());
  std::unique_lock lock(admit_mutex_);
  if (static_cast<double>(active_) < session.window_) {
    ++active_;
    if (obs_) obs_->sched_admit_immediate.add();
    return;
  }
  if (obs_) obs_->sched_admit_waits.add();
  bool aged = false;
  for (int attempt = 0;; ++attempt) {
    // Paced re-checks: woken by finish()'s notify, or by the RetryPolicy
    // delay — whichever first — so a missed notify can only cost one
    // pacing step, never a hang.
    admit_cv_.wait_for(lock, config_.wait.delay(attempt, session.rng_));
    if (static_cast<double>(active_) < session.window_) break;
    if (watch.elapsed_ns() >= aging_ns) {
      aged = true;  // anti-starvation: the window loses after aging_budget
      break;
    }
  }
  ++active_;
  if (obs_) {
    if (aged) obs_->sched_admit_aged.add();
    obs_->sched_admit_wait_ns.observe(watch.elapsed_ns());
  }
}

void TxScheduler::admission_update(Session& session, TxOutcome outcome) {
  std::lock_guard lock(admit_mutex_);
  switch (outcome) {
    case TxOutcome::kCommitted:
      session.window_ = std::min(config_.max_window,
                                 session.window_ + config_.additive_increase);
      break;
    case TxOutcome::kLeaseExpired:
      // A whole 2PC died to lease reclamation: back off twice as hard.
      session.window_ *= config_.multiplicative_decrease;
      [[fallthrough]];
    case TxOutcome::kValidation:
    case TxOutcome::kBusy:
    case TxOutcome::kUnavailable:
      session.window_ = std::max(
          config_.min_window, session.window_ * config_.multiplicative_decrease);
      break;
  }
  if (obs_)
    obs_->sched_admit_window.set(
        static_cast<std::int64_t>(session.window_ * 1000.0));
}

// ---------------------------------------------------------------------------
// Conflict queues

void TxScheduler::advance_locked(KeyQueue& queue) {
  while (queue.abandoned.erase(queue.dispatch) > 0) ++queue.dispatch;
}

void TxScheduler::acquire_queues(Session& session, const KeyFootprint& footprint) {
  // Pick the queues of currently-hot footprint keys, handing out stable
  // KeyQueue pointers under the table lock.  The footprint is canonically
  // sorted, so every transaction acquires in the same global key order —
  // circular hold-and-wait is impossible.
  std::vector<KeyQueue*> queues;
  {
    std::lock_guard lock(hot_mutex_);
    for (const FootprintEntry& entry : footprint) {
      if (config_.queue_writes_only && !entry.for_write) continue;
      const bool class_hot = config_.class_hot_level > 0 &&
                             hot_classes_.contains(entry.key.cls);
      auto it = hot_.find(entry.key);
      const bool score_hot =
          it != hot_.end() && it->second.score >= config_.hot_score;
      if (!class_hot && !score_hot) continue;
      if (it == hot_.end()) {
        if (hot_.size() >= config_.max_tracked_keys) continue;  // table full
        it = hot_.try_emplace(entry.key).first;
      }
      HotEntry& hot = it->second;
      if (!hot.queue) hot.queue = std::make_unique<KeyQueue>();
      hot.queue->users.fetch_add(1, std::memory_order_relaxed);
      queues.push_back(hot.queue.get());
    }
  }

  const int width = std::max(1, config_.queue_width);
  for (std::size_t q = 0; q < queues.size(); ++q) {
    KeyQueue* const queue = queues[q];
    std::unique_lock lock(queue->mutex);
    const std::uint64_t ticket = queue->next++;
    // A ticket starts when it reaches the dispatch point AND the service
    // window has room; starts stay FIFO, up to `width` run concurrently.
    const auto may_start = [&] {
      return queue->dispatch == ticket && queue->holders < width;
    };
    const auto start = [&] {
      ++queue->dispatch;
      advance_locked(*queue);
      ++queue->holders;
      session.held_.push_back(queue);
      session.tickets_.push_back(ticket);
      queue->cv.notify_all();  // the next waiter may be eligible too
    };
    if (obs_) {
      obs_->sched_queue_acquires.add();
      obs_->sched_queue_depth.observe(queue->waiters + 1);
    }
    if (may_start()) {
      start();
      continue;
    }
    if (obs_) obs_->sched_queue_waits.add();
    const Stopwatch watch;
    ++queue->waiters;
    const bool got =
        queue->cv.wait_for(lock, config_.queue_wait_budget, may_start);
    --queue->waiters;
    if (obs_) obs_->sched_queue_wait_ns.observe(watch.elapsed_ns());
    if (got) {
      start();
      continue;
    }
    // Wait budget blown (a holder is stalled, or the queue is just long):
    // abandon this ticket and every ticket already held, and run the
    // transaction optimistically — the validation protocol still protects
    // correctness, we only lose the ordering optimization.
    queue->abandoned.insert(ticket);
    advance_locked(*queue);
    queue->cv.notify_all();
    lock.unlock();
    // After the unlock, with release: tick() frees the queue once users reads
    // 0, so everything this thread did to it, the unlock included, must
    // happen before that (see tick()'s acquire).
    queue->users.fetch_sub(1, std::memory_order_release);
    // The queues after this one were handed out but never waited on.
    for (std::size_t rest = q + 1; rest < queues.size(); ++rest)
      queues[rest]->users.fetch_sub(1, std::memory_order_release);
    if (obs_) obs_->sched_queue_timeouts.add();
    release_queues(session);
    return;
  }
}

void TxScheduler::release_queues(Session& session) {
  for (std::size_t i = 0; i < session.held_.size(); ++i) {
    KeyQueue* queue = session.held_[i];
    {
      std::lock_guard lock(queue->mutex);
      // Free a service-window slot; the dispatch point may also be sitting
      // on abandoned tickets meanwhile.
      --queue->holders;
      advance_locked(*queue);
      queue->cv.notify_all();
    }
    // Release, paired with tick()'s acquire: the queue may be freed as soon
    // as this drops users to 0.
    queue->users.fetch_sub(1, std::memory_order_release);
  }
  session.held_.clear();
  session.tickets_.clear();
}

void TxScheduler::blame_keys(const std::vector<ir::ObjectKey>& conflict) {
  if (conflict.empty()) return;
  std::lock_guard lock(hot_mutex_);
  for (const auto& key : conflict) {
    auto it = hot_.find(key);
    if (it == hot_.end()) {
      if (hot_.size() >= config_.max_tracked_keys) continue;
      it = hot_.try_emplace(key).first;
    }
    it->second.score += 1.0;
  }
}

void TxScheduler::note_class_levels(const std::vector<ir::ClassId>& classes,
                                    const std::vector<std::uint64_t>& levels) {
  std::lock_guard lock(hot_mutex_);
  hot_classes_.clear();
  // A stale or misaligned snapshot (fewer levels than classes, or classes
  // from an older plan) degrades the refinement, never the correctness:
  // iterate the common prefix only.
  const std::size_t n = std::min(classes.size(), levels.size());
  for (std::size_t i = 0; i < n; ++i)
    if (config_.class_hot_level > 0 && levels[i] >= config_.class_hot_level)
      hot_classes_.insert(classes[i]);
}

void TxScheduler::tick() {
  std::lock_guard lock(hot_mutex_);
  std::size_t hot_now = 0;
  for (auto it = hot_.begin(); it != hot_.end();) {
    HotEntry& entry = it->second;
    entry.score *= config_.decay;
    const bool hot =
        entry.score >= config_.hot_score ||
        (config_.class_hot_level > 0 && hot_classes_.contains(it->first.cls));
    if (hot) ++hot_now;
    // Evict entries that cooled off completely and whose queue nobody
    // references (users counts handed-out pointers; it only grows under
    // hot_mutex_, so a zero here is stable for the duration of the sweep).
    // Acquire pairs with the release decrements: the last user's accesses
    // to the queue happen before it is destroyed here.
    const bool queue_idle =
        !entry.queue || entry.queue->users.load(std::memory_order_acquire) == 0;
    if (!hot && queue_idle && entry.score < 0.25)
      it = hot_.erase(it);
    else
      ++it;
  }
  if (obs_) obs_->sched_hot_keys.set(static_cast<std::int64_t>(hot_now));
}

bool TxScheduler::is_hot(const ir::ObjectKey& key) const {
  std::lock_guard lock(hot_mutex_);
  if (config_.class_hot_level > 0 && hot_classes_.contains(key.cls)) return true;
  const auto it = hot_.find(key);
  return it != hot_.end() && it->second.score >= config_.hot_score;
}

std::vector<ir::ObjectKey> TxScheduler::hot_keys() const {
  std::lock_guard lock(hot_mutex_);
  std::vector<ir::ObjectKey> keys;
  for (const auto& [key, entry] : hot_) {
    if (entry.score >= config_.hot_score ||
        (config_.class_hot_level > 0 && hot_classes_.contains(key.cls)))
      keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool TxScheduler::any_hot(const KeyFootprint& footprint) const {
  std::lock_guard lock(hot_mutex_);
  for (const FootprintEntry& entry : footprint) {
    if (config_.class_hot_level > 0 && hot_classes_.contains(entry.key.cls))
      return true;
    const auto it = hot_.find(entry.key);
    if (it != hot_.end() && it->second.score >= config_.hot_score) return true;
  }
  return false;
}

std::size_t TxScheduler::active() const noexcept {
  std::lock_guard lock(admit_mutex_);
  return active_;
}

// ---------------------------------------------------------------------------
// Session (the executor-facing gate)

void TxScheduler::Session::admit(const KeyFootprint& footprint) {
  if (owner_ == nullptr || active_) return;
  const SchedulerPolicy policy = owner_->config_.policy;
  if (policy == SchedulerPolicy::kNone) return;
  // Only contended transactions take an admission slot; cold traffic flows
  // freely (it neither causes nor suffers the hot-key races the window
  // exists to dampen).
  gated_ = uses_admission(policy) && owner_->any_hot(footprint);
  if (gated_) owner_->admission_wait(*this);
  active_ = true;
  if (uses_queues(policy)) owner_->acquire_queues(*this, footprint);
}

void TxScheduler::Session::on_full_abort(
    TxOutcome kind, const std::vector<ir::ObjectKey>& conflict) {
  if (owner_ == nullptr || !active_) return;
  if (uses_admission(owner_->config_.policy))
    owner_->admission_update(*this, kind);
  owner_->blame_keys(conflict);
}

void TxScheduler::Session::finish(TxOutcome outcome) {
  if (owner_ == nullptr || !active_) return;
  owner_->release_queues(*this);
  if (uses_admission(owner_->config_.policy)) {
    // Aborted runs already shrank the window in on_full_abort; only clean
    // commits grow it here (the additive half of AIMD).
    if (outcome == TxOutcome::kCommitted)
      owner_->admission_update(*this, outcome);
    if (gated_) {
      {
        std::lock_guard lock(owner_->admit_mutex_);
        --owner_->active_;
      }
      owner_->admit_cv_.notify_all();
    }
  }
  active_ = false;
  gated_ = false;
}

}  // namespace acn::sched
