#include "nn/sample_groups.h"

#include <mutex>
#include <thread>

#include "common/check.h"
#include "nn/kernels.h"

namespace dlinf {
namespace nn {
namespace {

/// The group this thread runs, if any.
thread_local GradTurns::Group* t_group = nullptr;

/// Spins until `done()`, yielding now and then. Sample groups wait only for
/// work another group is doing right now, for a few microseconds, which is
/// less than a sleeping thread takes to be woken (a dropout site's mask
/// drawn under a mutex instead made a 120-day fit's epoch 4-7% slower).
template <typename Pred>
void SpinUntil(Pred done) {
  for (int spins = 1; !done(); ++spins) {
    if (spins % 64 == 0) std::this_thread::yield();
  }
}

}  // namespace

GradTurns::GradTurns(const std::vector<Tensor>& params, int num_groups)
    : num_groups_(num_groups),
      running_(new std::atomic<bool>[num_groups]),
      queued_by_group_(new std::atomic<int>[num_groups]) {
  CHECK_GE(num_groups, 1);
  for (const Tensor& param : params) {
    if (index_.emplace(param.impl().get(), static_cast<int>(chains_.size()))
            .second) {
      chains_.push_back(std::make_unique<Chain>());
    }
  }
  for (int g = 0; g < num_groups; ++g) {
    running_[g].store(false);
    queued_by_group_[g].store(0);
  }
}

GradTurns::~GradTurns() {
  for (const auto& chain : chains_) {
    CHECK(chain->queued.empty()) << "a parameter-gradient write never ran";
  }
}

GradTurns::Group::Group(GradTurns* turns, int g)
    : turns_(turns),
      g_(g),
      writes_(turns->chains_.size(), 0),
      outer_(t_group) {
  CHECK(g >= 0 && g < turns->num_groups_);
  turns->running_[g].store(true, std::memory_order_release);
  t_group = this;
}

GradTurns::Group::~Group() {
  turns_->running_[g_].store(false, std::memory_order_release);
  t_group = outer_;
}

GradTurns::Group* GradTurns::Current() { return t_group; }

GradTurns::Ticket GradTurns::Group::Take(const internal::TensorImpl* param) {
  const auto found = turns_->index_.find(param);
  if (found == turns_->index_.end()) return Ticket{};
  return Ticket{found->second,
                writes_[found->second]++ * turns_->num_groups_ + g_};
}

bool GradTurns::AwaitTurn(const Ticket& t) {
  // Long enough for the group ahead to reach a write it is working towards
  // (tens of microseconds); a group that is far behind gets the write
  // queued instead.
  constexpr int kMaxSpins = 1 << 14;
  const Chain& chain = *chains_[t.chain];
  for (int spins = 1; spins <= kMaxSpins; ++spins) {
    const int64_t next = chain.next.load(std::memory_order_acquire);
    if (next == t.turn) return true;
    if (!running_[next % num_groups_].load(std::memory_order_acquire)) {
      return false;
    }
    if (spins % 64 == 0) std::this_thread::yield();
  }
  return chain.next.load(std::memory_order_acquire) == t.turn;
}

bool GradTurns::Queue(const Ticket& t, std::function<void()>* write) {
  Chain& chain = *chains_[t.chain];
  std::lock_guard<std::mutex> lock(chain.mu);
  if (chain.next.load(std::memory_order_relaxed) == t.turn) return false;
  chain.queued.emplace(t.turn, std::move(*write));
  queued_by_group_[t.turn % num_groups_].fetch_add(1,
                                                   std::memory_order_relaxed);
  return true;
}

void GradTurns::Pass(const Ticket& t) {
  // Only the thread whose turn it is advances `next`, so the chain is this
  // thread's until it hands the turn on.
  Chain& chain = *chains_[t.chain];
  for (;;) {
    std::function<void()> write;
    int64_t now;
    {
      std::lock_guard<std::mutex> lock(chain.mu);
      now = chain.next.load(std::memory_order_relaxed) + 1;
      chain.next.store(now, std::memory_order_release);
      const auto next = chain.queued.find(now);
      if (next == chain.queued.end()) return;
      write = std::move(next->second);
      chain.queued.erase(next);
    }
    write();
    queued_by_group_[now % num_groups_].fetch_sub(1,
                                                  std::memory_order_release);
  }
}

struct DropoutStream::Sites {
  /// One site's whole-batch mask, drawn by the reader that created it.
  struct Site {
    kernel::PooledBuffer mask;
    std::atomic<bool> drawn{false};
  };
  std::mutex mu;  // Guards `masks` (not the draws).
  Rng* rng;
  int batch;
  std::vector<std::shared_ptr<Site>> masks;
};

DropoutStream::DropoutStream(Rng* rng, int batch)
    : DropoutStream(std::make_shared<Sites>(), 0, batch) {
  CHECK(rng != nullptr);
  CHECK_GE(batch, 1);
  sites_->rng = rng;
  sites_->batch = batch;
}

DropoutStream::DropoutStream(std::shared_ptr<Sites> sites, int begin, int end)
    : sites_(std::move(sites)), begin_(begin), end_(end) {}

DropoutStream DropoutStream::Rows(int begin, int end) const {
  CHECK(begin >= 0 && begin < end && end <= sites_->batch);
  return DropoutStream(sites_, begin, end);
}

std::shared_ptr<const float> DropoutStream::Next(int64_t numel, float p) {
  CHECK(p > 0.0f && p < 1.0f);
  const int rows = end_ - begin_;
  CHECK_EQ(numel % rows, 0) << "dropout input is not" << rows << "samples";
  const int64_t inner = numel / rows;
  const size_t size = static_cast<size_t>(inner) * sites_->batch;
  const size_t site = static_cast<size_t>(next_site_++);
  std::shared_ptr<Sites::Site> mask;
  bool draw = false;
  {
    std::lock_guard<std::mutex> lock(sites_->mu);
    if (site == sites_->masks.size()) {
      mask = std::make_shared<Sites::Site>();
      sites_->masks.push_back(mask);
      draw = true;
    } else {
      CHECK_LT(site, sites_->masks.size());
      mask = sites_->masks[site];
    }
  }
  if (draw) {
    // The first reader here. Every earlier site is drawn already (this
    // reader waited for each), so the engine's draws stay in site order.
    mask->mask =
        kernel::PooledBuffer(size, kernel::PooledBuffer::ForOverwrite{});
    kernel::FillDropoutMask(&sites_->rng->engine(), Rng::BernoulliThreshold(p),
                            1.0f / (1.0f - p), mask->mask.data(),
                            static_cast<int64_t>(size));
    mask->drawn.store(true, std::memory_order_release);
  } else {
    SpinUntil([&] { return mask->drawn.load(std::memory_order_acquire); });
    CHECK_EQ(mask->mask.size(), size) << "dropout site" << site
                                      << "differs between readers";
  }
  const float* rows_begin = mask->mask.data() + inner * begin_;
  return std::shared_ptr<const float>(std::move(mask), rows_begin);
}

}  // namespace nn
}  // namespace dlinf
