#ifndef DLINF_NN_SAMPLE_GROUPS_H_
#define DLINF_NN_SAMPLE_GROUPS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "nn/tensor.h"

namespace dlinf {
namespace nn {

/// \file
/// What lets one training step run as groups of consecutive samples, on
/// several threads, with the bytes of the step run over the whole batch at
/// once (DESIGN.md §9):
///
///  - every forward op and every activation-gradient op works per sample,
///    so a group's rows, kept at the batch's padded width, come out as the
///    whole batch's would;
///  - a parameter gradient is the one sum across samples, and every op adds
///    into it as one serial chain over the batch's rows. GradTurns runs
///    each group's part of each such write in sample order, so the chain is
///    the batched one;
///  - DropoutStream draws each dropout site's whole-batch mask once, in the
///    order the sites are reached, and hands every group its rows.

/// The order of one step's parameter-gradient writes across its groups.
///
/// A parameter's k-th write of the step (counted within each group, whose
/// graphs are the same) belongs to turn k * num_groups + g for group g:
/// group g's rows continue the chain group g - 1 left, and group 0's next
/// write continues the one group num_groups - 1 left. A write that arrives
/// before its turn waits while the group whose turn it is runs on another
/// thread, for a bounded time; otherwise it is queued, and the thread that
/// finishes the turn before it runs it. So no group ever waits for a group
/// that is not running, or for long: the groups may run in any
/// interleaving, on any number of threads, inline included.
///
/// A queued write runs after its op's backward closure returned, so it must
/// own whatever scratch it reads, and a group's graph must stay alive until
/// its queued writes ran (QueuedWrites).
class GradTurns {
 public:
  /// Turns over `params` (a model's trainable tensors) for `num_groups`
  /// groups.
  GradTurns(const std::vector<Tensor>& params, int num_groups);
  /// CHECKs that no write is still queued.
  ~GradTurns();

  GradTurns(const GradTurns&) = delete;
  GradTurns& operator=(const GradTurns&) = delete;

  /// A write's place: its parameter's chain and its turn there.
  struct Ticket {
    int chain = -1;  ///< -1: not a parameter of the step.
    int64_t turn = 0;
  };

  /// While alive, this thread runs group `g`: ops route their writes into
  /// the step's parameter gradients through `turns` (AccumulateGrad).
  class Group {
   public:
    Group(GradTurns* turns, int g);
    ~Group();
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    GradTurns* turns() const { return turns_; }
    /// The ticket of this group's next write into `param`.
    Ticket Take(const internal::TensorImpl* param);

   private:
    GradTurns* turns_;
    int g_;
    std::vector<int64_t> writes_;  ///< Per parameter: writes made so far.
    Group* outer_;
  };

  /// The group running on this thread, if any.
  static Group* Current();

  /// Waits while the turn before `t` belongs to a running group, for a
  /// bounded time. True once `t`'s turn has come.
  bool AwaitTurn(const Ticket& t);
  /// Queues `*write` (moved from) for its turn and returns true, unless the
  /// turn has come meanwhile: then returns false and the caller runs it.
  bool Queue(const Ticket& t, std::function<void()>* write);
  /// After `t`'s write ran: hands the chain on, running the queued writes
  /// whose turn comes.
  void Pass(const Ticket& t);

  /// Group g's writes that are queued and have not run yet. Once g's
  /// backward pass is over, 0 means its graph may go.
  int QueuedWrites(int g) const {
    return queued_by_group_[g].load(std::memory_order_acquire);
  }

 private:
  struct Chain {
    std::mutex mu;                  // Guards `queued` and advances `next`.
    std::atomic<int64_t> next{0};   ///< The turn that may run now.
    std::unordered_map<int64_t, std::function<void()>> queued;
  };

  std::unordered_map<const internal::TensorImpl*, int> index_;
  std::vector<std::unique_ptr<Chain>> chains_;
  int num_groups_;
  std::unique_ptr<std::atomic<bool>[]> running_;  ///< Per group.
  std::unique_ptr<std::atomic<int>[]> queued_by_group_;
};

/// Adds into `param`'s gradient through `write`, in turn when a GradTurns
/// group runs on this thread (see GradTurns). Every op that writes the
/// gradient of a tensor that may be a parameter goes through here.
template <typename Fn>
void AccumulateGrad(const std::shared_ptr<internal::TensorImpl>& param,
                    Fn&& write) {
  GradTurns::Group* group = GradTurns::Current();
  const GradTurns::Ticket ticket =
      group != nullptr ? group->Take(param.get()) : GradTurns::Ticket{};
  if (ticket.chain < 0) {
    write();
    return;
  }
  GradTurns* turns = group->turns();
  if (turns->AwaitTurn(ticket)) {
    write();
  } else {
    std::function<void()> queued(std::forward<Fn>(write));
    if (turns->Queue(ticket, &queued)) return;
    queued();
  }
  turns->Pass(ticket);
}

/// The training-mode dropout masks of one forward over a batch of `batch`
/// samples, or of one group of its rows.
///
/// A forward reaches its dropout sites in a fixed order; site k's mask
/// covers the whole batch (batch * inner elements, `inner` per sample) and
/// is drawn from the Rng, by one FillDropoutMask call, by the first reader
/// to reach site k. Readers of other rows (Rows) share the draws, so the
/// engine ends in the same state whatever the grouping.
class DropoutStream {
 public:
  DropoutStream(Rng* rng, int batch);

  /// A reader of rows [begin, end) of the batch, starting at site 0 and
  /// sharing this stream's draws.
  DropoutStream Rows(int begin, int end) const;

  /// The keep/scale mask (0, or 1 / (1 - p)) of this reader's next site,
  /// whose tensor has `numel` elements over the reader's rows. The pointer
  /// keeps the site's mask alive.
  std::shared_ptr<const float> Next(int64_t numel, float p);

 private:
  struct Sites;
  DropoutStream(std::shared_ptr<Sites> sites, int begin, int end);

  std::shared_ptr<Sites> sites_;
  int begin_;
  int end_;
  int next_site_ = 0;
};

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_SAMPLE_GROUPS_H_
