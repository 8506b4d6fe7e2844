#ifndef DLINF_NN_TENSOR_H_
#define DLINF_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace dlinf {
namespace nn {

/// Shape of a tensor; rank 0 (scalar) through 4 are supported.
using Shape = std::vector<int>;

/// Number of elements implied by a shape.
int64_t NumElements(const Shape& shape);

/// Human-readable "[2, 3, 4]" form for error messages.
std::string ShapeToString(const Shape& shape);

class Tensor;

namespace internal {

/// Reference-counted tensor storage plus its position in the autograd tape.
///
/// Forward ops record their inputs and a backward closure here; Backward()
/// (tensor.cc) topologically sorts the reachable graph and runs the closures
/// in reverse. Gradients accumulate (+=) so shared subexpressions are
/// handled naturally.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // Same length as data when requires_grad.
  bool requires_grad = false;

  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::function<void()> backward_fn;  // May be empty (leaf).

  TensorImpl() = default;
  /// Returns data/grad storage to the kernel-layer buffer pool
  /// (nn/kernels.h) so forward/backward stop hammering malloc.
  ~TensorImpl();

  void EnsureGrad();
};

}  // namespace internal

/// A dense float32 tensor with reverse-mode autodiff.
///
/// Tensor is a cheap value-semantic handle (shared_ptr inside); copying a
/// Tensor aliases its storage. All shaping is row-major. Ops live in
/// nn/ops.h; modules composing them live in nn/module.h.
class Tensor {
 public:
  /// Null handle; most APIs CHECK against using one.
  Tensor() = default;

  /// --- Factories -----------------------------------------------------

  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  /// I.i.d. uniform in [lo, hi).
  static Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng* rng,
                              bool requires_grad = false);
  /// Glorot/Xavier-uniform for a [fan_in, fan_out] weight matrix.
  static Tensor GlorotUniform(int fan_in, int fan_out, Rng* rng);

  /// --- Introspection --------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int rank() const { return static_cast<int>(impl_->shape.size()); }
  int dim(int i) const;
  int64_t numel() const { return static_cast<int64_t>(impl_->data.size()); }
  bool requires_grad() const { return impl_->requires_grad; }

  std::vector<float>& data() { return impl_->data; }
  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& grad();
  const std::vector<float>& grad() const;

  /// The single value of a scalar (rank-0 or one-element) tensor.
  float item() const;

  /// --- Autograd -------------------------------------------------------

  /// Seeds d(this)/d(this) = 1 and back-propagates through the recorded
  /// graph, accumulating into .grad() of every reachable tensor that
  /// requires grad. `this` must be scalar.
  void Backward();

  /// Zeroes this tensor's gradient buffer (if any).
  void ZeroGrad();

  /// Internal: wraps an impl. Used by ops.
  static Tensor Wrap(std::shared_ptr<internal::TensorImpl> impl) {
    Tensor t;
    t.impl_ = std::move(impl);
    return t;
  }
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Creates a non-leaf result tensor: requires_grad if any input does, records
/// inputs for the tape. The data buffer is not zeroed (a recycled one holds
/// its last user's values): the caller writes every element of it, then
/// sets backward_fn. The gradient buffer, an accumulator, starts zeroed.
/// Under NoGradGuard the result is a detached leaf (no inputs, no grad).
Tensor MakeResult(const Shape& shape, const std::vector<Tensor>& inputs);

/// True unless a NoGradGuard is live on this thread.
bool GradModeEnabled();

/// RAII scope that turns off autograd tape recording on this thread: ops
/// inside it build no backward closures, record no input edges, and allocate
/// no gradient buffers. This is the batched-inference hot path — forward
/// cost only. Calling Backward() on a tensor produced inside the guard is an
/// error (it has no tape).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace nn
}  // namespace dlinf

#endif  // DLINF_NN_TENSOR_H_
