#include "nn/tensor.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "nn/kernels.h"

namespace dlinf {
namespace nn {
namespace {

/// Tensor training loops allocate and free buffers just above glibc's
/// default 128 KiB mmap threshold thousands of times per second; each such
/// cycle is an mmap/munmap syscall pair, which was measured to make training
/// ~20x slower (wall clock dominated by sys time). Raising the thresholds
/// keeps these buffers on the regular heap. Runs once when the library is
/// loaded.
struct MallocTuner {
  MallocTuner() {
    mallopt(M_MMAP_THRESHOLD, 512 * 1024 * 1024);
    mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);
  }
};
const MallocTuner g_malloc_tuner;

}  // namespace

namespace internal {

TensorImpl::~TensorImpl() {
  kernel::ReleaseBuffer(std::move(data));
  kernel::ReleaseBuffer(std::move(grad));
}

void TensorImpl::EnsureGrad() {
  if (grad.size() != data.size()) {
    if (grad.capacity() < data.size()) {
      kernel::ReleaseBuffer(std::move(grad));
      grad = kernel::AcquireBuffer(data.size());
    } else {
      grad.assign(data.size(), 0.0f);
    }
  }
}

}  // namespace internal

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int d : shape) {
    CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  if (value == 0.0f) {
    impl->data = kernel::AcquireBuffer(NumElements(shape));
  } else {
    impl->data = kernel::AcquireBufferForOverwrite(NumElements(shape));
    std::fill(impl->data.begin(), impl->data.end(), value);
  }
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGrad();
  return Wrap(std::move(impl));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  CHECK_EQ(NumElements(shape), static_cast<int64_t>(values.size()));
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  if (requires_grad) impl->EnsureGrad();
  return Wrap(std::move(impl));
}

Tensor Tensor::RandomUniform(const Shape& shape, float lo, float hi, Rng* rng,
                             bool requires_grad) {
  CHECK(rng != nullptr);
  std::vector<float> values(NumElements(shape));
  for (float& v : values) v = static_cast<float>(rng->Uniform(lo, hi));
  return FromVector(shape, std::move(values), requires_grad);
}

Tensor Tensor::GlorotUniform(int fan_in, int fan_out, Rng* rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform({fan_in, fan_out}, -limit, limit, rng,
                       /*requires_grad=*/true);
}

int Tensor::dim(int i) const {
  CHECK(i >= 0 && i < rank()) << "dim" << i << "of" << ShapeToString(shape());
  return impl_->shape[i];
}

std::vector<float>& Tensor::grad() {
  CHECK(impl_->requires_grad);
  impl_->EnsureGrad();
  return impl_->grad;
}

const std::vector<float>& Tensor::grad() const {
  CHECK(impl_->requires_grad);
  CHECK_EQ(impl_->grad.size(), impl_->data.size());
  return impl_->grad;
}

float Tensor::item() const {
  CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

void Tensor::ZeroGrad() {
  if (impl_->requires_grad) {
    impl_->EnsureGrad();
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

namespace {

void TopoSort(const std::shared_ptr<internal::TensorImpl>& node,
              std::unordered_set<internal::TensorImpl*>* visited,
              std::vector<std::shared_ptr<internal::TensorImpl>>* order) {
  if (visited->count(node.get()) > 0) return;
  visited->insert(node.get());
  for (const auto& input : node->inputs) {
    TopoSort(input, visited, order);
  }
  order->push_back(node);
}

}  // namespace

void Tensor::Backward() {
  CHECK(defined());
  CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";
  CHECK(impl_->requires_grad) << "loss does not depend on any parameter";

  std::unordered_set<internal::TensorImpl*> visited;
  std::vector<std::shared_ptr<internal::TensorImpl>> order;
  TopoSort(impl_, &visited, &order);

  // Seed and ensure gradient buffers exist on the whole reachable graph so
  // backward closures can accumulate unconditionally.
  for (const auto& node : order) {
    if (node->requires_grad) node->EnsureGrad();
  }
  impl_->grad[0] += 1.0f;

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn && (*it)->requires_grad) {
      (*it)->backward_fn();
    }
  }
}

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool GradModeEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

Tensor MakeResult(const Shape& shape, const std::vector<Tensor>& inputs) {
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  impl->data = kernel::AcquireBufferForOverwrite(NumElements(shape));
  if (t_grad_enabled) {
    for (const Tensor& input : inputs) {
      CHECK(input.defined());
      impl->inputs.push_back(input.impl());
      if (input.requires_grad()) impl->requires_grad = true;
    }
    if (impl->requires_grad) impl->EnsureGrad();
  }
  return Tensor::Wrap(std::move(impl));
}

}  // namespace nn
}  // namespace dlinf
