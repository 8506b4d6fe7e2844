#include "nn/optimizer.h"

#include <cmath>

#include "nn/kernels.h"

namespace dlinf {
namespace nn {

Optimizer::Optimizer(std::vector<Tensor> parameters, float learning_rate)
    : parameters_(std::move(parameters)), learning_rate_(learning_rate) {
  for (const Tensor& p : parameters_) {
    CHECK(p.defined());
    CHECK(p.requires_grad());
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor& p : parameters_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Tensor> parameters, float learning_rate)
    : Optimizer(std::move(parameters), learning_rate) {}

void Sgd::Step() {
  for (Tensor& p : parameters_) {
    std::vector<float>& data = p.data();
    const std::vector<float>& grad = p.grad();
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] -= learning_rate_ * grad[i];
    }
  }
}

Adam::Adam(std::vector<Tensor> parameters, float learning_rate, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(parameters), learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.resize(parameters_.size());
  v_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    m_[i].assign(parameters_[i].numel(), 0.0f);
    v_[i].assign(parameters_[i].numel(), 0.0f);
  }
}

void Adam::Step() {
  ++t_;
  const kernel::AdamCoefficients coefficients = {
      .beta1 = beta1_,
      .beta2 = beta2_,
      .one_minus_beta1 = 1.0f - beta1_,
      .one_minus_beta2 = 1.0f - beta2_,
      .bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_)),
      .bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_)),
      .learning_rate = learning_rate_,
      .eps = eps_};
  for (size_t i = 0; i < parameters_.size(); ++i) {
    std::vector<float>& data = parameters_[i].data();
    kernel::AdamStep(coefficients, parameters_[i].grad().data(), data.data(),
                     m_[i].data(), v_[i].data(),
                     static_cast<int64_t>(data.size()));
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

bool Adam::RestoreState(const AdamState& state) {
  if (state.step < 0) return false;
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) return false;
  for (size_t i = 0; i < m_.size(); ++i) {
    if (state.m[i].size() != m_[i].size() ||
        state.v[i].size() != v_[i].size()) {
      return false;
    }
  }
  t_ = state.step;
  m_ = state.m;
  v_ = state.v;
  return true;
}

HalvingSchedule::HalvingSchedule(Optimizer* optimizer, int step_epochs)
    : optimizer_(optimizer), step_epochs_(step_epochs) {
  CHECK(optimizer != nullptr);
  CHECK_GE(step_epochs, 1);
}

void HalvingSchedule::OnEpochEnd() {
  ++epoch_;
  if (epoch_ % step_epochs_ == 0) {
    optimizer_->set_learning_rate(optimizer_->learning_rate() * 0.5f);
  }
}

}  // namespace nn
}  // namespace dlinf
