#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels.h"
#include "nn/sample_groups.h"

namespace dlinf {
namespace nn {
namespace {

/// Row-major strides for a contiguous tensor of this shape.
std::vector<int64_t> ContiguousStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

/// NumPy-style broadcast of two shapes; aborts on incompatibility.
Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (int i = 0; i < rank; ++i) {
    const int da = i < rank - static_cast<int>(a.size())
                       ? 1
                       : a[i - (rank - static_cast<int>(a.size()))];
    const int db = i < rank - static_cast<int>(b.size())
                       ? 1
                       : b[i - (rank - static_cast<int>(b.size()))];
    CHECK(da == db || da == 1 || db == 1)
        << "cannot broadcast" << ShapeToString(a) << "with"
        << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

/// Strides for reading an input of shape `in` as if it had shape `out`
/// (stride 0 on stretched axes).
std::vector<int64_t> BroadcastStrides(const Shape& in, const Shape& out) {
  const int out_rank = static_cast<int>(out.size());
  const int offset = out_rank - static_cast<int>(in.size());
  const std::vector<int64_t> in_strides = ContiguousStrides(in);
  std::vector<int64_t> strides(out_rank, 0);
  for (int i = 0; i < out_rank; ++i) {
    if (i < offset) continue;
    const int in_dim = in[i - offset];
    if (in_dim == out[i]) {
      strides[i] = in_strides[i - offset];
    } else {
      CHECK_EQ(in_dim, 1);
      strides[i] = 0;
    }
  }
  return strides;
}

/// Walks every output element of `out_shape` computing the mapped flat
/// offsets into two broadcast inputs.
template <typename Fn>
void ForEachBroadcast(const Shape& out_shape,
                      const std::vector<int64_t>& a_strides,
                      const std::vector<int64_t>& b_strides, Fn&& fn) {
  const int rank = static_cast<int>(out_shape.size());
  const int64_t total = NumElements(out_shape);
  std::vector<int> index(rank, 0);
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t flat = 0; flat < total; ++flat) {
    fn(flat, a_off, b_off);
    // Increment the multi-index (odometer) and the mapped offsets.
    for (int axis = rank - 1; axis >= 0; --axis) {
      ++index[axis];
      a_off += a_strides[axis];
      b_off += b_strides[axis];
      if (index[axis] < out_shape[axis]) break;
      index[axis] = 0;
      a_off -= a_strides[axis] * out_shape[axis];
      b_off -= b_strides[axis] * out_shape[axis];
    }
  }
}

/// Shared implementation of broadcasting binary elementwise ops.
/// `fwd(a,b)` computes the value; `da(a,b)`/`db(a,b)` the partials.
template <typename FwdFn, typename DaFn, typename DbFn>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, FwdFn fwd, DaFn da,
                         DbFn db) {
  // Same-shape fast path: a straight flat loop, no odometer walk.
  if (a.shape() == b.shape()) {
    Tensor out = MakeResult(a.shape(), {a, b});
    const float* av = a.data().data();
    const float* bv = b.data().data();
    float* ov = out.data().data();
    const int64_t total = out.numel();
    for (int64_t i = 0; i < total; ++i) ov[i] = fwd(av[i], bv[i]);
    if (out.requires_grad()) {
      auto out_impl = out.impl();
      auto a_impl = a.impl();
      auto b_impl = b.impl();
      internal::TensorImpl* const self = out_impl.get();
      out_impl->backward_fn = [self, a_impl, b_impl, total, da, db]() {
        const float* g = self->grad.data();
        const float* ad = a_impl->data.data();
        const float* bd = b_impl->data.data();
        if (a_impl->requires_grad) {
          float* ga = a_impl->grad.data();
          for (int64_t i = 0; i < total; ++i) {
            ga[i] += g[i] * da(ad[i], bd[i]);
          }
        }
        if (b_impl->requires_grad) {
          float* gb = b_impl->grad.data();
          for (int64_t i = 0; i < total; ++i) {
            gb[i] += g[i] * db(ad[i], bd[i]);
          }
        }
      };
    }
    return out;
  }

  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  const std::vector<int64_t> a_strides =
      BroadcastStrides(a.shape(), out_shape);
  const std::vector<int64_t> b_strides =
      BroadcastStrides(b.shape(), out_shape);
  Tensor out = MakeResult(out_shape, {a, b});
  {
    const std::vector<float>& av = a.data();
    const std::vector<float>& bv = b.data();
    std::vector<float>& ov = out.data();
    ForEachBroadcast(out_shape, a_strides, b_strides,
                     [&](int64_t flat, int64_t ai, int64_t bi) {
                       ov[flat] = fwd(av[ai], bv[bi]);
                     });
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, a_impl, b_impl, out_shape, a_strides,
                             b_strides, da, db]() {
      const std::vector<float>& gout = self->grad;
      ForEachBroadcast(out_shape, a_strides, b_strides,
                       [&](int64_t flat, int64_t ai, int64_t bi) {
                         const float g = gout[flat];
                         if (a_impl->requires_grad) {
                           a_impl->grad[ai] +=
                               g * da(a_impl->data[ai], b_impl->data[bi]);
                         }
                         if (b_impl->requires_grad) {
                           b_impl->grad[bi] +=
                               g * db(a_impl->data[ai], b_impl->data[bi]);
                         }
                       });
    };
  }
  return out;
}

/// When `b` stretches against `a` over one contiguous run of axes only (b's
/// shape, left-padded with 1s, is a's with that run set to 1), the shape of
/// `a` as [outer, rows, inner], `b` being [outer, 1, inner]. Walking such a
/// broadcast in flat order visits each b element's rows in increasing
/// order, which is ColumnSumRows' order.
bool RowBroadcastView(const Shape& a, const Shape& b, int64_t* outer,
                      int64_t* rows, int64_t* inner) {
  if (b.size() > a.size()) return false;
  const int rank = static_cast<int>(a.size());
  const int pad = rank - static_cast<int>(b.size());
  int first = rank;
  int last = rank;
  for (int i = 0; i < rank; ++i) {
    const int bd = i < pad ? 1 : b[i - pad];
    if (bd == a[i]) continue;
    if (bd != 1) return false;
    if (first == rank) {
      first = i;
    } else if (last != i - 1) {
      return false;
    }
    last = i;
  }
  *outer = 1;
  *rows = 1;
  *inner = 1;
  if (first == rank) first = last = -1;  // Same size: one row.
  for (int i = 0; i < rank; ++i) {
    int64_t* part = i < first ? outer : i <= last ? rows : inner;
    *part *= a[i];
  }
  return true;
}

/// Shared implementation of unary elementwise ops: `span_fwd(x, out, n)`
/// fills the output. `dfn` receives the input value and the output value
/// (so e.g. sigmoid' can reuse the forward result).
template <typename SpanFn, typename DFn>
Tensor ElementwiseUnarySpan(const Tensor& x, SpanFn span_fwd, DFn dfn) {
  Tensor out = MakeResult(x.shape(), {x});
  span_fwd(x.data().data(), out.data().data(),
           static_cast<int64_t>(x.data().size()));
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, dfn]() {
      for (size_t i = 0; i < x_impl->data.size(); ++i) {
        x_impl->grad[i] +=
            self->grad[i] * dfn(x_impl->data[i], self->data[i]);
      }
    };
  }
  return out;
}

/// ElementwiseUnarySpan with the forward given per element.
template <typename FwdFn, typename DFn>
Tensor ElementwiseUnary(const Tensor& x, FwdFn fwd, DFn dfn) {
  return ElementwiseUnarySpan(
      x,
      [fwd](const float* in, float* out, int64_t n) {
        for (int64_t i = 0; i < n; ++i) out[i] = fwd(in[i]);
      },
      dfn);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  int64_t outer = 0;
  int64_t rows = 0;
  int64_t inner = 0;
  if (!RowBroadcastView(a.shape(), b.shape(), &outer, &rows, &inner)) {
    return ElementwiseBinary(
        a, b, [](float x, float y) { return x + y; },
        [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
  }
  // Same shape (rows == 1) or b broadcast over a run of rows: span kernels
  // in the order the element-wise walk adds in.
  Tensor out = MakeResult(a.shape(), {a, b});
  const int64_t block = rows * inner;
  for (int64_t o = 0; o < outer; ++o) {
    kernel::AddRowBroadcast(a.data().data() + o * block,
                            b.data().data() + o * inner,
                            out.data().data() + o * block, rows, inner);
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, a_impl = a.impl(), b_impl = b.impl(), outer,
                             rows, inner, block]() {
      const float* g = self->grad.data();
      if (a_impl->requires_grad) {
        kernel::AccumulateSpan(g, a_impl->grad.data(), outer * block);
      }
      if (b_impl->requires_grad) {
        AccumulateGrad(b_impl, [g, b_impl, outer, rows, inner, block] {
          for (int64_t o = 0; o < outer; ++o) {
            kernel::ColumnSumRows(g + o * block, rows, inner,
                                  b_impl->grad.data() + o * inner);
          }
        });
      }
    };
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& x, float c) {
  return ElementwiseUnary(
      x, [c](float v) { return v + c; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& x, float c) {
  return ElementwiseUnary(
      x, [c](float v) { return v * c; }, [c](float, float) { return c; });
}

Tensor Relu(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return v > 0 ? v : 0.0f; },
      [](float v, float) { return v > 0 ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& x) {
  Tensor out = MakeResult(x.shape(), {x});
  kernel::Tanh(x.data().data(), out.data().data(), x.numel());
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl = x.impl()]() {
      kernel::TanhBackward(self->data.data(), self->grad.data(),
                           x_impl->grad.data(),
                           static_cast<int64_t>(self->data.size()));
    };
  }
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  return ElementwiseUnarySpan(x, kernel::Sigmoid,
                              [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& x) {
  return ElementwiseUnarySpan(x, kernel::Exp,
                              [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return std::log(v); },
      [](float v, float) { return 1.0f / v; });
}

Tensor Reshape(const Tensor& x, const Shape& new_shape) {
  CHECK_EQ(NumElements(new_shape), x.numel())
      << "reshape" << ShapeToString(x.shape()) << "to"
      << ShapeToString(new_shape);
  Tensor out = MakeResult(new_shape, {x});
  out.data() = x.data();
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl]() {
      kernel::AccumulateSpan(self->grad.data(), x_impl->grad.data(),
                             static_cast<int64_t>(x_impl->grad.size()));
    };
  }
  return out;
}

Tensor Permute(const Tensor& x, const std::vector<int>& axes) {
  const int rank = x.rank();
  CHECK_EQ(static_cast<int>(axes.size()), rank);
  Shape out_shape(rank);
  for (int i = 0; i < rank; ++i) {
    CHECK(axes[i] >= 0 && axes[i] < rank);
    out_shape[i] = x.dim(axes[i]);
  }
  const std::vector<int64_t> in_strides = ContiguousStrides(x.shape());
  // Stride of output axis i in the input buffer.
  std::vector<int64_t> mapped(rank);
  for (int i = 0; i < rank; ++i) mapped[i] = in_strides[axes[i]];

  Tensor out = MakeResult(out_shape, {x});
  const int64_t total = x.numel();
  std::vector<int> index(rank, 0);
  {
    const std::vector<float>& xv = x.data();
    std::vector<float>& ov = out.data();
    int64_t in_off = 0;
    for (int64_t flat = 0; flat < total; ++flat) {
      ov[flat] = xv[in_off];
      for (int axis = rank - 1; axis >= 0; --axis) {
        ++index[axis];
        in_off += mapped[axis];
        if (index[axis] < out_shape[axis]) break;
        index[axis] = 0;
        in_off -= mapped[axis] * out_shape[axis];
      }
    }
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, out_shape, mapped, rank,
                             total]() {
      std::vector<int> idx(rank, 0);
      int64_t in_off = 0;
      for (int64_t flat = 0; flat < total; ++flat) {
        x_impl->grad[in_off] += self->grad[flat];
        for (int axis = rank - 1; axis >= 0; --axis) {
          ++idx[axis];
          in_off += mapped[axis];
          if (idx[axis] < out_shape[axis]) break;
          idx[axis] = 0;
          in_off -= mapped[axis] * out_shape[axis];
        }
      }
    };
  }
  return out;
}

Tensor TransposeLast2(const Tensor& x) {
  const int rank = x.rank();
  CHECK_GE(rank, 2);
  std::vector<int> axes(rank);
  for (int i = 0; i < rank; ++i) axes[i] = i;
  std::swap(axes[rank - 1], axes[rank - 2]);
  return Permute(x, axes);
}

Tensor Concat(const std::vector<Tensor>& tensors, int axis) {
  CHECK(!tensors.empty());
  const int rank = tensors[0].rank();
  if (axis < 0) axis += rank;
  CHECK(axis >= 0 && axis < rank);
  Shape out_shape = tensors[0].shape();
  out_shape[axis] = 0;
  for (const Tensor& t : tensors) {
    CHECK_EQ(t.rank(), rank);
    for (int i = 0; i < rank; ++i) {
      if (i != axis) CHECK_EQ(t.dim(i), out_shape[i]);
    }
    out_shape[axis] += t.dim(axis);
  }

  // View each input as [outer, t.dim(axis) * inner] blocks.
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= out_shape[i];
  int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= out_shape[i];

  Tensor out = MakeResult(out_shape, tensors);
  std::vector<float>& ov = out.data();
  const int64_t out_row = static_cast<int64_t>(out_shape[axis]) * inner;
  int64_t col_offset = 0;
  for (const Tensor& t : tensors) {
    const std::vector<float>& tv = t.data();
    const int64_t t_row = static_cast<int64_t>(t.dim(axis)) * inner;
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(tv.begin() + o * t_row, tv.begin() + (o + 1) * t_row,
                ov.begin() + o * out_row + col_offset);
    }
    col_offset += t_row;
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    std::vector<std::shared_ptr<internal::TensorImpl>> inputs;
    std::vector<int64_t> rows;
    for (const Tensor& t : tensors) {
      inputs.push_back(t.impl());
      rows.push_back(static_cast<int64_t>(t.dim(axis)) * inner);
    }
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, inputs, rows, outer, out_row]() {
      int64_t col = 0;
      for (size_t k = 0; k < inputs.size(); ++k) {
        if (inputs[k]->requires_grad) {
          for (int64_t o = 0; o < outer; ++o) {
            kernel::AccumulateSpan(self->grad.data() + o * out_row + col,
                                   inputs[k]->grad.data() + o * rows[k],
                                   rows[k]);
          }
        }
        col += rows[k];
      }
    };
  }
  return out;
}

Tensor SliceAxis(const Tensor& x, int axis, int start, int length) {
  const int rank = x.rank();
  if (axis < 0) axis += rank;
  CHECK(axis >= 0 && axis < rank);
  CHECK(start >= 0 && length >= 0 && start + length <= x.dim(axis));
  Shape out_shape = x.shape();
  out_shape[axis] = length;

  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= x.dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= x.dim(i);
  const int64_t in_row = static_cast<int64_t>(x.dim(axis)) * inner;
  const int64_t out_row = static_cast<int64_t>(length) * inner;
  const int64_t skip = static_cast<int64_t>(start) * inner;

  Tensor out = MakeResult(out_shape, {x});
  const std::vector<float>& xv = x.data();
  std::vector<float>& ov = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(xv.begin() + o * in_row + skip,
              xv.begin() + o * in_row + skip + out_row,
              ov.begin() + o * out_row);
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, outer, in_row, out_row,
                             skip]() {
      for (int64_t o = 0; o < outer; ++o) {
        kernel::AccumulateSpan(self->grad.data() + o * out_row,
                               x_impl->grad.data() + o * in_row + skip,
                               out_row);
      }
    };
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK_GE(a.rank(), 2);
  const int m = a.dim(a.rank() - 2);
  const int k = a.dim(a.rank() - 1);
  int64_t batch = 1;
  for (int i = 0; i < a.rank() - 2; ++i) batch *= a.dim(i);

  const bool shared_b = b.rank() == 2;
  if (shared_b) {
    CHECK_EQ(b.dim(0), k) << "matmul inner dims" << ShapeToString(a.shape())
                          << ShapeToString(b.shape());
  } else {
    CHECK_EQ(a.rank(), b.rank());
    for (int i = 0; i < a.rank() - 2; ++i) CHECK_EQ(a.dim(i), b.dim(i));
    CHECK_EQ(b.dim(b.rank() - 2), k);
  }
  const int n = b.dim(b.rank() - 1);

  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  out_shape.push_back(n);
  Tensor out = MakeResult(out_shape, {a, b});

  const std::vector<float>& av = a.data();
  const std::vector<float>& bv = b.data();
  std::vector<float>& ov = out.data();
  const int64_t a_stride = static_cast<int64_t>(m) * k;
  const int64_t b_stride = shared_b ? 0 : static_cast<int64_t>(k) * n;
  const int64_t o_stride = static_cast<int64_t>(m) * n;
  if (shared_b) {
    // Shared weight: every batch multiplies the same B, so the whole thing
    // is one [batch * m, k] x [k, n] GEMM.
    kernel::Gemm(batch * m, n, k, av.data(), bv.data(), ov.data(),
                 /*accumulate=*/false);
  } else {
    for (int64_t p = 0; p < batch; ++p) {
      kernel::Gemm(m, n, k, av.data() + p * a_stride, bv.data() + p * b_stride,
                   ov.data() + p * o_stride, /*accumulate=*/false);
    }
  }

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, a_impl, b_impl, shared_b, batch, m, n, k,
                             a_stride, b_stride, o_stride]() {
      const int64_t rows = shared_b ? batch * m : m;
      const int64_t nbatch = shared_b ? 1 : batch;
      for (int64_t p = 0; p < nbatch; ++p) {
        const float* gp = self->grad.data() + p * o_stride;
        const float* ap = a_impl->data.data() + p * a_stride;
        const float* bp = b_impl->data.data() + p * b_stride;
        if (a_impl->requires_grad) {
          // dA += dC @ B^T.
          kernel::PooledBuffer bt(static_cast<size_t>(k) * n,
                                  kernel::PooledBuffer::ForOverwrite{});
          kernel::Transpose(bp, k, n, n, bt.data());
          kernel::Gemm(rows, k, n, gp, n, bt.data(), k,
                       a_impl->grad.data() + p * a_stride, k,
                       /*accumulate=*/true);
        }
        if (b_impl->requires_grad) {
          // dB += A^T @ dC (one flattened GEMM when B is shared).
          AccumulateGrad(b_impl, [b_impl, ap, gp, k, n, rows, p, b_stride] {
            kernel::GemmAtB(k, n, rows, ap, k, gp, n,
                            b_impl->grad.data() + p * b_stride, n,
                            /*accumulate=*/true);
          });
        }
      }
    };
  }
  return out;
}

Tensor Sum(const Tensor& x) {
  Tensor out = MakeResult({}, {x});
  double acc = 0.0;
  for (float v : x.data()) acc += v;
  out.data()[0] = static_cast<float>(acc);
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl]() {
      const float g = self->grad[0];
      for (float& gx : x_impl->grad) gx += g;
    };
  }
  return out;
}

Tensor Mean(const Tensor& x) {
  CHECK_GT(x.numel(), 0);
  return MulScalar(Sum(x), 1.0f / static_cast<float>(x.numel()));
}

Tensor Softmax(const Tensor& x) {
  CHECK_GE(x.rank(), 1);
  const int n = x.dim(x.rank() - 1);
  const int64_t rows = x.numel() / n;
  Tensor out = MakeResult(x.shape(), {x});
  kernel::SoftmaxRows(x.data().data(), out.data().data(), rows, n);
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, rows, n]() {
      kernel::SoftmaxBackwardRows(self->data.data(), self->grad.data(),
                                  x_impl->grad.data(), rows, n);
    };
  }
  return out;
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& indices) {
  CHECK_EQ(table.rank(), 2);
  const int vocab = table.dim(0);
  const int width = table.dim(1);
  Tensor out =
      MakeResult({static_cast<int>(indices.size()), width}, {table});
  const std::vector<float>& tv = table.data();
  std::vector<float>& ov = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    CHECK(indices[i] >= 0 && indices[i] < vocab)
        << "embedding index" << indices[i] << "out of range" << vocab;
    std::copy(tv.begin() + static_cast<int64_t>(indices[i]) * width,
              tv.begin() + static_cast<int64_t>(indices[i] + 1) * width,
              ov.begin() + static_cast<int64_t>(i) * width);
  }
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto table_impl = table.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, table_impl, indices, width]() {
      AccumulateGrad(table_impl, [self, table_impl, indices, width] {
        for (size_t i = 0; i < indices.size(); ++i) {
          kernel::AccumulateSpan(
              self->grad.data() + static_cast<int64_t>(i) * width,
              table_impl->grad.data() +
                  static_cast<int64_t>(indices[i]) * width,
              width);
        }
      });
    };
  }
  return out;
}

Tensor Dropout(const Tensor& x, float p, bool training,
               DropoutStream* masks) {
  CHECK(p >= 0.0f && p < 1.0f);
  if (!training || p == 0.0f) return x;
  CHECK(masks != nullptr) << "training-mode dropout needs a DropoutStream";
  Tensor out = MakeResult(x.shape(), {x});
  std::shared_ptr<const float> mask = masks->Next(x.numel(), p);
  kernel::MulSpan(x.data().data(), mask.get(), out.data().data(), x.numel());
  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, mask = std::move(mask)]() {
      kernel::MulAccumulateSpan(self->grad.data(), mask.get(),
                                x_impl->grad.data(),
                                static_cast<int64_t>(x_impl->grad.size()));
    };
  }
  return out;
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  CHECK_GE(x.rank(), 1);
  const int n = x.dim(x.rank() - 1);
  CHECK_EQ(gamma.numel(), n);
  CHECK_EQ(beta.numel(), n);
  const int64_t rows = x.numel() / n;
  Tensor out = MakeResult(x.shape(), {x, gamma, beta});

  // Cache per-row statistics (pooled) for backward.
  kernel::PooledBuffer means(static_cast<size_t>(rows),
                             kernel::PooledBuffer::ForOverwrite{});
  kernel::PooledBuffer inv_std(static_cast<size_t>(rows),
                               kernel::PooledBuffer::ForOverwrite{});
  kernel::LayerNormRows(x.data().data(), gamma.data().data(),
                        beta.data().data(), eps, rows, n, out.data().data(),
                        means.data(), inv_std.data());

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    auto g_impl = gamma.impl();
    auto b_impl = beta.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, g_impl, b_impl, rows, n,
                             means = std::move(means),
                             inv_std = std::move(inv_std)]() {
      const float* gy = self->grad.data();
      const float* mu = means.data();
      const float* istd = inv_std.data();
      // One kernel call per output: gamma's and beta's column sums are
      // separate chains, each written in its own turn.
      auto backward = [=](float* gx, float* ggamma, float* gbeta) {
        kernel::LayerNormBackwardRows(x_impl->data.data(), g_impl->data.data(),
                                      gy, mu, istd, rows, n, gx, ggamma,
                                      gbeta);
      };
      if (g_impl->requires_grad) {
        AccumulateGrad(g_impl, [backward, g_impl] {
          backward(nullptr, g_impl->grad.data(), nullptr);
        });
      }
      if (b_impl->requires_grad) {
        AccumulateGrad(b_impl, [backward, b_impl] {
          backward(nullptr, nullptr, b_impl->grad.data());
        });
      }
      if (x_impl->requires_grad) {
        backward(x_impl->grad.data(), nullptr, nullptr);
      }
    };
  }
  return out;
}

Tensor LinearEx(const Tensor& x, const Tensor& w, const Tensor& b,
                Activation act) {
  CHECK_GE(x.rank(), 2);
  CHECK_EQ(w.rank(), 2);
  const int k = x.dim(x.rank() - 1);
  CHECK_EQ(w.dim(0), k) << "linear" << ShapeToString(x.shape())
                        << ShapeToString(w.shape());
  const int n = w.dim(1);
  const bool has_bias = b.defined();
  if (has_bias) CHECK_EQ(b.numel(), n);
  const int64_t rows = x.numel() / k;

  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  out_shape.push_back(n);
  std::vector<Tensor> inputs = {x, w};
  if (has_bias) inputs.push_back(b);
  Tensor out = MakeResult(out_shape, inputs);

  float* y = out.data().data();
  kernel::Gemm(rows, n, k, x.data().data(), w.data().data(), y,
               /*accumulate=*/false);
  if (has_bias) {
    if (act == Activation::kRelu) {
      kernel::AddBiasReluRows(y, b.data().data(), rows, n);
    } else {
      kernel::AddBiasRows(y, b.data().data(), rows, n);
    }
  } else if (act == Activation::kRelu) {
    kernel::ReluInPlace(y, rows * static_cast<int64_t>(n));
  }

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    auto x_impl = x.impl();
    auto w_impl = w.impl();
    auto b_impl = has_bias ? b.impl() : nullptr;
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn = [self, x_impl, w_impl, b_impl, rows, n, k,
                             act]() {
      const float* gy = self->grad.data();
      // Relu gate: y > 0 iff the pre-activation was > 0 (relu is identity
      // there), so the saved output doubles as the mask. Shared, since a
      // parameter write may read it after this closure returns.
      std::shared_ptr<kernel::PooledBuffer> gpre;
      if (act == Activation::kRelu) {
        gpre = std::make_shared<kernel::PooledBuffer>(
            static_cast<size_t>(rows) * n,
            kernel::PooledBuffer::ForOverwrite{});
        kernel::ReluGate(self->data.data(), gy, gpre->data(), rows * n);
        gy = gpre->data();
      }
      if (b_impl != nullptr && b_impl->requires_grad) {
        AccumulateGrad(b_impl, [gpre, gy, b_impl, rows, n] {
          kernel::ColumnSumRows(gy, rows, n, b_impl->grad.data());
        });
      }
      if (w_impl->requires_grad) {
        // dW += x^T @ gy.
        AccumulateGrad(w_impl, [gpre, gy, x_impl, w_impl, rows, n, k] {
          kernel::GemmAtB(k, n, rows, x_impl->data.data(), k, gy, n,
                          w_impl->grad.data(), n, /*accumulate=*/true);
        });
      }
      if (x_impl->requires_grad) {
        // dx += gy @ W^T.
        kernel::PooledBuffer wt(static_cast<size_t>(k) * n,
                                kernel::PooledBuffer::ForOverwrite{});
        kernel::Transpose(w_impl->data.data(), k, n, n, wt.data());
        kernel::Gemm(rows, k, n, gy, n, wt.data(), k, x_impl->grad.data(), k,
                     /*accumulate=*/true);
      }
    };
  }
  return out;
}

Tensor FusedSelfAttention(const Tensor& x, const Tensor& wq, const Tensor& bq,
                          const Tensor& wk, const Tensor& bk,
                          const Tensor& wv, const Tensor& bv,
                          const Tensor& wo, const Tensor& bo,
                          const Tensor& mask, int num_heads, float dropout_p,
                          bool training, DropoutStream* masks) {
  CHECK_EQ(x.rank(), 3);
  const int B = x.dim(0);
  const int N = x.dim(1);
  const int D = x.dim(2);
  const int H = num_heads;
  CHECK_GT(H, 0);
  CHECK_EQ(D % H, 0) << "model dim" << D << "not divisible by heads" << H;
  const int dh = D / H;
  const int64_t R = static_cast<int64_t>(B) * N;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (const Tensor* w : {&wq, &wk, &wv, &wo}) {
    CHECK_EQ(w->rank(), 2);
    CHECK_EQ(w->dim(0), D);
    CHECK_EQ(w->dim(1), D);
  }
  for (const Tensor* bias : {&bq, &bk, &bv, &bo}) CHECK_EQ(bias->numel(), D);
  if (mask.defined()) {
    CHECK_EQ(mask.rank(), 4);
    CHECK(mask.dim(0) == B && mask.dim(1) == 1 && mask.dim(2) == 1 &&
          mask.dim(3) == N)
        << "attention mask must be [B,1,1,N], got"
        << ShapeToString(mask.shape());
  }

  // Projections: three [R, D] GEMMs with fused bias, into pooled buffers
  // the backward closure keeps.
  const kernel::PooledBuffer::ForOverwrite overwrite;
  kernel::PooledBuffer q(static_cast<size_t>(R) * D, overwrite);
  kernel::PooledBuffer kbuf(static_cast<size_t>(R) * D, overwrite);
  kernel::PooledBuffer v(static_cast<size_t>(R) * D, overwrite);
  const float* xd = x.data().data();
  kernel::Gemm(R, D, D, xd, wq.data().data(), q.data(), false);
  kernel::AddBiasRows(q.data(), bq.data().data(), R, D);
  kernel::Gemm(R, D, D, xd, wk.data().data(), kbuf.data(), false);
  kernel::AddBiasRows(kbuf.data(), bk.data().data(), R, D);
  kernel::Gemm(R, D, D, xd, wv.data().data(), v.data(), false);
  kernel::AddBiasRows(v.data(), bv.data().data(), R, D);

  // Inverted-dropout keep/scale mask, one site over [B, H, N, N] — the
  // draws of the Dropout op this fuses (nothing else draws in between, so
  // drawing it before the panels changes no draw).
  const int64_t nn = static_cast<int64_t>(N) * N;
  const size_t panels_size = static_cast<size_t>(B) * H * nn;
  const bool has_dropout = training && dropout_p > 0.0f;
  std::shared_ptr<const float> dmask;
  kernel::PooledBuffer dropped;
  if (has_dropout) {
    CHECK(masks != nullptr) << "training-mode dropout needs a DropoutStream";
    dmask = masks->Next(static_cast<int64_t>(panels_size), dropout_p);
    dropped = kernel::PooledBuffer(panels_size, overwrite);
  }

  // Scores, then scale -> mask -> softmax -> dropout in one kernel pass,
  // one [N, N] panel per (batch, head). The pre-dropout probabilities are
  // kept for softmax backward, the dropped ones for dV.
  kernel::PooledBuffer probs(panels_size, overwrite);
  {
    kernel::PooledBuffer kt(static_cast<size_t>(dh) * N, overwrite);
    for (int b = 0; b < B; ++b) {
      const float* mrow =
          mask.defined() ? mask.data().data() + static_cast<int64_t>(b) * N
                         : nullptr;
      for (int h = 0; h < H; ++h) {
        const int64_t head_off = static_cast<int64_t>(b) * N * D + h * dh;
        const int64_t p_off = (static_cast<int64_t>(b) * H + h) * nn;
        float* prow = probs.data() + p_off;
        kernel::Transpose(kbuf.data() + head_off, N, dh, D, kt.data());
        kernel::Gemm(N, N, dh, q.data() + head_off, D, kt.data(), N, prow, N,
                     false);
        kernel::AttentionPanelForward(
            prow, mrow, scale, has_dropout ? dmask.get() + p_off : nullptr,
            has_dropout ? dropped.data() + p_off : nullptr, N, N);
      }
    }
  }
  const float* pd_all = has_dropout ? dropped.data() : probs.data();

  // Context: concat_heads(Pd @ V) written straight into a [R, D] panel via
  // ldc = D.
  kernel::PooledBuffer ctx(static_cast<size_t>(R) * D, overwrite);
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < H; ++h) {
      const int64_t head_off = static_cast<int64_t>(b) * N * D + h * dh;
      kernel::Gemm(N, dh, N, pd_all + (static_cast<int64_t>(b) * H + h) * nn,
                   N, v.data() + head_off, D, ctx.data() + head_off, D, false);
    }
  }

  Tensor out = MakeResult(x.shape(), {x, wq, bq, wk, bk, wv, bv, wo, bo});
  kernel::Gemm(R, D, D, ctx.data(), wo.data().data(), out.data().data(),
               false);
  kernel::AddBiasRows(out.data().data(), bo.data().data(), R, D);

  if (out.requires_grad()) {
    auto out_impl = out.impl();
    internal::TensorImpl* const self = out_impl.get();
    out_impl->backward_fn =
        [self, x_impl = x.impl(), wq_impl = wq.impl(), bq_impl = bq.impl(),
         wk_impl = wk.impl(), bk_impl = bk.impl(), wv_impl = wv.impl(),
         bv_impl = bv.impl(), wo_impl = wo.impl(), bo_impl = bo.impl(),
         q = std::move(q), kbuf = std::move(kbuf), v = std::move(v),
         probs = std::move(probs), dmask = std::move(dmask),
         dropped = std::move(dropped), ctx = std::move(ctx), B, N, D, H, dh,
         R, nn, scale, has_dropout]() {
          const kernel::PooledBuffer::ForOverwrite overwrite;
          const float* gy = self->grad.data();
          // Output projection.
          if (bo_impl->requires_grad) {
            AccumulateGrad(bo_impl, [gy, bo_impl, R, D] {
              kernel::ColumnSumRows(gy, R, D, bo_impl->grad.data());
            });
          }
          if (wo_impl->requires_grad) {
            AccumulateGrad(wo_impl, [ctx = ctx.data(), gy, wo_impl, R, D] {
              kernel::GemmAtB(D, D, R, ctx, D, gy, D, wo_impl->grad.data(), D,
                              true);
            });
          }
          kernel::PooledBuffer dctx(static_cast<size_t>(R) * D, overwrite);
          {
            kernel::PooledBuffer wot(static_cast<size_t>(D) * D, overwrite);
            kernel::Transpose(wo_impl->data.data(), D, D, D, wot.data());
            kernel::Gemm(R, D, D, gy, D, wot.data(), D, dctx.data(), D,
                         false);
          }
          // Per-(batch, head) attention backward into projection grads,
          // which accumulate over heads and so start zeroed. Shared, since
          // the parameter writes may read them after this closure returns.
          auto zeroed = [R, D] {
            return std::make_shared<kernel::PooledBuffer>(
                static_cast<size_t>(R) * D);
          };
          const std::shared_ptr<kernel::PooledBuffer> dq = zeroed();
          const std::shared_ptr<kernel::PooledBuffer> dk = zeroed();
          const std::shared_ptr<kernel::PooledBuffer> dv = zeroed();
          kernel::PooledBuffer vt(static_cast<size_t>(dh) * N, overwrite);
          kernel::PooledBuffer dpd(static_cast<size_t>(nn), overwrite);
          kernel::PooledBuffer ds(static_cast<size_t>(nn), overwrite);
          for (int b = 0; b < B; ++b) {
            for (int h = 0; h < H; ++h) {
              const int64_t head_off =
                  static_cast<int64_t>(b) * N * D + h * dh;
              const int64_t p_off = (static_cast<int64_t>(b) * H + h) * nn;
              const float* p_bh = probs.data() + p_off;
              const float* pd_bh = has_dropout ? dropped.data() + p_off : p_bh;
              const float* dctx_bh = dctx.data() + head_off;
              // dPd = dctx @ V^T; dV += Pd^T @ dctx.
              kernel::Transpose(v.data() + head_off, N, dh, D, vt.data());
              kernel::Gemm(N, N, dh, dctx_bh, D, vt.data(), N, dpd.data(), N,
                           false);
              kernel::GemmAtB(N, dh, N, pd_bh, N, dctx_bh, D,
                              dv->data() + head_off, D, true);
              // Through dropout and softmax, then the 1/sqrt(dh) scale.
              kernel::AttentionPanelBackward(
                  p_bh, has_dropout ? dmask.get() + p_off : nullptr,
                  dpd.data(), scale, ds.data(), N, N);
              // dQ += dS @ K; dK += dS^T @ Q.
              kernel::Gemm(N, dh, N, ds.data(), N, kbuf.data() + head_off, D,
                           dq->data() + head_off, D, true);
              kernel::GemmAtB(N, dh, N, ds.data(), N, q.data() + head_off,
                              D, dk->data() + head_off, D, true);
            }
          }
          // Input projections: dX += dP @ W^T, dW += X^T @ dP, db += colsum.
          const struct {
            const std::shared_ptr<kernel::PooledBuffer>& dproj;
            const std::shared_ptr<internal::TensorImpl>& w;
            const std::shared_ptr<internal::TensorImpl>& bias;
          } branches[] = {{dq, wq_impl, bq_impl},
                          {dk, wk_impl, bk_impl},
                          {dv, wv_impl, bv_impl}};
          kernel::PooledBuffer wt(static_cast<size_t>(D) * D, overwrite);
          for (const auto& br : branches) {
            if (br.bias->requires_grad) {
              AccumulateGrad(br.bias, [dproj = br.dproj, bias = br.bias, R, D] {
                kernel::ColumnSumRows(dproj->data(), R, D, bias->grad.data());
              });
            }
            if (br.w->requires_grad) {
              AccumulateGrad(br.w, [dproj = br.dproj, w = br.w, x_impl, R, D] {
                kernel::GemmAtB(D, D, R, x_impl->data.data(), D, dproj->data(),
                                D, w->grad.data(), D, true);
              });
            }
            if (x_impl->requires_grad) {
              kernel::Transpose(br.w->data.data(), D, D, D, wt.data());
              kernel::Gemm(R, D, D, br.dproj->data(), D, wt.data(), D,
                           x_impl->grad.data(), D, true);
            }
          }
        };
  }
  return out;
}

}  // namespace nn
}  // namespace dlinf
