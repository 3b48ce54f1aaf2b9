#ifndef TURL_TESTS_TEST_UTIL_H_
#define TURL_TESTS_TEST_UTIL_H_

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/tensor.h"

namespace turl {
namespace nn {
namespace testing {

/// Central-difference gradient checker, after caffe2's
/// GradientChecker.CheckSimple: a step size, a threshold, and one check per
/// input, each comparing an analytic gradient against
/// (L(x + step) - L(x - step)) / (2 step) element by element with the mixed
/// bound threshold * (1 + |numeric|). It runs at two levels:
///  - CheckSimple drives a raw kernel pair (forward buffers in, backward
///    buffers out) under the loss 1/2 sum of squares over the chosen
///    outputs, whose gradient with respect to each such output is the
///    output itself;
///  - CheckTape drives anything built on autograd Tensors, under the scalar
///    loss the caller's graph ends in.
class GradientChecker {
 public:
  using Buffers = std::vector<std::vector<float>>;
  /// Computes every output from the inputs.
  using Op = std::function<Buffers(const Buffers& inputs)>;
  /// Gets (inputs, outputs, output gradients) and returns one gradient per
  /// input; an unchecked input's entry may be empty. Output gradients are
  /// empty for outputs outside `outputs_with_grads`.
  using GradOp = std::function<Buffers(const Buffers& inputs,
                                       const Buffers& outputs,
                                       const Buffers& output_grads)>;

  explicit GradientChecker(float stepsize = 1e-2f, float threshold = 2e-2f)
      : stepsize_(stepsize), threshold_(threshold) {}

  /// Checks d loss / d inputs[input_to_check], loss being 1/2 the sum of
  /// squares of op's outputs listed in `outputs_with_grads`.
  void CheckSimple(const Op& op, const GradOp& grad_op, Buffers inputs,
                   size_t input_to_check,
                   const std::vector<size_t>& outputs_with_grads) const {
    ASSERT_LT(input_to_check, inputs.size());
    const auto loss = [&] {
      const Buffers outputs = op(inputs);
      double sum = 0.0;
      for (size_t o : outputs_with_grads) {
        for (float v : outputs.at(o)) sum += 0.5 * double(v) * double(v);
      }
      return sum;
    };
    const Buffers outputs = op(inputs);
    Buffers output_grads(outputs.size());
    for (size_t o : outputs_with_grads) output_grads.at(o) = outputs.at(o);
    const Buffers grads = grad_op(inputs, outputs, output_grads);
    ASSERT_LT(input_to_check, grads.size());
    std::vector<float>& x = inputs[input_to_check];
    ExpectMatchesNumeric(x.data(), int64_t(x.size()), grads[input_to_check],
                         loss, "input " + std::to_string(input_to_check));
  }

  /// Checks every input of a taped computation. `forward` must rebuild the
  /// graph from the *current contents* of `inputs` and return a scalar
  /// loss; one Backward() gives the analytic gradients.
  void CheckTape(const std::function<Tensor()>& forward,
                 std::vector<Tensor> inputs) const {
    for (auto& t : inputs) t.ZeroGrad();
    Tensor loss = forward();
    ASSERT_EQ(loss.numel(), 1);
    loss.Backward();
    std::vector<std::vector<float>> analytic;
    analytic.reserve(inputs.size());
    for (auto& t : inputs) analytic.push_back(t.grad_vector());
    for (size_t ti = 0; ti < inputs.size(); ++ti) {
      ExpectMatchesNumeric(
          inputs[ti].data(), inputs[ti].numel(), analytic[ti],
          [&] { return double(forward().item()); },
          "input " + std::to_string(ti));
    }
  }

 private:
  /// Perturbs each x[i] by +-stepsize_ and compares the central difference
  /// of `loss` with analytic[i] (empty: no gradient reached the input, so
  /// every analytic entry is 0).
  void ExpectMatchesNumeric(float* x, int64_t n,
                            const std::vector<float>& analytic,
                            const std::function<double()>& loss,
                            const std::string& what) const {
    for (int64_t i = 0; i < n; ++i) {
      const float saved = x[i];
      x[i] = saved + stepsize_;
      const double lp = loss();
      x[i] = saved - stepsize_;
      const double lm = loss();
      x[i] = saved;
      const float numeric = float((lp - lm) / (2.0 * double(stepsize_)));
      const float got = analytic.empty() ? 0.f : analytic[size_t(i)];
      EXPECT_NEAR(got, numeric, threshold_ * (1.f + std::abs(numeric)))
          << what << " element " << i;
    }
  }

  float stepsize_;
  float threshold_;
};

}  // namespace testing
}  // namespace nn
}  // namespace turl

#endif  // TURL_TESTS_TEST_UTIL_H_
