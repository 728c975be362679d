#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace perfbench {

const std::vector<std::string>& MlpStateKeys() {
  static const std::vector<std::string> keys = {"mlp:w1", "mlp:b1", "mlp:w2",
                                                "mlp:b2", "mlp:w3", "mlp:b3"};
  return keys;
}

MlpWeights MakeMlpWeights(const MlpShape& shape, std::mt19937_64& rng) {
  const size_t sizes[6] = {size_t{shape.input} * shape.hidden1, shape.hidden1,
                           size_t{shape.hidden1} * shape.hidden2, shape.hidden2,
                           size_t{shape.hidden2} * shape.output, shape.output};
  std::normal_distribution<float> normal(0.0f, 0.2f);
  MlpWeights weights;
  for (int k = 0; k < 6; ++k) {
    weights.tensors[k].resize(sizes[k]);
    for (float& w : weights.tensors[k]) {
      w = normal(rng);
    }
  }
  return weights;
}

std::vector<float> MakeImage(const MlpShape& shape, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> uniform(0.0f, 1.0f);
  std::vector<float> image(shape.input);
  for (float& pixel : image) {
    pixel = uniform(rng);
  }
  return image;
}

namespace {

std::vector<float> Dense(const std::vector<float>& in, const std::vector<float>& weights,
                         const std::vector<float>& bias, bool relu) {
  const size_t n_out = bias.size();
  std::vector<float> out(n_out);
  for (size_t j = 0; j < n_out; ++j) {
    float acc = bias[j];
    for (size_t i = 0; i < in.size(); ++i) {
      acc = in[i] * weights[i * n_out + j] + acc;
    }
    out[j] = relu ? std::max(acc, 0.0f) : acc;
  }
  return out;
}

}  // namespace

uint32_t MlpClass(const MlpShape& shape, const MlpWeights& weights,
                  const std::vector<float>& image) {
  const auto& t = weights.tensors;
  const std::vector<float> h1 = Dense(image, t[0], t[1], true);
  const std::vector<float> h2 = Dense(h1, t[2], t[3], true);
  const std::vector<float> logits = Dense(h2, t[4], t[5], false);
  uint32_t best = 0;
  for (uint32_t j = 1; j < shape.output; ++j) {
    if (logits[j] > logits[best]) {
      best = j;
    }
  }
  return best;
}

bool ClassMatches(const std::vector<uint8_t>& output, uint32_t expected) {
  uint32_t got = 0;
  if (output.size() != sizeof(got)) {
    return false;
  }
  std::memcpy(&got, output.data(), sizeof(got));
  return got == expected;
}

std::vector<double> MakeMatrix(uint32_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uniform(-0.5, 0.5);
  std::vector<double> m(static_cast<size_t>(n) * n);
  for (double& v : m) {
    v = uniform(rng);
  }
  return m;
}

std::vector<double> MultiplyReference(const std::vector<double>& a, const std::vector<double>& b,
                                      uint32_t n) {
  // i-k-j order keeps a 512 x 512 reference well under a second.
  std::vector<double> c(static_cast<size_t>(n) * n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    double* c_row = &c[static_cast<size_t>(i) * n];
    for (uint32_t k = 0; k < n; ++k) {
      const double aik = a[static_cast<size_t>(i) * n + k];
      const double* b_row = &b[static_cast<size_t>(k) * n];
      for (uint32_t j = 0; j < n; ++j) {
        c_row[j] += aik * b_row[j];
      }
    }
  }
  return c;
}

double RelativeError(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size() || want.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double max_diff = 0;
  double max_want = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const double diff = std::fabs(got[i] - want[i]);
    if (!(diff <= max_diff)) {  // also catches NaN
      max_diff = std::isnan(diff) ? std::numeric_limits<double>::infinity() : diff;
    }
    max_want = std::max(max_want, std::fabs(want[i]));
  }
  return max_want == 0 ? max_diff : max_diff / max_want;
}

bool ProductMatches(const std::vector<uint8_t>& output, const std::vector<double>& reference) {
  if (output.size() != reference.size() * sizeof(double)) {
    return false;
  }
  std::vector<double> product(reference.size());
  std::memcpy(product.data(), output.data(), output.size());
  return RelativeError(product, reference) <= kProductTolerance;
}

SparseDataset MakeSparseDataset(uint32_t n_examples, uint32_t n_features, uint32_t nnz_per_example,
                                std::mt19937_64& rng) {
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_int_distribution<uint32_t> feature(0, n_features - 1);
  // Labels come from hidden true weights plus noise, so training can fit them.
  std::vector<double> truth(n_features);
  for (double& w : truth) {
    w = normal(rng);
  }
  SparseDataset data;
  data.n_examples = n_examples;
  data.n_features = n_features;
  data.values.reserve(size_t{n_examples} * nnz_per_example);
  data.rows.reserve(size_t{n_examples} * nnz_per_example);
  data.col_ptr.assign(n_examples + 1, 0);
  data.labels.resize(n_examples);
  for (uint32_t col = 0; col < n_examples; ++col) {
    double label = 0;
    for (uint32_t k = 0; k < nnz_per_example; ++k) {
      const uint32_t row = feature(rng);
      const double value = normal(rng);
      data.rows.push_back(row);
      data.values.push_back(value);
      label += truth[row] * value;
    }
    data.col_ptr[col + 1] = data.values.size();
    data.labels[col] = label + 0.1 * normal(rng);
  }
  return data;
}

double DatasetMse(const SparseDataset& data, const std::vector<double>& weights, size_t n_cols) {
  double sum_sq = 0;
  for (size_t col = 0; col < n_cols; ++col) {
    double prediction = 0;
    for (uint64_t k = data.col_ptr[col]; k < data.col_ptr[col + 1]; ++k) {
      prediction += weights[data.rows[k]] * data.values[k];
    }
    const double error = data.labels[col] - prediction;
    sum_sq += error * error;
  }
  return sum_sq / static_cast<double>(n_cols);
}

bool WeightsTrained(const SparseDataset& data, const std::vector<double>& weights) {
  if (weights.size() != data.n_features) {
    return false;
  }
  const std::vector<double> zero(data.n_features, 0.0);
  const double mse = DatasetMse(data, weights, data.n_examples);
  return mse <= kTrainedMseShare * DatasetMse(data, zero, data.n_examples);
}

bool LossAgrees(double reported, double expected) {
  return std::fabs(reported - expected) <= kLossTolerance * std::fabs(expected);
}

}  // namespace perfbench
