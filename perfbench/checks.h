// Input generation and output checks for the benchmark workloads. Every
// check recomputes the expected result here, from the benchmark's own
// inputs, without calling the program's reference implementations.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

// --- inference: 784-128-64-10 MLP -------------------------------------------

struct MlpShape {
  uint32_t input = 784;
  uint32_t hidden1 = 128;
  uint32_t hidden2 = 64;
  uint32_t output = 10;
};

// Weight and bias tensors in the order of MlpStateKeys().
struct MlpWeights {
  std::vector<float> tensors[6];
};

// State keys the wasm MLP module reads its tensors from (w1 b1 w2 b2 w3 b3).
const std::vector<std::string>& MlpStateKeys();

MlpWeights MakeMlpWeights(const MlpShape& shape, std::mt19937_64& rng);
std::vector<float> MakeImage(const MlpShape& shape, std::mt19937_64& rng);
// Forward pass in f32, accumulating in the same order as the guest code.
uint32_t MlpClass(const MlpShape& shape, const MlpWeights& weights,
                  const std::vector<float>& image);
// A call output holds exactly the expected class as a little-endian u32.
bool ClassMatches(const std::vector<uint8_t>& output, uint32_t expected);

// --- matmul -----------------------------------------------------------------

std::vector<double> MakeMatrix(uint32_t n, std::mt19937_64& rng);
std::vector<double> MultiplyReference(const std::vector<double>& a, const std::vector<double>& b,
                                      uint32_t n);
// max |got - want| / max |want|; infinity on a size mismatch or a NaN.
double RelativeError(const std::vector<double>& got, const std::vector<double>& want);
constexpr double kProductTolerance = 1e-9;
// A call output holds an n x n f64 product within kProductTolerance.
bool ProductMatches(const std::vector<uint8_t>& output, const std::vector<double>& reference);

// --- sgd --------------------------------------------------------------------

// Column-compressed sparse dataset in the layout the program's
// SparseMatrixCsc reads: f64 values, u32 row indices, u64 column pointers.
struct SparseDataset {
  uint32_t n_examples = 0;
  uint32_t n_features = 0;
  std::vector<double> values;
  std::vector<uint32_t> rows;
  std::vector<uint64_t> col_ptr;
  std::vector<double> labels;
};

SparseDataset MakeSparseDataset(uint32_t n_examples, uint32_t n_features, uint32_t nnz_per_example,
                                std::mt19937_64& rng);
// Mean squared error of `weights` over columns [0, n_cols).
double DatasetMse(const SparseDataset& data, const std::vector<double>& weights, size_t n_cols);
// The final-weights criterion: full-dataset MSE at most this share of the
// zero-weight MSE.
constexpr double kTrainedMseShare = 0.01;
bool WeightsTrained(const SparseDataset& data, const std::vector<double>& weights);
// The per-epoch loss report criterion.
constexpr double kLossTolerance = 1e-9;
bool LossAgrees(double reported, double expected);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
