#include "apps/gesummv.h"

#include <gtest/gtest.h>

#include "apps/reference.h"

namespace smi::apps {
namespace {

GesummvConfig SmallConfig(std::size_t rows, std::size_t cols) {
  GesummvConfig config;
  config.rows = rows;
  config.cols = cols;
  config.alpha = 1.5f;
  config.beta = -0.5f;
  config.seed = 11;
  return config;
}

void ExpectMatchesReference(const GesummvConfig& config,
                            const std::vector<float>& y) {
  const auto a = MakeMatrix(config.rows, config.cols, config.seed);
  const auto b = MakeMatrix(config.rows, config.cols, config.seed + 1);
  const auto x = MakeVector(config.cols, config.seed + 2);
  // GEMV accumulates in the same j order as the reference, and AXPY applies
  // the same expression, so the float results must match exactly.
  std::vector<float> expect(config.rows);
  for (std::size_t i = 0; i < config.rows; ++i) {
    float ax = 0.0f, bx = 0.0f;
    for (std::size_t j = 0; j < config.cols; ++j) {
      ax += a[i * config.cols + j] * x[j];
      bx += b[i * config.cols + j] * x[j];
    }
    expect[i] = config.alpha * ax + config.beta * bx;
  }
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(y[i], expect[i]) << "row " << i;
  }
}

TEST(Gesummv, SingleFpgaMatchesReference) {
  const GesummvConfig config = SmallConfig(32, 64);
  const GesummvResult result = RunGesummvSingleFpga(config);
  ExpectMatchesReference(config, result.y);
}

TEST(Gesummv, DistributedMatchesReference) {
  const GesummvConfig config = SmallConfig(32, 64);
  const GesummvResult result = RunGesummvDistributed(config);
  ExpectMatchesReference(config, result.y);
}

TEST(Gesummv, RectangularMatrices) {
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{16, 128},
        std::pair<std::size_t, std::size_t>{100, 32}}) {
    const GesummvConfig config = SmallConfig(rows, cols);
    ExpectMatchesReference(config, RunGesummvSingleFpga(config).y);
    ExpectMatchesReference(config, RunGesummvDistributed(config).y);
  }
}

TEST(Gesummv, DistributedIsAboutTwiceAsFast) {
  // Fig. 13: the distributed version gains 2x aggregate memory bandwidth
  // and therefore ~2x speedup on this memory-bound routine.
  const GesummvConfig config = SmallConfig(128, 512);
  const GesummvResult single = RunGesummvSingleFpga(config);
  const GesummvResult dist = RunGesummvDistributed(config);
  const double speedup = static_cast<double>(single.run.cycles) /
                         static_cast<double>(dist.run.cycles);
  EXPECT_GT(speedup, 1.7);
  EXPECT_LT(speedup, 2.3);
}

TEST(Gesummv, RejectsBadShapes) {
  GesummvConfig config = SmallConfig(16, 30);  // cols not multiple of 16
  EXPECT_THROW(RunGesummvSingleFpga(config), ConfigError);
  config = SmallConfig(0, 32);
  EXPECT_THROW(RunGesummvDistributed(config), ConfigError);
}

}  // namespace
}  // namespace smi::apps
