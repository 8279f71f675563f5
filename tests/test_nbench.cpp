// Tests for the NBench/ByteMark kernel suite: determinism, sanity of each
// algorithm's result, and the composite-index aggregation.

#include <gtest/gtest.h>

#include <ostream>

#include "util/error.hpp"
#include "workloads/nbench/kernels.hpp"
#include "workloads/nbench/suite.hpp"

namespace vgrid::workloads::nbench {
namespace {

using Runner = KernelResult (*)(std::uint64_t, std::uint64_t);

struct NamedKernel {
  const char* name;
  Runner runner;
};

// gtest's default printer dumps the struct's raw bytes — pointers that ASLR
// moves on every run — into the discovered ctest names; print the name.
void PrintTo(const NamedKernel& kernel, std::ostream* os) {
  *os << kernel.name;
}

const NamedKernel kKernels[] = {
    {"numeric_sort", run_numeric_sort}, {"string_sort", run_string_sort},
    {"bitfield", run_bitfield},         {"assignment", run_assignment},
    {"idea", run_idea},                 {"huffman", run_huffman},
    {"fourier", run_fourier},           {"neural", run_neural},
    {"lu_decomp", run_lu_decomp},
};

class KernelParam : public ::testing::TestWithParam<NamedKernel> {};

TEST_P(KernelParam, RunsRequestedIterations) {
  const KernelResult result = GetParam().runner(2, 11);
  EXPECT_EQ(result.iterations, 2u);
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

TEST_P(KernelParam, DeterministicForSameSeed) {
  const KernelResult a = GetParam().runner(2, 123);
  const KernelResult b = GetParam().runner(2, 123);
  EXPECT_EQ(a.checksum, b.checksum) << GetParam().name;
}

TEST_P(KernelParam, ChecksumNonTrivial) {
  const KernelResult result = GetParam().runner(1, 5);
  EXPECT_NE(result.checksum, 0u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelParam,
                         ::testing::ValuesIn(kKernels),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

TEST(Kernels, SeedChangesRandomizedChecksums) {
  // Kernels operating on random data must differ across seeds (fourier is
  // deterministic by construction and excluded).
  for (const auto& kernel : kKernels) {
    if (std::string(kernel.name) == "fourier") continue;
    const KernelResult a = kernel.runner(1, 1);
    const KernelResult b = kernel.runner(1, 2);
    EXPECT_NE(a.checksum, b.checksum) << kernel.name;
  }
}

TEST(Suite, RunsAllNineKernels) {
  SuiteConfig config;
  config.iterations = 1;
  const SuiteResult suite = run_suite(config);
  EXPECT_EQ(suite.kernels.size(), 9u);
}

TEST(Suite, IndexesArePositiveGeoMeans) {
  SuiteConfig config;
  config.iterations = 1;
  const SuiteResult suite = run_suite(config);
  EXPECT_GT(suite.mem_index, 0.0);
  EXPECT_GT(suite.int_index, 0.0);
  EXPECT_GT(suite.fp_index, 0.0);
  EXPECT_DOUBLE_EQ(suite.index_value(Index::kMem), suite.mem_index);
}

TEST(Suite, KernelsGroupedThreePerIndex) {
  SuiteConfig config;
  config.iterations = 1;
  const SuiteResult suite = run_suite(config);
  int mem = 0, integer = 0, fp = 0;
  for (const auto& kernel : suite.kernels) {
    switch (kernel.index) {
      case Index::kMem: ++mem; break;
      case Index::kInt: ++integer; break;
      case Index::kFp: ++fp; break;
    }
  }
  EXPECT_EQ(mem, 3);
  EXPECT_EQ(integer, 3);
  EXPECT_EQ(fp, 3);
}

TEST(IndexWorkload, NamesAndPrograms) {
  const NBenchIndexWorkload mem(Index::kMem);
  EXPECT_EQ(mem.name(), "nbench-MEM");
  auto program = mem.make_program();
  const os::Step step = program->next();
  const auto* compute = std::get_if<os::ComputeStep>(&step);
  ASSERT_NE(compute, nullptr);
  EXPECT_GT(compute->mix.memory, 0.5);  // MEM index is memory-bound
}

TEST(IndexWorkload, FpProgramIsFpBound) {
  const NBenchIndexWorkload fp(Index::kFp);
  auto program = fp.make_program();
  const os::Step step = program->next();
  const auto* compute = std::get_if<os::ComputeStep>(&step);
  ASSERT_NE(compute, nullptr);
  EXPECT_GT(compute->mix.user_fp, 0.5);
}

TEST(IndexWorkload, RejectsNonPositiveInstructions) {
  EXPECT_THROW(NBenchIndexWorkload(Index::kInt, 0.0), util::ConfigError);
}

}  // namespace
}  // namespace vgrid::workloads::nbench
