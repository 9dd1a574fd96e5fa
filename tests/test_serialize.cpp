#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>

#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace rn = readys::nn;
namespace rt = readys::tensor;
using readys::util::Rng;

namespace {

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace

TEST(Serialize, InMemoryRoundTripIsExact) {
  Rng rng1(1);
  Rng rng2(2);
  rn::Mlp a({4, 8, 2}, rng1);
  rn::Mlp b({4, 8, 2}, rng2);
  rn::deserialize_parameters(b, rn::serialize_parameters(a));
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value() == pb[i].value()) << "param " << i;
  }
}

TEST(Serialize, TextMatchesStreamFormatting) {
  // The blob's number text must stay what `<< setprecision(17)` writes:
  // checkpoints and weight files written before and after compare equal.
  Rng rng(11);
  rn::Linear layer(128, 256, rng);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             0.1,
                             1e-300,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 3.0,
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             inf,
                             -inf,
                             123456789012345678.0,
                             1e16,
                             1e17};
  std::size_t n = 0;
  for (auto& p : layer.parameters()) {
    rt::Tensor& t = p.mutable_value();
    for (std::size_t i = 0; i < t.size(); ++i, ++n) {
      if (n < std::size(specials)) {
        t[i] = specials[n];
      } else {
        const std::uint64_t bits = rng();
        std::memcpy(&t[i], &bits, sizeof bits);
      }
    }
  }
  ASSERT_GT(n, 30000u);

  std::ostringstream os;
  os << "readys-weights v1\n" << std::setprecision(17);
  std::size_t count = 0;
  for (const auto& [name, var] : layer.named_parameters()) {
    const rt::Tensor& t = var.value();
    os << name << ' ' << t.rows() << ' ' << t.cols() << '\n';
    for (std::size_t i = 0; i < t.size(); ++i) {
      os << t[i] << (i + 1 == t.size() ? '\n' : ' ');
    }
    ++count;
  }
  os << "end " << count << '\n';
  EXPECT_EQ(rn::serialize_parameters(layer), os.str());
}

TEST(Serialize, FileRoundTripPreservesForwardPass) {
  Rng rng1(3);
  Rng rng2(4);
  rn::Mlp a({5, 6, 1}, rng1);
  rn::Mlp b({5, 6, 1}, rng2);
  const auto path = temp_file("readys_test_weights.txt");
  rn::save_parameters(a, path.string());
  rn::load_parameters(b, path.string());
  std::filesystem::remove(path);

  rt::Tensor x = rt::Tensor::randn(3, 5, rng1);
  auto ya = a.forward(rt::Var(x)).value();
  auto yb = b.forward(rt::Var(x)).value();
  EXPECT_TRUE(ya == yb);
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Rng rng(5);
  rn::Mlp a({4, 8, 2}, rng);
  rn::Mlp wrong_shape({4, 9, 2}, rng);
  rn::Mlp wrong_depth({4, 8, 8, 2}, rng);
  const std::string blob = rn::serialize_parameters(a);
  EXPECT_THROW(rn::deserialize_parameters(wrong_shape, blob),
               std::runtime_error);
  EXPECT_THROW(rn::deserialize_parameters(wrong_depth, blob),
               std::runtime_error);
}

TEST(Serialize, BadHeaderThrows) {
  Rng rng(6);
  rn::Mlp a({2, 2}, rng);
  EXPECT_THROW(rn::deserialize_parameters(a, "not-a-weights-file\n"),
               std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  Rng rng(7);
  rn::Mlp a({2, 2}, rng);
  EXPECT_THROW(rn::load_parameters(a, "/nonexistent/readys.txt"),
               std::runtime_error);
  EXPECT_THROW(rn::save_parameters(a, "/nonexistent/readys.txt"),
               std::runtime_error);
}

TEST(Serialize, SaveIsAtomicAndLeavesNoTmp) {
  Rng rng(8);
  rn::Mlp a({3, 4, 1}, rng);
  const auto path = temp_file("readys_test_atomic.txt");
  const auto tmp = path.string() + ".tmp";
  // Plant a pre-existing file so the rename provably replaces it whole.
  rn::save_parameters(a, path.string());
  rn::save_parameters(a, path.string());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  rn::Mlp b({3, 4, 1}, rng);
  rn::load_parameters(b, path.string());
  EXPECT_EQ(rn::serialize_parameters(a), rn::serialize_parameters(b));
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedDataErrorNamesParamShapeAndLine) {
  Rng rng(9);
  rn::Mlp m({2, 2}, rng);
  // A 1x2 parameter with only one value on its data line (line 3).
  const std::string blob = "readys-weights v1\nw 1 2\n0.5\n";
  try {
    rn::deserialize_parameters(m, blob);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'w'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(1x2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("found 1"), std::string::npos) << msg;
  }
}

TEST(Serialize, ShapeMismatchErrorShowsExpectedVsFound) {
  Rng rng(10);
  rn::Mlp a({4, 8, 2}, rng);
  rn::Mlp wrong({4, 9, 2}, rng);
  try {
    rn::deserialize_parameters(wrong, rn::serialize_parameters(a));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    // Names the parameter and both shapes.
    EXPECT_NE(msg.find("shape mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("module expects"), std::string::npos) << msg;
    EXPECT_NE(msg.find("file has"), std::string::npos) << msg;
    const auto named = wrong.named_parameters();
    ASSERT_FALSE(named.empty());
    bool names_some_param = false;
    for (const auto& [pname, var] : named) {
      names_some_param =
          names_some_param || msg.find("'" + pname + "'") != std::string::npos;
    }
    EXPECT_TRUE(names_some_param) << msg;
  }
}

TEST(Serialize, MalformedHeaderReportsLineNumber) {
  Rng rng(11);
  rn::Mlp m({2, 2}, rng);
  const std::string blob = "readys-weights v1\nnot a header\n";
  try {
    rn::deserialize_parameters(m, blob);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
}
