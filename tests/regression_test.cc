/**
 * @file
 * Tests for the regression primitives: linear solves, OLS fits,
 * feature scaling, R^2, quadratic expansion and serialization.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/regression.h"
#include "util/random.h"

namespace ceer {
namespace core {
namespace {

TEST(SolveTest, SolvesKnownSystem)
{
    // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
    const auto x = solveLinearSystem({{2, 1}, {1, -1}}, {5, 1});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveTest, PivotsOnZeroDiagonal)
{
    // First pivot is zero; partial pivoting must handle it.
    const auto x = solveLinearSystem({{0, 1}, {1, 0}}, {3, 4});
    EXPECT_NEAR(x[0], 4.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveTest, SingularMatrixDies)
{
    EXPECT_DEATH(solveLinearSystem({{1, 1}, {2, 2}}, {1, 2}),
                 "singular");
}

TEST(LinearModelTest, RecoversExactLinearRelation)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (double a = 0; a < 10; ++a) {
        for (double b = 0; b < 5; ++b) {
            X.push_back({a, b});
            y.push_back(3.0 * a - 2.0 * b + 7.0);
        }
    }
    const LinearModel model = LinearModel::fit(X, y);
    EXPECT_NEAR(model.predict(std::vector<double>{4.0, 1.0}), 17.0, 1e-6);
    EXPECT_NEAR(model.rSquared(X, y), 1.0, 1e-9);
    const auto weights = model.weights();
    EXPECT_NEAR(weights[0], 3.0, 1e-6);
    EXPECT_NEAR(weights[1], -2.0, 1e-6);
    EXPECT_NEAR(model.intercept(), 7.0, 1e-5);
}

TEST(LinearModelTest, HandlesByteScaleFeatures)
{
    // Features at 1e8 scale (bytes) must stay well conditioned.
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    util::Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const double bytes = rng.uniform(1e6, 2e8);
        X.push_back({bytes});
        y.push_back(12.0 + bytes / 65e3 + 2.0 * rng.normal());
    }
    const LinearModel model = LinearModel::fit(X, y);
    EXPECT_GT(model.rSquared(X, y), 0.999);
    EXPECT_NEAR(model.predict(std::vector<double>{1e8}), 12.0 + 1e8 / 65e3,
                0.01 * (12.0 + 1e8 / 65e3));
}

TEST(LinearModelTest, ToleratesCollinearFeatures)
{
    // Second feature is an exact multiple of the first; ridge keeps
    // the normal equations solvable.
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (double a = 1; a <= 50; ++a) {
        X.push_back({a, 2.0 * a});
        y.push_back(5.0 * a + 1.0);
    }
    const LinearModel model = LinearModel::fit(X, y);
    EXPECT_GT(model.rSquared(X, y), 0.999);
    EXPECT_NEAR(model.predict(std::vector<double>{10.0, 20.0}), 51.0, 0.5);
}

TEST(LinearModelTest, RSquaredOfMeanPredictorIsZero)
{
    std::vector<std::vector<double>> X{{1}, {2}, {3}, {4}};
    std::vector<double> y{10, -10, 10, -10};
    const LinearModel model = LinearModel::fit(X, y);
    // The best line through this data is ~the mean; R^2 near 0.
    EXPECT_LT(model.rSquared(X, y), 0.3);
}

TEST(QuadraticTest, ExpansionAppendsSquares)
{
    const auto expanded = quadraticExpand({2.0, 3.0});
    ASSERT_EQ(expanded.size(), 4u);
    EXPECT_DOUBLE_EQ(expanded[2], 4.0);
    EXPECT_DOUBLE_EQ(expanded[3], 9.0);
}

TEST(QuadraticTest, CapturesQuadraticRelation)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (double a = 0; a < 40; ++a) {
        X.push_back({a});
        y.push_back(0.5 * a * a + 2.0 * a + 3.0);
    }
    const LinearModel linear = LinearModel::fit(X, y);
    std::vector<std::vector<double>> expanded;
    quadraticExpandInto(X, &expanded);
    const LinearModel quadratic = LinearModel::fit(expanded, y);
    EXPECT_LT(linear.rSquared(X, y), 0.99);
    EXPECT_GT(quadratic.rSquared(expanded, y), 0.9999);
    EXPECT_NEAR(quadratic.predict(quadraticExpand({10.0})), 73.0, 0.1);
}

TEST(LinearModelTest, SerializeRoundTrip)
{
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    util::Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const double a = rng.uniform(0, 1e7);
        const double b = rng.uniform(0, 1e3);
        X.push_back({a, b});
        y.push_back(1e-4 * a + 2.5 * b + 17.0);
    }
    const LinearModel model = LinearModel::fit(X, y);
    LinearModel restored;
    std::string error;
    ASSERT_TRUE(
        LinearModel::tryDeserialize(model.serialize(), &restored, &error))
        << error;
    for (const auto &row : X)
        EXPECT_NEAR(restored.predict(row), model.predict(row),
                    1e-9 * std::abs(model.predict(row)) + 1e-12);
}

TEST(LinearModelTest, MismatchedArityDies)
{
    const LinearModel model =
        LinearModel::fit({{1.0, 2.0}}, {3.0});
    EXPECT_DEATH(model.predict(std::vector<double>{1.0}), "arity");
    EXPECT_DEATH(LinearModel::fit({}, {}), "empty");
}

TEST(LinearModelTest, DeserializeRejectsNonPositiveScale)
{
    // predict() divides by the per-feature scales; a zero or negative
    // scale used to load fine and then silently produce ±inf/NaN
    // predictions. Such a model must be rejected at the boundary.
    for (const char *text : {"1;2,0", "1;2,-3", "1;2,inf", "1;2,nan"}) {
        SCOPED_TRACE(text);
        LinearModel model;
        std::string error;
        EXPECT_FALSE(LinearModel::tryDeserialize(text, &model, &error));
        EXPECT_NE(error.find("scale"), std::string::npos) << error;
    }
}

TEST(LinearModelTest, TryDeserializeReportsMalformedText)
{
    LinearModel model;
    std::string error;
    EXPECT_FALSE(LinearModel::tryDeserialize("abc", &model, &error));
    EXPECT_NE(error.find("intercept"), std::string::npos);
    EXPECT_FALSE(LinearModel::tryDeserialize("1;x,2", &model, &error));
    EXPECT_NE(error.find("weight"), std::string::npos);
    EXPECT_FALSE(LinearModel::tryDeserialize("1;2", &model, &error));
    EXPECT_NE(error.find("term"), std::string::npos);
    EXPECT_FALSE(LinearModel::tryDeserialize("", &model, &error));
    EXPECT_NE(error.find("empty"), std::string::npos);

    ASSERT_TRUE(LinearModel::tryDeserialize("1.5;2,4", &model, &error));
    // b + w * (x / s) = 1.5 + 2 * (8 / 4) = 5.5.
    EXPECT_DOUBLE_EQ(model.predict(std::vector<double>{8.0}), 5.5);
}

TEST(LinearModelTest, DeserializeFailureLeavesModelUntouched)
{
    LinearModel model;
    std::string error;
    ASSERT_TRUE(LinearModel::tryDeserialize("1;2,4", &model, &error));
    EXPECT_FALSE(
        LinearModel::tryDeserialize("9;8,garbage", &model, &error));
    // The earlier valid state survives a failed re-load.
    EXPECT_DOUBLE_EQ(model.predict(std::vector<double>{4.0}), 3.0);
}

} // namespace
} // namespace core
} // namespace ceer
