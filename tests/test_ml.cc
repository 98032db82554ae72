/**
 * @file
 * Unit and property tests for the learning library: linear algebra,
 * scalers, OLS/ridge, lasso (sparsity recovery), quadratic feature
 * expansion, regression trees, gradient boosting, the offline
 * predictor, the hierarchical Bayesian model, and Eq. 3 accuracy.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "ml/gradient_boosting.hh"
#include "ml/hierarchical_bayes.hh"
#include "ml/lasso.hh"
#include "ml/linear_regression.hh"
#include "ml/metrics.hh"
#include "ml/offline_predictor.hh"
#include "ml/quadratic_features.hh"
#include "ml/regression_tree.hh"
#include "ml/scaler.hh"

namespace mct::ml
{
namespace
{

Matrix
randomMatrix(std::size_t n, std::size_t d, Rng &rng, double lo = -1,
             double hi = 1)
{
    Matrix x(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            x(r, c) = rng.uniform(lo, hi);
    return x;
}

TEST(Linalg, MultiplyKnown)
{
    Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Vector y = a.multiply({1, 1});
    EXPECT_DOUBLE_EQ(y[0], 3);
    EXPECT_DOUBLE_EQ(y[1], 7);
    const Vector yt = a.multiplyTransposed({1, 1});
    EXPECT_DOUBLE_EQ(yt[0], 4);
    EXPECT_DOUBLE_EQ(yt[1], 6);
}

TEST(Linalg, GramIsSymmetricPsd)
{
    Rng rng(5);
    Matrix x = randomMatrix(20, 6, rng);
    Matrix g = x.gram();
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_GE(g(i, i), 0.0);
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_NEAR(g(i, j), g(j, i), 1e-12);
    }
}

TEST(Linalg, CholeskySolvesKnownSystem)
{
    Matrix a = Matrix::fromRows({{4, 2}, {2, 3}});
    const Vector x = choleskySolve(a, {8, 7});
    // Solution of [[4,2],[2,3]] x = [8,7] is [1.25, 1.5].
    EXPECT_NEAR(x[0], 1.25, 1e-9);
    EXPECT_NEAR(x[1], 1.5, 1e-9);
}

TEST(Linalg, CholeskySurvivesRankDeficiency)
{
    // Duplicate columns: solution exists up to the shared subspace.
    Matrix a = Matrix::fromRows({{2, 2}, {2, 2}});
    const Vector x = choleskySolve(a, {4, 4});
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(Linalg, DotProduct)
{
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
}

TEST(Scaler, StandardizesColumns)
{
    Rng rng(7);
    Matrix x = randomMatrix(200, 3, rng, 5, 15);
    StandardScaler sc;
    const Matrix z = sc.fitTransform(x);
    for (std::size_t c = 0; c < 3; ++c) {
        double mu = 0, ss = 0;
        for (std::size_t r = 0; r < z.rows(); ++r)
            mu += z(r, c);
        mu /= z.rows();
        for (std::size_t r = 0; r < z.rows(); ++r)
            ss += (z(r, c) - mu) * (z(r, c) - mu);
        EXPECT_NEAR(mu, 0.0, 1e-9);
        EXPECT_NEAR(ss / z.rows(), 1.0, 1e-9);
    }
}

TEST(Scaler, ConstantColumnStaysFinite)
{
    Matrix x = Matrix::fromRows({{1, 5}, {2, 5}, {3, 5}});
    StandardScaler sc;
    const Matrix z = sc.fitTransform(x);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_TRUE(std::isfinite(z(r, 1)));
}

TEST(LinearRegression, RecoversExactLinearFunction)
{
    Rng rng(11);
    Matrix x = randomMatrix(50, 3, rng);
    Vector y(50);
    for (std::size_t r = 0; r < 50; ++r)
        y[r] = 2.0 * x(r, 0) - 3.0 * x(r, 1) + 0.5 * x(r, 2) + 7.0;
    LinearRegression lr;
    lr.fit(x, y);
    EXPECT_NEAR(lr.weights()[0], 2.0, 1e-6);
    EXPECT_NEAR(lr.weights()[1], -3.0, 1e-6);
    EXPECT_NEAR(lr.weights()[2], 0.5, 1e-6);
    EXPECT_NEAR(lr.intercept(), 7.0, 1e-6);
    EXPECT_NEAR(lr.predict({1, 1, 1}), 6.5, 1e-6);
}

TEST(LinearRegression, RidgeShrinksWeights)
{
    Rng rng(13);
    Matrix x = randomMatrix(30, 2, rng);
    Vector y(30);
    for (std::size_t r = 0; r < 30; ++r)
        y[r] = 5.0 * x(r, 0) + rng.gaussian() * 0.01;
    LinearRegression ols(0.0), ridge(100.0);
    ols.fit(x, y);
    ridge.fit(x, y);
    EXPECT_LT(std::fabs(ridge.weights()[0]),
              std::fabs(ols.weights()[0]));
}

TEST(Lasso, RecoversSparseSignal)
{
    Rng rng(17);
    Matrix x = randomMatrix(80, 10, rng);
    Vector y(80);
    for (std::size_t r = 0; r < 80; ++r)
        y[r] = 3.0 * x(r, 2) - 2.0 * x(r, 7) + 0.05 * rng.gaussian();
    LassoParams lp;
    lp.lambdaFrac = 0.1;
    LassoRegression lasso(lp);
    lasso.fit(x, y);
    const auto sel = lasso.selectedFeatures(1e-3);
    // Features 2 and 7 must survive; most others must be zeroed.
    EXPECT_NE(std::find(sel.begin(), sel.end(), 2u), sel.end());
    EXPECT_NE(std::find(sel.begin(), sel.end(), 7u), sel.end());
    EXPECT_LE(sel.size(), 5u);
}

TEST(Lasso, StrongerPenaltyZeroesEverything)
{
    Rng rng(19);
    Matrix x = randomMatrix(40, 4, rng);
    Vector y(40);
    for (std::size_t r = 0; r < 40; ++r)
        y[r] = x(r, 0) + x(r, 1);
    LassoParams lp;
    lp.lambdaFrac = 1.5; // above lambda_max
    LassoRegression lasso(lp);
    lasso.fit(x, y);
    EXPECT_TRUE(lasso.selectedFeatures().empty());
}

TEST(Lasso, PredictsWellOnLinearData)
{
    Rng rng(23);
    Matrix x = randomMatrix(60, 5, rng);
    Vector y(60);
    for (std::size_t r = 0; r < 60; ++r)
        y[r] = 4.0 * x(r, 1) - x(r, 3) + 2.0;
    LassoRegression lasso;
    lasso.fit(x, y);
    const Vector pred = lasso.predictAll(x);
    EXPECT_GT(coefficientOfDetermination(pred, y), 0.98);
}

TEST(Quadratic, TenToSixtyFive)
{
    // The paper: 10 inputs expand to 65 quadratic features.
    std::vector<std::string> names(10);
    for (int i = 0; i < 10; ++i)
        names[i] = std::string("x").append(std::to_string(i));
    QuadraticFeatureMap qmap(names);
    EXPECT_EQ(qmap.outputDim(), 65u);
}

TEST(Quadratic, ValuesAndNames)
{
    QuadraticFeatureMap qmap({"a", "b"});
    ASSERT_EQ(qmap.outputDim(), 5u); // a, b, a^2, b^2, a*b
    const Vector e = qmap.expand({2.0, 3.0});
    EXPECT_DOUBLE_EQ(e[0], 2.0);
    EXPECT_DOUBLE_EQ(e[1], 3.0);
    EXPECT_DOUBLE_EQ(e[2], 4.0);
    EXPECT_DOUBLE_EQ(e[3], 9.0);
    EXPECT_DOUBLE_EQ(e[4], 6.0);
    EXPECT_EQ(qmap.name(2), "a^2");
    EXPECT_EQ(qmap.name(4), "a * b");
}

TEST(Tree, FitsStepFunction)
{
    Matrix x(100, 1);
    Vector y(100);
    for (int i = 0; i < 100; ++i) {
        x(i, 0) = i;
        y[i] = i < 50 ? 1.0 : 5.0;
    }
    RegressionTree tree(TreeParams{2, 1});
    tree.fit(x, y);
    EXPECT_NEAR(tree.predict({10}), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict({90}), 5.0, 1e-9);
}

TEST(Tree, RespectsMaxDepth)
{
    Rng rng(29);
    Matrix x = randomMatrix(200, 2, rng);
    Vector y(200);
    for (std::size_t r = 0; r < 200; ++r)
        y[r] = std::sin(3 * x(r, 0)) + x(r, 1);
    RegressionTree shallow(TreeParams{1, 1});
    shallow.fit(x, y);
    // Depth 1 => at most 3 nodes (root + 2 leaves).
    EXPECT_LE(shallow.nodeCount(), 3u);
}

TEST(Tree, ConstantTargetsSingleLeaf)
{
    Matrix x(10, 1);
    Vector y(10, 3.0);
    for (int i = 0; i < 10; ++i)
        x(i, 0) = i;
    RegressionTree tree;
    tree.fit(x, y);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict({4}), 3.0);
}

TEST(Boosting, BeatsSingleTreeOnSmoothFunction)
{
    Rng rng(31);
    Matrix x = randomMatrix(150, 2, rng);
    Vector y(150);
    for (std::size_t r = 0; r < 150; ++r)
        y[r] = std::sin(3 * x(r, 0)) * std::cos(2 * x(r, 1));
    RegressionTree tree(TreeParams{3, 2});
    tree.fit(x, y);
    GradientBoosting gbt;
    gbt.fit(x, y);
    const double treeR2 =
        coefficientOfDetermination(tree.predictAll(x), y);
    const double gbtR2 =
        coefficientOfDetermination(gbt.predictAll(x), y);
    EXPECT_GT(gbtR2, treeR2);
    EXPECT_GT(gbtR2, 0.9);
}

TEST(Boosting, PredictionsBoundedByTargetRange)
{
    Rng rng(37);
    Matrix x = randomMatrix(100, 3, rng);
    Vector y(100);
    for (std::size_t r = 0; r < 100; ++r)
        y[r] = rng.uniform(2.0, 4.0);
    GradientBoosting gbt;
    gbt.fit(x, y);
    Matrix probe = randomMatrix(50, 3, rng, -2, 2);
    for (double v : gbt.predictAll(probe)) {
        EXPECT_GE(v, 1.5);
        EXPECT_LE(v, 4.5);
    }
}

TEST(Boosting, DeterministicForSeed)
{
    Rng rng(41);
    Matrix x = randomMatrix(60, 2, rng);
    Vector y(60);
    for (std::size_t r = 0; r < 60; ++r)
        y[r] = x(r, 0) * x(r, 1);
    GradientBoosting a, b;
    a.fit(x, y);
    b.fit(x, y);
    EXPECT_DOUBLE_EQ(a.predict({0.5, 0.5}), b.predict({0.5, 0.5}));
}

TEST(Offline, AveragesLibraryRows)
{
    Matrix lib = Matrix::fromRows({{1, 2, 3}, {3, 4, 5}});
    OfflinePredictor off;
    off.fit(lib);
    EXPECT_DOUBLE_EQ(off.predict(0), 2.0);
    EXPECT_DOUBLE_EQ(off.predict(2), 4.0);
}

TEST(HierBayes, RecoversLowRankStructure)
{
    // Library: applications are scalings of two latent profiles.
    Rng rng(43);
    const std::size_t nCfg = 200;
    Vector p1(nCfg), p2(nCfg);
    for (std::size_t c = 0; c < nCfg; ++c) {
        p1[c] = std::sin(0.1 * c);
        p2[c] = 0.01 * c;
    }
    std::vector<Vector> apps;
    for (int a = 0; a < 8; ++a) {
        const double w1 = rng.uniform(0.5, 2.0);
        const double w2 = rng.uniform(-1.0, 1.0);
        Vector row(nCfg);
        for (std::size_t c = 0; c < nCfg; ++c)
            row[c] = w1 * p1[c] + w2 * p2[c];
        apps.push_back(row);
    }
    HierarchicalBayesPredictor hb;
    hb.fitOffline(Matrix::fromRows(apps));

    // A new application from the same family, observed at 20 points.
    Vector truth(nCfg);
    for (std::size_t c = 0; c < nCfg; ++c)
        truth[c] = 1.3 * p1[c] - 0.4 * p2[c];
    std::vector<std::size_t> obsIdx;
    Vector obsY;
    for (std::size_t c = 0; c < nCfg; c += 10) {
        obsIdx.push_back(c);
        obsY.push_back(truth[c]);
    }
    const Vector pred = hb.infer(obsIdx, obsY);
    EXPECT_GT(coefficientOfDetermination(pred, truth), 0.95);
}

TEST(HierBayes, UncorrelatedLibraryPredictsPoorly)
{
    Rng rng(47);
    const std::size_t nCfg = 100;
    std::vector<Vector> apps;
    for (int a = 0; a < 6; ++a) {
        Vector row(nCfg);
        for (auto &v : row)
            v = rng.gaussian();
        apps.push_back(row);
    }
    HierarchicalBayesPredictor hb;
    hb.fitOffline(Matrix::fromRows(apps));
    Vector truth(nCfg);
    for (auto &v : truth)
        v = rng.gaussian();
    std::vector<std::size_t> obsIdx = {0, 10, 20, 30};
    Vector obsY = {truth[0], truth[10], truth[20], truth[30]};
    const Vector pred = hb.infer(obsIdx, obsY);
    // Accuracy requires correlated training applications (paper
    // Section 4.3); random noise gives none.
    EXPECT_LT(coefficientOfDetermination(pred, truth), 0.5);
}

TEST(MetricsEq3, PerfectPredictionIsOne)
{
    EXPECT_DOUBLE_EQ(
        coefficientOfDetermination({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(MetricsEq3, MeanPredictionIsZero)
{
    EXPECT_DOUBLE_EQ(
        coefficientOfDetermination({2, 2, 2}, {1, 2, 3}), 0.0);
}

TEST(MetricsEq3, ClampedAtZeroForTerriblePredictions)
{
    // Eq. 3 takes max(0, .): worse-than-mean predictors score 0.
    EXPECT_DOUBLE_EQ(
        coefficientOfDetermination({30, -10, 50}, {1, 2, 3}), 0.0);
}

TEST(MetricsEq3, ErrorMetrics)
{
    EXPECT_DOUBLE_EQ(meanAbsoluteError({1, 3}, {2, 2}), 1.0);
    EXPECT_DOUBLE_EQ(rootMeanSquaredError({1, 3}, {2, 2}), 1.0);
}

} // namespace
} // namespace mct::ml
