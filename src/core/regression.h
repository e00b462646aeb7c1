/**
 * @file
 * Least-squares regression used by Ceer's compute-time and
 * communication models.
 *
 * Ceer fits small models (1-6 features, tens to hundreds of points):
 * ordinary least squares via normal equations with feature scaling and
 * a tiny ridge term for conditioning is exactly right. Quadratic models
 * are linear models over quadratically-expanded features.
 */

#ifndef CEER_CORE_REGRESSION_H
#define CEER_CORE_REGRESSION_H

#include <span>
#include <string>
#include <vector>

namespace ceer {
namespace core {

/** y ~= w . x + b fit by (ridge-stabilized) least squares. */
class LinearModel
{
  public:
    /** Constructs a zero model (predicts 0). */
    LinearModel() = default;

    /**
     * Fits a model to rows @p X and targets @p y.
     *
     * Features are internally rescaled to [0, 1] by their column
     * maxima before solving, which keeps the normal equations well
     * conditioned for byte-sized features (~1e8).
     *
     * @param X     One feature vector per observation (equal lengths).
     * @param y     Targets, same length as X.
     * @param ridge Diagonal regularizer in scaled space.
     */
    static LinearModel fit(const std::vector<std::vector<double>> &X,
                           const std::vector<double> &y,
                           double ridge = 1e-8);

    /** Predicted value for @p x (must match the fitted arity). */
    double predict(std::span<const double> x) const;

    /** Coefficient of determination on a dataset. */
    double rSquared(const std::vector<std::vector<double>> &X,
                    const std::vector<double> &y) const;

    /** Weights in original (unscaled) feature units. */
    std::vector<double> weights() const;

    /**
     * Weights in the internal scaled feature space, as predict() uses
     * them: predict(x) = intercept + sum_j scaledWeights()[j] *
     * (x[j] / scales()[j]). Exposed so a compiled prediction plan can
     * replay the exact same operation sequence lane-wise and stay
     * bit-identical to predict().
     */
    const std::vector<double> &scaledWeights() const { return weights_; }

    /** Per-feature divisors paired with scaledWeights(). */
    const std::vector<double> &scales() const { return scales_; }

    /** Intercept term. */
    double intercept() const { return intercept_; }

    /** Number of features the model expects. */
    std::size_t featureCount() const { return weights_.size(); }

    /** Compact text form: "b;w1,s1;w2,s2;...". */
    std::string serialize() const;

    /**
     * Inverse of serialize().
     *
     * Rejects malformed numbers and any scale that is not a finite
     * positive value (predict() divides by the scales; a zero scale
     * would silently yield ±inf/NaN predictions).
     *
     * @param text  Serialized form.
     * @param model Receives the parsed model on success.
     * @param error Receives a description on failure.
     * @return True on success.
     */
    static bool tryDeserialize(const std::string &text,
                               LinearModel *model, std::string *error);

  private:
    std::vector<double> weights_; ///< In scaled feature space.
    std::vector<double> scales_;  ///< Per-feature divisors.
    double intercept_ = 0.0;
};

/**
 * Quadratic feature expansion: appends the square of each feature.
 * A LinearModel over this expansion is Ceer's "quadratic fit".
 */
std::vector<double> quadraticExpand(const std::vector<double> &x);

/**
 * Applies quadraticExpand to every row of @p X, into a caller-owned
 * buffer, reusing row capacity across calls. The trainer expands one
 * (GPU, op) cell after another; routing them through one scratch
 * buffer avoids reallocating the whole row-of-rows structure per cell.
 */
void quadraticExpandInto(const std::vector<std::vector<double>> &X,
                         std::vector<std::vector<double>> *out);

/**
 * Solves the square system A x = b in place via Gaussian elimination
 * with partial pivoting. Fatals on singular systems.
 */
std::vector<double> solveLinearSystem(std::vector<std::vector<double>> a,
                                      std::vector<double> b);

} // namespace core
} // namespace ceer

#endif // CEER_CORE_REGRESSION_H
