#include "core/regression.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace ceer {
namespace core {

std::vector<double>
solveLinearSystem(std::vector<std::vector<double>> a,
                  std::vector<double> b)
{
    const std::size_t n = a.size();
    if (n == 0 || b.size() != n)
        util::panic("solveLinearSystem: malformed system");

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting.
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < n; ++row)
            if (std::abs(a[row][col]) > std::abs(a[pivot][col]))
                pivot = row;
        if (std::abs(a[pivot][col]) < 1e-300)
            util::panic("solveLinearSystem: singular matrix");
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);

        for (std::size_t row = col + 1; row < n; ++row) {
            const double factor = a[row][col] / a[col][col];
            if (factor == 0.0)
                continue;
            for (std::size_t k = col; k < n; ++k)
                a[row][k] -= factor * a[col][k];
            b[row] -= factor * b[col];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t row = n; row-- > 0;) {
        double acc = b[row];
        for (std::size_t k = row + 1; k < n; ++k)
            acc -= a[row][k] * x[k];
        x[row] = acc / a[row][row];
    }
    return x;
}

LinearModel
LinearModel::fit(const std::vector<std::vector<double>> &X,
                 const std::vector<double> &y, double ridge)
{
    if (X.empty() || X.size() != y.size())
        util::panic("LinearModel::fit: empty or mismatched data");
    const std::size_t d = X.front().size();
    for (const auto &row : X) {
        if (row.size() != d)
            util::panic("LinearModel::fit: ragged feature rows");
    }

    LinearModel model;
    model.scales_.assign(d, 1.0);
    for (std::size_t j = 0; j < d; ++j) {
        double max_abs = 0.0;
        for (const auto &row : X)
            max_abs = std::max(max_abs, std::abs(row[j]));
        model.scales_[j] = max_abs > 0.0 ? max_abs : 1.0;
    }

    // Normal equations over [1, x_scaled].
    const std::size_t m = d + 1;
    std::vector<std::vector<double>> ata(m,
                                         std::vector<double>(m, 0.0));
    std::vector<double> atb(m, 0.0);
    std::vector<double> scaled(m, 0.0);
    for (std::size_t i = 0; i < X.size(); ++i) {
        scaled[0] = 1.0;
        for (std::size_t j = 0; j < d; ++j)
            scaled[j + 1] = X[i][j] / model.scales_[j];
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t c = 0; c < m; ++c)
                ata[r][c] += scaled[r] * scaled[c];
            atb[r] += scaled[r] * y[i];
        }
    }
    for (std::size_t r = 1; r < m; ++r)
        ata[r][r] += ridge;

    const std::vector<double> solution =
        solveLinearSystem(std::move(ata), std::move(atb));
    model.intercept_ = solution[0];
    model.weights_.assign(solution.begin() + 1, solution.end());
    return model;
}

double
LinearModel::predict(std::span<const double> x) const
{
    if (x.size() != weights_.size())
        util::panic(util::format(
            "LinearModel::predict: arity mismatch (%zu vs %zu)",
            x.size(), weights_.size()));
    double y = intercept_;
    for (std::size_t j = 0; j < weights_.size(); ++j)
        y += weights_[j] * (x[j] / scales_[j]);
    return y;
}

double
LinearModel::rSquared(const std::vector<std::vector<double>> &X,
                      const std::vector<double> &y) const
{
    if (X.size() != y.size() || y.empty())
        util::panic("LinearModel::rSquared: mismatched data");
    double mean = 0.0;
    for (double value : y)
        mean += value;
    mean /= static_cast<double>(y.size());

    double ss_res = 0.0, ss_tot = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double residual = y[i] - predict(X[i]);
        ss_res += residual * residual;
        ss_tot += (y[i] - mean) * (y[i] - mean);
    }
    if (ss_tot == 0.0)
        return ss_res == 0.0 ? 1.0 : 0.0;
    return 1.0 - ss_res / ss_tot;
}

std::vector<double>
LinearModel::weights() const
{
    std::vector<double> unscaled(weights_.size());
    for (std::size_t j = 0; j < weights_.size(); ++j)
        unscaled[j] = weights_[j] / scales_[j];
    return unscaled;
}

std::string
LinearModel::serialize() const
{
    std::string out = util::format("%.17g", intercept_);
    for (std::size_t j = 0; j < weights_.size(); ++j) {
        out += util::format(";%.17g,%.17g", weights_[j], scales_[j]);
    }
    return out;
}

bool
LinearModel::tryDeserialize(const std::string &text, LinearModel *model,
                            std::string *error)
{
    LinearModel parsed;
    if (text.empty()) {
        *error = "empty text";
        return false;
    }
    const auto parts = util::split(text, ';');
    const auto intercept = util::parseDouble(parts[0]);
    if (!intercept) {
        *error = "bad intercept '" + parts[0] + "': " + intercept.error;
        return false;
    }
    parsed.intercept_ = intercept.value;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const auto pair = util::split(parts[i], ',');
        if (pair.size() != 2) {
            *error = "bad term '" + parts[i] + "'";
            return false;
        }
        const auto weight = util::parseDouble(pair[0]);
        if (!weight) {
            *error = "bad weight '" + pair[0] + "': " + weight.error;
            return false;
        }
        const auto scale = util::parseDouble(pair[1]);
        if (!scale) {
            *error = "bad scale '" + pair[1] + "': " + scale.error;
            return false;
        }
        // predict() divides features by the scales; anything but a
        // finite positive scale turns predictions into ±inf/NaN.
        if (!std::isfinite(scale.value) || !(scale.value > 0.0)) {
            *error = "invalid scale '" + pair[1] +
                     "' (must be finite and > 0)";
            return false;
        }
        parsed.weights_.push_back(weight.value);
        parsed.scales_.push_back(scale.value);
    }
    *model = std::move(parsed);
    return true;
}

std::vector<double>
quadraticExpand(const std::vector<double> &x)
{
    std::vector<double> expanded = x;
    expanded.reserve(2 * x.size());
    for (double value : x)
        expanded.push_back(value * value);
    return expanded;
}

void
quadraticExpandInto(const std::vector<std::vector<double>> &X,
                    std::vector<std::vector<double>> *out)
{
    out->resize(X.size());
    for (std::size_t i = 0; i < X.size(); ++i) {
        auto &row = (*out)[i];
        row.assign(X[i].begin(), X[i].end());
        row.reserve(2 * X[i].size());
        for (double value : X[i])
            row.push_back(value * value);
    }
}

} // namespace core
} // namespace ceer
