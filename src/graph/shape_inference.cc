#include "graph/shape_inference.h"

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace graph {

std::int64_t
convOutputDim(std::int64_t in, int kernel, int stride, PaddingMode padding)
{
    if (stride < 1)
        util::panic("convOutputDim: stride must be >= 1");
    if (padding == PaddingMode::Same)
        return (in + stride - 1) / stride;
    const std::int64_t effective = in - kernel + 1;
    if (effective <= 0) {
        util::panic(util::format(
            "convOutputDim: VALID padding with kernel %d larger than "
            "input %lld", kernel, static_cast<long long>(in)));
    }
    return (effective + stride - 1) / stride;
}

TensorShape
conv2dOutputShape(const TensorShape &input, std::int64_t out_channels,
                  int kernel_h, int kernel_w, int stride,
                  PaddingMode padding)
{
    if (input.rank() != 4)
        util::panic("conv2dOutputShape: input must be NHWC");
    return TensorShape::nhwc(
        input.batch(),
        convOutputDim(input.height(), kernel_h, stride, padding),
        convOutputDim(input.width(), kernel_w, stride, padding),
        out_channels);
}

TensorShape
poolOutputShape(const TensorShape &input, int window_h, int window_w,
                int stride, PaddingMode padding)
{
    if (input.rank() != 4)
        util::panic("poolOutputShape: input must be NHWC");
    return TensorShape::nhwc(
        input.batch(),
        convOutputDim(input.height(), window_h, stride, padding),
        convOutputDim(input.width(), window_w, stride, padding),
        input.channels());
}

TensorShape
concatChannelsShape(const std::vector<TensorShape> &shapes)
{
    if (shapes.empty())
        util::panic("concatChannelsShape: no inputs");
    const TensorShape &first = shapes.front();
    if (first.rank() == 2) {
        // Feature-axis concat of matrices (e.g. LSTM [x_t, h_{t-1}]).
        std::int64_t features = 0;
        for (const auto &shape : shapes) {
            if (shape.rank() != 2 || shape.batch() != first.batch()) {
                util::panic(util::format(
                    "concatChannelsShape: mismatched input %s vs %s",
                    shape.toString().c_str(),
                    first.toString().c_str()));
            }
            features += shape.dim(1);
        }
        return TensorShape::matrix(first.batch(), features);
    }
    if (first.rank() != 4)
        util::panic("concatChannelsShape: inputs must be NHWC or "
                    "rank-2");
    std::int64_t channels = 0;
    for (const auto &shape : shapes) {
        if (shape.rank() != 4 || shape.batch() != first.batch() ||
            shape.height() != first.height() ||
            shape.width() != first.width()) {
            util::panic(util::format(
                "concatChannelsShape: mismatched input %s vs %s",
                shape.toString().c_str(), first.toString().c_str()));
        }
        channels += shape.channels();
    }
    return TensorShape::nhwc(first.batch(), first.height(), first.width(),
                             channels);
}

TensorShape
flattenShape(const TensorShape &input)
{
    if (input.rank() < 2)
        util::panic("flattenShape: input must have rank >= 2");
    std::int64_t rest = 1;
    for (std::int64_t d : input.dims().subspan(1))
        rest *= d;
    return TensorShape::matrix(input.batch(), rest);
}

} // namespace graph
} // namespace ceer
