#include "graph/tensor_shape.h"

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace graph {

TensorShape::TensorShape(std::initializer_list<std::int64_t> dims)
    : TensorShape(std::span<const std::int64_t>(dims.begin(), dims.size()))
{
}

TensorShape::TensorShape(std::span<const std::int64_t> dims)
    : rank_(dims.size())
{
    if (dims.size() > kMaxRank)
        util::panic(util::format("TensorShape rank %zu exceeds the "
                                 "maximum %zu", dims.size(), kMaxRank));
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (dims[i] < 0)
            util::panic("TensorShape dimensions must be non-negative");
        dims_[i] = dims[i];
    }
}

TensorShape
TensorShape::nhwc(std::int64_t n, std::int64_t h, std::int64_t w,
                  std::int64_t c)
{
    return TensorShape{n, h, w, c};
}

TensorShape
TensorShape::matrix(std::int64_t rows, std::int64_t cols)
{
    return TensorShape{rows, cols};
}

TensorShape
TensorShape::vector(std::int64_t n)
{
    return TensorShape{n};
}

std::int64_t
TensorShape::dim(int axis) const
{
    const int r = static_cast<int>(rank());
    if (axis < 0)
        axis += r;
    if (axis < 0 || axis >= r)
        util::panic(util::format("TensorShape::dim axis %d out of range "
                                 "for rank %d", axis, r));
    return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t
TensorShape::numElements() const
{
    std::int64_t n = 1;
    for (auto d : dims())
        n *= d;
    return n;
}

std::int64_t
TensorShape::numBytes(DataType dtype) const
{
    return numElements() *
           static_cast<std::int64_t>(dataTypeSize(dtype));
}

std::int64_t
TensorShape::height() const
{
    if (rank() != 4)
        util::panic("TensorShape::height requires rank-4 NHWC tensor");
    return dims_[1];
}

std::int64_t
TensorShape::width() const
{
    if (rank() != 4)
        util::panic("TensorShape::width requires rank-4 NHWC tensor");
    return dims_[2];
}

std::string
TensorShape::toString() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < rank_; ++i) {
        if (i)
            out += ",";
        out += std::to_string(dims_[i]);
    }
    out += "]";
    return out;
}

} // namespace graph
} // namespace ceer
