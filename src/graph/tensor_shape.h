/**
 * @file
 * TensorShape: inline dimension list with NHWC helpers.
 *
 * Image tensors throughout the library use NHWC layout (batch, height,
 * width, channels), matching TensorFlow's default on GPU instances in the
 * paper's setup. Dimensions live in a fixed inline array of
 * TensorShape::kMaxRank entries, so shapes never touch the heap; rank 4
 * is the highest any graph builder emits.
 */

#ifndef CEER_GRAPH_TENSOR_SHAPE_H
#define CEER_GRAPH_TENSOR_SHAPE_H

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "graph/dtype.h"

namespace ceer {
namespace graph {

/**
 * Shape of a dense tensor; all dimensions are static and non-negative
 * and the rank is at most kMaxRank (constructors panic above it).
 */
class TensorShape
{
  public:
    /** Highest supported rank (NHWC). */
    static constexpr std::size_t kMaxRank = 4;

    /** Constructs a rank-0 (scalar) shape. */
    TensorShape() = default;

    /** Constructs from an explicit dimension list. */
    TensorShape(std::initializer_list<std::int64_t> dims);

    /** Constructs from a dimension span. */
    explicit TensorShape(std::span<const std::int64_t> dims);

    /** Builds a rank-4 NHWC shape. */
    static TensorShape nhwc(std::int64_t n, std::int64_t h, std::int64_t w,
                            std::int64_t c);

    /** Builds a rank-2 (rows, cols) shape. */
    static TensorShape matrix(std::int64_t rows, std::int64_t cols);

    /** Builds a rank-1 shape. */
    static TensorShape vector(std::int64_t n);

    /** Number of dimensions. */
    std::size_t rank() const { return rank_; }

    /** Dimension at @p axis; negative axes count from the end. */
    std::int64_t dim(int axis) const;

    /** All dimensions; valid while this shape is alive. */
    std::span<const std::int64_t> dims() const
    {
        return {dims_.data(), rank_};
    }

    /** Product of dimensions (1 for scalars). */
    std::int64_t numElements() const;

    /** numElements() times the element size of @p dtype. */
    std::int64_t numBytes(DataType dtype = DataType::Float32) const;

    /** Batch dimension (dim 0); requires rank >= 1. */
    std::int64_t batch() const { return dim(0); }

    /** Height of an NHWC tensor; requires rank 4. */
    std::int64_t height() const;

    /** Width of an NHWC tensor; requires rank 4. */
    std::int64_t width() const;

    /** Channels of an NHWC tensor (last dim); requires rank >= 1. */
    std::int64_t channels() const { return dim(-1); }

    /** "[n,h,w,c]" rendering. */
    std::string toString() const;

    // Slots past the rank are always zero, so memberwise equality is
    // shape equality.
    bool operator==(const TensorShape &other) const = default;

  private:
    std::array<std::int64_t, kMaxRank> dims_{};
    std::size_t rank_ = 0;
};

} // namespace graph
} // namespace ceer

#endif // CEER_GRAPH_TENSOR_SHAPE_H
