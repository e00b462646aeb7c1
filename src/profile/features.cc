#include "profile/features.h"

#include <charconv>

#include "hw/op_cost.h"
#include "util/strings.h"

namespace ceer {
namespace profile {

std::vector<double>
opFeatures(const graph::Node &node)
{
    std::vector<double> features(kNumOpFeatures, 0.0);
    features[0] = static_cast<double>(node.inputBytes());
    if (!node.inputShapes.empty()) {
        features[1] =
            static_cast<double>(node.inputShapes[0].numBytes(node.dtype));
    }
    if (node.inputShapes.size() > 1) {
        features[2] =
            static_cast<double>(node.inputShapes[1].numBytes(node.dtype));
    }
    features[3] = hw::opCost(node).flops;
    return features;
}

std::string
opInstanceKey(const graph::Node &node)
{
    std::string key;
    key.reserve(64);
    key += graph::opTypeInfo(node.type).name;
    for (const auto &shape : node.inputShapes) {
        char digits[24];
        const auto end = std::to_chars(digits, digits + sizeof(digits),
                                       shape.numBytes(node.dtype))
                             .ptr;
        key += '|';
        key.append(digits, end);
    }
    return key;
}

} // namespace profile
} // namespace ceer
