#include "graph/graph.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace graph {

std::int64_t
Node::inputBytes() const
{
    std::int64_t total = 0;
    for (const auto &shape : inputShapes)
        total += shape.numBytes(dtype);
    return total;
}

std::int64_t
Node::outputBytes() const
{
    return outputShape.numBytes(dtype);
}

namespace {

std::uint32_t
nameHash(std::string_view name)
{
    return static_cast<std::uint32_t>(
        std::hash<std::string_view>{}(name));
}

} // namespace

void
Graph::NameIndex::reserve(std::size_t n)
{
    std::size_t capacity = 16;
    while (capacity < 2 * n)
        capacity *= 2;
    if (capacity <= slots_.size())
        return;
    const std::vector<Slot> old = std::exchange(slots_, {});
    slots_.resize(capacity);
    for (const Slot &slot : old) {
        if (slot.id != kInvalidNode)
            place(slot);
    }
}

NodeId
Graph::NameIndex::find(std::string_view name,
                       const std::vector<Node> &nodes) const
{
    if (slots_.empty())
        return kInvalidNode;
    const std::uint32_t hash = nameHash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.id == kInvalidNode)
            return kInvalidNode;
        if (slot.hash == hash &&
            nodes[static_cast<std::size_t>(slot.id)].name == name)
            return slot.id;
    }
}

void
Graph::NameIndex::insert(NodeId id, const std::vector<Node> &nodes)
{
    reserve(size_ + 1);
    place({id, nameHash(nodes[static_cast<std::size_t>(id)].name)});
    ++size_;
}

void
Graph::NameIndex::place(Slot slot)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kInvalidNode)
        i = (i + 1) & mask;
    slots_[i] = slot;
}

NodeId
Graph::addNode(std::string name, OpType type, ListView<NodeId> inputs,
               ListView<TensorShape> extraInputs,
               const TensorShape &output, const OpAttrs &attrs)
{
    const auto id = static_cast<NodeId>(nodes_.size());
    for (NodeId input : inputs) {
        if (input < 0 || input >= id) {
            util::panic(util::format(
                "Graph::addNode('%s'): input id %d invalid for node %d",
                name.c_str(), input, id));
        }
    }

    // Uniquify the name with a numeric suffix, TensorFlow-style.
    if (const NodeId taken = names_.find(name, nodes_);
        taken != kInvalidNode) {
        int &uses = nameUses_[static_cast<std::size_t>(taken)];
        std::string unique;
        do {
            unique = util::format("%s_%d", name.c_str(), uses++);
        } while (names_.find(unique, nodes_) != kInvalidNode);
        name = std::move(unique);
    }

    // Filled in full before the append: @p output and @p extraInputs
    // may point into nodes_, which the append can reallocate.
    Node node;
    node.id = id;
    node.name = std::move(name);
    node.type = type;
    node.inputs.assign(inputs.begin(), inputs.end());
    node.inputShapes.reserve(inputs.size() + extraInputs.size());
    for (NodeId input : inputs)
        node.inputShapes.push_back(
            nodes_[static_cast<std::size_t>(input)].outputShape);
    node.inputShapes.insert(node.inputShapes.end(), extraInputs.begin(),
                            extraInputs.end());
    node.outputShape = output;
    node.attrs = attrs;

    nodes_.push_back(std::move(node));
    nameUses_.push_back(1);
    names_.insert(id, nodes_);
    consumersValid_ = false;
    return id;
}

void
Graph::markGradientRange(NodeId begin, NodeId end)
{
    if (begin < 0 || end < begin ||
        static_cast<std::size_t>(end) > nodes_.size())
        util::panic("Graph::markGradientRange: bad range");
    for (NodeId id = begin; id < end; ++id)
        nodes_[static_cast<std::size_t>(id)].isGradient = true;
}

std::int64_t
Graph::addParamVar(std::string name, const TensorShape &shape)
{
    params_.push_back(ParamVar{std::move(name), shape});
    return shape.numElements();
}

const Node &
Graph::node(NodeId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        util::panic(util::format("Graph::node: invalid id %d", id));
    return nodes_[static_cast<std::size_t>(id)];
}

std::int64_t
Graph::totalParameters() const
{
    std::int64_t total = 0;
    for (const auto &var : params_)
        total += var.count();
    return total;
}

const std::vector<std::vector<NodeId>> &
Graph::consumers() const
{
    if (!consumersValid_) {
        consumersCache_.assign(nodes_.size(), {});
        for (const auto &node : nodes_) {
            for (NodeId input : node.inputs)
                consumersCache_[static_cast<std::size_t>(input)]
                    .push_back(node.id);
        }
        consumersValid_ = true;
    }
    return consumersCache_;
}

std::vector<OpTypeCount>
Graph::countByOpType() const
{
    std::map<OpType, std::size_t> tally;
    for (const auto &node : nodes_)
        ++tally[node.type];
    std::vector<OpTypeCount> counts;
    counts.reserve(tally.size());
    for (const auto &[type, count] : tally)
        counts.push_back({type, count});
    std::sort(counts.begin(), counts.end(),
              [](const OpTypeCount &a, const OpTypeCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.type < b.type;
              });
    return counts;
}

std::size_t
Graph::gpuOpCount() const
{
    std::size_t n = 0;
    for (const auto &node : nodes_)
        if (node.device() == Device::Gpu)
            ++n;
    return n;
}

std::size_t
Graph::cpuOpCount() const
{
    return nodes_.size() - gpuOpCount();
}

bool
Graph::validate(std::string *error) const
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    NameIndex names;
    names.reserve(nodes_.size());
    for (const auto &node : nodes_) {
        if (names.find(node.name, nodes_) != kInvalidNode)
            return fail("duplicate node name: " + node.name);
        names.insert(node.id, nodes_);
        for (NodeId input : node.inputs) {
            if (input < 0 || input >= node.id) {
                return fail(util::format(
                    "node '%s' (%d) has out-of-order input %d",
                    node.name.c_str(), node.id, input));
            }
        }
        if (node.inputShapes.size() < node.inputs.size()) {
            return fail(util::format(
                "node '%s' has %zu input shapes for %zu inputs",
                node.name.c_str(), node.inputShapes.size(),
                node.inputs.size()));
        }
        for (std::size_t i = 0; i < node.inputs.size(); ++i) {
            const Node &producer =
                nodes_[static_cast<std::size_t>(node.inputs[i])];
            if (node.inputShapes[i] != producer.outputShape) {
                return fail(util::format(
                    "node '%s' input %zu shape %s != producer '%s' "
                    "output %s",
                    node.name.c_str(), i,
                    node.inputShapes[i].toString().c_str(),
                    producer.name.c_str(),
                    producer.outputShape.toString().c_str()));
            }
        }
    }
    return true;
}

std::string
Graph::toDot() const
{
    std::string out = "digraph \"" + name_ + "\" {\n";
    out += "  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
    for (const auto &node : nodes_) {
        const bool cpu = node.device() == Device::Cpu;
        out += util::format(
            "  n%d [label=\"%s\\n%s %s\"%s];\n", node.id,
            node.name.c_str(), opTypeName(node.type).c_str(),
            node.outputShape.toString().c_str(),
            cpu ? ", style=dashed" : "");
    }
    for (const auto &node : nodes_) {
        for (NodeId input : node.inputs)
            out += util::format("  n%d -> n%d;\n", input, node.id);
    }
    out += "}\n";
    return out;
}

} // namespace graph
} // namespace ceer
