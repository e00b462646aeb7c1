/**
 * @file
 * The CNN computation graph: a DAG of typed operations.
 *
 * This mirrors what the paper extracts from TensorFlow's tf.Session: for
 * every operation its type, its input tensor sizes, and for the whole
 * model the trainable-parameter count. Ceer consumes exactly this
 * information; the hardware simulator additionally uses the attrs
 * (kernel/stride/padding) to derive FLOPs.
 *
 * Graphs are built append-only with inputs referring to existing nodes,
 * so node id order is always a valid topological order.
 */

#ifndef CEER_GRAPH_GRAPH_H
#define CEER_GRAPH_GRAPH_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/op_type.h"
#include "graph/tensor_shape.h"

namespace ceer {
namespace graph {

/** Index of a node within its Graph. */
using NodeId = std::int32_t;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = -1;

/** Spatial padding mode for conv/pool ops (TensorFlow semantics). */
enum class PaddingMode { Same, Valid };

/**
 * Per-op attributes. Only the fields relevant to an op's type are
 * meaningful; the rest stay at their defaults.
 */
struct OpAttrs
{
    int kernelH = 0;             ///< Filter/window height.
    int kernelW = 0;             ///< Filter/window width.
    int strideH = 1;             ///< Vertical stride.
    int strideW = 1;             ///< Horizontal stride.
    PaddingMode padding = PaddingMode::Same; ///< Padding mode.
    TensorShape filterShape;     ///< Conv filter / matmul weight shape.
    std::int64_t paramCount = 0; ///< Trainable params updated by this op.
    int depthRadius = 5;         ///< LRN depth radius.
    int axis = -1;               ///< Concat/softmax axis.
};

/** One operation in the DAG. */
struct Node
{
    NodeId id = kInvalidNode;          ///< Index in the graph.
    std::string name;                  ///< Unique hierarchical name.
    OpType type = OpType::Identity;    ///< Kernel type.
    std::vector<NodeId> inputs;        ///< Producer nodes (data deps).
    /**
     * Shapes of all input tensors: first the outputs of @ref inputs in
     * order, then any implicit inputs (weights/filters read from
     * variables). These sizes are the regression features in Ceer.
     */
    std::vector<TensorShape> inputShapes;
    TensorShape outputShape;           ///< Primary output shape.
    OpAttrs attrs;                     ///< Type-specific attributes.
    DataType dtype = DataType::Float32; ///< Element type.
    /**
     * True for nodes added by the backward pass/optimizer. Forward
     * activations must be retained for the backward pass, so this flag
     * drives the training-memory estimate.
     */
    bool isGradient = false;

    /** Placement device (from the op-type registry). */
    Device device() const { return opTypeInfo(type).device; }

    /** Cost category (from the op-type registry). */
    CostCategory category() const { return opTypeInfo(type).category; }

    /** Sum of input tensor sizes in bytes. */
    std::int64_t inputBytes() const;

    /** Output tensor size in bytes. */
    std::int64_t outputBytes() const;
};

/** A trainable variable of the model (weights or biases). */
struct ParamVar
{
    std::string name;  ///< Variable name.
    TensorShape shape; ///< Variable shape.

    /** Number of scalar parameters. */
    std::int64_t count() const { return shape.numElements(); }
};

/**
 * Read-only view of an addNode() list argument. It binds a braced list
 * (whose elements live until the end of the call's full expression) or
 * a vector without copying either.
 */
template <typename T>
class ListView : public std::span<const T>
{
  public:
    ListView() = default;

    ListView(std::initializer_list<T> list)
        : std::span<const T>(list.begin(), list.size())
    {
    }

    ListView(const std::vector<T> &values) : std::span<const T>(values) {}
};

/** Per-op-type tally returned by Graph::countByOpType(). */
struct OpTypeCount
{
    OpType type;       ///< The op type.
    std::size_t count; ///< Number of nodes of that type.
};

/**
 * Append-only DAG of operations plus the model's trainable variables.
 */
class Graph
{
  public:
    /** @param name Model name, e.g. "inception_v3". */
    explicit Graph(std::string name = "model") : name_(std::move(name)) {}

    /** Model name. */
    const std::string &name() const { return name_; }

    /** Renames the model. */
    void setName(std::string name) { name_ = std::move(name); }

    /** Per-GPU batch size the graph was built at (0 if unknown). */
    std::int64_t batchSize() const { return batchSize_; }

    /** Records the batch size (called by GraphBuilder). */
    void setBatchSize(std::int64_t batch) { batchSize_ = batch; }

    /**
     * Appends a node.
     *
     * @param name        Node name. A taken name is made unique
     *                    TensorFlow-style: its k-th repeat becomes
     *                    name_k, skipping suffixed names already in use.
     * @param type        Kernel type.
     * @param inputs      Existing producer node ids.
     * @param extraInputs Shapes of implicit inputs (weights etc.).
     * @param output      Output shape.
     * @param attrs       Type-specific attributes.
     * @return Id of the new node.
     */
    NodeId addNode(std::string name, OpType type, ListView<NodeId> inputs,
                   ListView<TensorShape> extraInputs,
                   const TensorShape &output, const OpAttrs &attrs = {});

    /** Marks nodes in [begin, end) as gradient/optimizer nodes. */
    void markGradientRange(NodeId begin, NodeId end);

    /** Registers a trainable variable and returns its param count. */
    std::int64_t addParamVar(std::string name, const TensorShape &shape);

    /** Node accessor; panics on invalid id. */
    const Node &node(NodeId id) const;

    /** All nodes in id (= topological) order. */
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Number of nodes. */
    std::size_t size() const { return nodes_.size(); }

    /** All trainable variables. */
    const std::vector<ParamVar> &paramVars() const { return params_; }

    /** Total trainable parameters (the comm-model feature in Ceer). */
    std::int64_t totalParameters() const;

    /** Consumers of each node (computed on demand, cached). */
    const std::vector<std::vector<NodeId>> &consumers() const;

    /** Counts of nodes per op type, descending by count. */
    std::vector<OpTypeCount> countByOpType() const;

    /** Number of nodes placed on the GPU. */
    std::size_t gpuOpCount() const;

    /** Number of nodes placed on the CPU. */
    std::size_t cpuOpCount() const;

    /**
     * Structural validation: inputs exist and precede their consumers,
     * input shape lists cover the declared inputs, and names are unique.
     *
     * @param error Receives a description of the first problem found.
     * @return true when the graph is well-formed.
     */
    bool validate(std::string *error = nullptr) const;

    /** Graphviz DOT rendering (op types colour-coded). */
    std::string toDot() const;

  private:
    /**
     * Open-addressing hash index from node name to node id. Slots hold
     * the id and name hash only; lookups compare against the nodes' own
     * names, so indexing a node allocates nothing beyond the table's
     * amortized growth.
     */
    class NameIndex
    {
      public:
        /** Sizes the table for @p n names. */
        void reserve(std::size_t n);

        /** Id of the node named @p name, or kInvalidNode. */
        NodeId find(std::string_view name,
                    const std::vector<Node> &nodes) const;

        /** Indexes nodes[id], whose name must not be indexed yet. */
        void insert(NodeId id, const std::vector<Node> &nodes);

      private:
        struct Slot
        {
            NodeId id = kInvalidNode;
            std::uint32_t hash = 0;
        };
        void place(Slot slot);

        std::vector<Slot> slots_; ///< Power-of-two sized; load <= 1/2.
        std::size_t size_ = 0;
    };

    std::string name_;
    std::int64_t batchSize_ = 0;
    std::vector<Node> nodes_;
    std::vector<ParamVar> params_;
    NameIndex names_;
    /** Per node: times its name was requested (the next suffix). */
    std::vector<int> nameUses_;
    mutable std::vector<std::vector<NodeId>> consumersCache_;
    mutable bool consumersValid_ = false;
};

} // namespace graph
} // namespace ceer

#endif // CEER_GRAPH_GRAPH_H
