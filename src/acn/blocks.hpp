// Blocks and Block Sequences (Section V-B).
//
// A Block groups one or more UnitBlocks and is executed as a single
// closed-nested transaction.  A BlockSequence is an ordered list of Blocks
// covering every UnitBlock exactly once; it is valid when every unit-level
// dependency points forward (same Block counts as satisfied, since ops
// inside a Block run in program order).
#pragma once

#include <string>
#include <vector>

#include "src/acn/unitgraph.hpp"

namespace acn {

struct Block {
  std::vector<std::size_t> units;  // indices into DependencyModel::units
};

using BlockSequence = std::vector<Block>;

/// One unit per block, in the model's canonical (static-analysis) order.
BlockSequence initial_sequence(const DependencyModel& model);

/// All units in a single block: semantically the flat transaction.
BlockSequence single_block(const DependencyModel& model);

/// Every unit appears exactly once and every dependency edge lands in the
/// same or a later block.
bool sequence_valid(const BlockSequence& sequence, const DependencyModel& model);

/// Ops of a block in execution order (ascending program index).
std::vector<std::size_t> block_ops(const Block& block, const DependencyModel& model);

/// One remote read the batched read pipeline can fetch before it runs.
struct PlannedRead {
  std::size_t op;     // program index of the remote read
  std::size_t block;  // position of the Block that executes it
  std::size_t ready;  // first position at whose entry its key is computable
};

/// The key-known reads of a Block Sequence whose Blocks run `blocks` (each
/// Block's ops in execution order, as block_ops returns them): every remote
/// read whose key dependencies are produced by no op between the entry of
/// Block `ready` and the read itself.  Its key is therefore computable at
/// the entry of every Block from `ready` through `block`, and any of those
/// Blocks' batched rounds can fetch it.  Reads keyed on a value computed
/// earlier in their own Block are absent: they go out one by one.  Ordered
/// by `block`, then execution order.
std::vector<PlannedRead> plan_reads(
    const ir::TxProgram& program,
    const std::vector<std::vector<std::size_t>>& blocks);

/// True when blocks `a` and `b` are connected by at least one direct
/// dependency edge in either direction.
bool blocks_dependent(const Block& a, const Block& b, const DependencyModel& model);

std::string describe_sequence(const BlockSequence& sequence,
                              const DependencyModel& model);

}  // namespace acn
