#include "src/acn/blocks.hpp"

#include <algorithm>

namespace acn {

BlockSequence initial_sequence(const DependencyModel& model) {
  BlockSequence seq;
  seq.reserve(model.units.size());
  for (std::size_t u = 0; u < model.units.size(); ++u) seq.push_back({{u}});
  return seq;
}

BlockSequence single_block(const DependencyModel& model) {
  Block all;
  for (std::size_t u = 0; u < model.units.size(); ++u) all.units.push_back(u);
  return {all};
}

bool sequence_valid(const BlockSequence& sequence, const DependencyModel& model) {
  std::vector<std::size_t> block_of(model.units.size(), kNoUnit);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    for (std::size_t u : sequence[i].units) {
      if (u >= model.units.size() || block_of[u] != kNoUnit) return false;
      block_of[u] = i;
    }
  }
  for (std::size_t u = 0; u < model.units.size(); ++u) {
    if (block_of[u] == kNoUnit) return false;
    for (std::size_t v : model.succs[u])
      if (block_of[u] > block_of[v]) return false;
  }
  return true;
}

std::vector<std::size_t> block_ops(const Block& block,
                                   const DependencyModel& model) {
  std::vector<std::size_t> ops;
  for (std::size_t u : block.units)
    ops.insert(ops.end(), model.units[u].ops.begin(), model.units[u].ops.end());
  std::sort(ops.begin(), ops.end());
  return ops;
}

std::vector<PlannedRead> plan_reads(
    const ir::TxProgram& program,
    const std::vector<std::vector<std::size_t>>& blocks) {
  // produced_in[v]: 1 + the position of the latest Block (so far, in
  // execution order) with an op producing var v; 0 = not produced yet.  A
  // read is computable at the entry of every Block after its deps' latest
  // producer.  The bounds guard also filters ir::kNoVar outputs.
  std::vector<std::size_t> produced_in(program.n_vars, 0);
  std::vector<PlannedRead> plan;
  for (std::size_t position = 0; position < blocks.size(); ++position) {
    for (std::size_t idx : blocks[position]) {
      const ir::Op& op = program.ops[idx];
      if (op.is_remote()) {
        std::size_t ready = 0;
        for (ir::VarId dep : op.remote.key_deps)
          if (dep < produced_in.size())
            ready = std::max(ready, produced_in[dep]);
        if (ready <= position) plan.push_back({idx, position, ready});
      }
      for (ir::VarId w : op.writes())
        if (w < produced_in.size()) produced_in[w] = position + 1;
    }
  }
  return plan;
}

bool blocks_dependent(const Block& a, const Block& b,
                      const DependencyModel& model) {
  for (std::size_t u : a.units)
    for (std::size_t v : b.units)
      if (model.depends(u, v) || model.depends(v, u)) return true;
  return false;
}

std::string describe_sequence(const BlockSequence& sequence,
                              const DependencyModel& model) {
  std::string out;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    out += "B" + std::to_string(i) + " = [";
    for (std::size_t j = 0; j < sequence[i].units.size(); ++j) {
      if (j) out += " ";
      out += "U" + std::to_string(sequence[i].units[j]);
    }
    out += "] ops:";
    for (std::size_t op : block_ops(sequence[i], model)) {
      out += " " + std::to_string(op);
      const auto& label = model.program->ops[op].label;
      if (!label.empty()) out += "(" + label + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace acn
