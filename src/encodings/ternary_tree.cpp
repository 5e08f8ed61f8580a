#include "encodings/ternary_tree.h"

#include "common/logging.h"

namespace fermihedral::enc {

namespace {

/**
 * Depth-first walk of the implicit balanced ternary tree: node i has
 * children 3i+1, 3i+2, 3i+3 while they are < N. Each missing child
 * terminates a root-to-leaf path and emits one string.
 */
void
walk(std::size_t node, std::size_t modes, pauli::PauliString &path,
     std::vector<pauli::PauliString> &out)
{
    static constexpr pauli::PauliOp branchOps[3] = {
        pauli::PauliOp::X, pauli::PauliOp::Y, pauli::PauliOp::Z};
    for (int branch = 0; branch < 3; ++branch) {
        path.setOp(node, branchOps[branch]);
        const std::size_t child = 3 * node + branch + 1;
        if (child < modes)
            walk(child, modes, path, out);
        else
            out.push_back(path);
        path.setOp(node, pauli::PauliOp::I);
    }
}

/** Branch labels of pairedTernaryTree(): child 3i+1+b gets op b. */
constexpr pauli::PauliOp pairedBranchOps[3] = {
    pauli::PauliOp::Z, pauli::PauliOp::X, pauli::PauliOp::Y};

} // namespace

FermionEncoding
ternaryTree(std::size_t modes)
{
    require(modes >= 1 && modes <= 64,
            "ternaryTree supports 1..64 modes");
    std::vector<pauli::PauliString> paths;
    paths.reserve(2 * modes + 1);
    pauli::PauliString scratch(modes);
    walk(0, modes, scratch, paths);
    require(paths.size() == 2 * modes + 1,
            "ternary tree produced ", paths.size(),
            " paths, expected ", 2 * modes + 1);

    // Drop the all-Z spine (the last path in DFS order).
    paths.pop_back();

    FermionEncoding encoding;
    encoding.modes = modes;
    encoding.majoranas = std::move(paths);
    return encoding;
}

FermionEncoding
pairedTernaryTree(std::size_t modes)
{
    require(modes >= 1 && modes <= 64,
            "pairedTernaryTree supports 1..64 modes");
    FermionEncoding encoding;
    encoding.modes = modes;
    encoding.majoranas.reserve(2 * modes);
    for (std::size_t q = 0; q < modes; ++q) {
        // The path from the root down to node q.
        pauli::PauliString above(modes);
        for (std::size_t node = q; node > 0; node = (node - 1) / 3)
            above.setOp((node - 1) / 3, pairedBranchOps[(node - 1) % 3]);
        // Leave q by its X branch (Majorana 2q), then its Y branch
        // (2q+1), and follow that child's Z-spine to a leaf.
        for (std::size_t branch = 1; branch <= 2; ++branch) {
            pauli::PauliString leaf = above;
            leaf.setOp(q, pairedBranchOps[branch]);
            for (std::size_t node = 3 * q + 1 + branch; node < modes;
                 node = 3 * node + 1)
                leaf.setOp(node, pauli::PauliOp::Z);
            encoding.majoranas.push_back(leaf);
        }
    }
    return encoding;
}

} // namespace fermihedral::enc
