/**
 * @file
 * Ternary-tree Fermion-to-qubit encodings (Jiang et al., Quantum 4,
 * 276 (2020)) — the other asymptotically optimal baseline cited by
 * the paper (related work [15, 22]).
 *
 * The N qubits form a balanced ternary tree; each root-to-leaf path
 * yields a Pauli string by picking X, Y or Z at every internal node
 * according to the branch taken. The 2N+1 path strings pairwise
 * anticommute and are algebraically independent; dropping one leaves
 * 2N Majorana operators with O(log3 N) weight each.
 *
 * Key invariants:
 *  - Both returned encodings satisfy anticommutativity and
 *    algebraic independence. ternaryTree() generally breaks vacuum
 *    preservation; pairedTernaryTree() keeps it and the X/Y pairing.
 *  - Construction is deterministic: same mode count, same strings.
 */

#ifndef FERMIHEDRAL_ENCODINGS_TERNARY_TREE_H
#define FERMIHEDRAL_ENCODINGS_TERNARY_TREE_H

#include "encodings/encoding.h"

namespace fermihedral::enc {

/**
 * The balanced ternary-tree encoding on `modes` modes.
 *
 * The dropped path is the all-Z spine, and the remaining strings are
 * paired consecutively. The pairing does not generally map the Fock
 * vacuum to |0...0>; validateEncoding() reports this, and the
 * encoding is used for weight comparisons only.
 */
FermionEncoding ternaryTree(std::size_t modes);

/**
 * A vacuum-paired ternary tree on 1..64 modes whose total weight is
 * enc::totalWeightLowerBound(modes) at every N.
 *
 * Layout: the heap-shaped complete tree of ternaryTree() (node i
 * has children 3i+1, 3i+2, 3i+3 while they are < N), with branch 0
 * labelled Z, branch 1 X and branch 2 Y.
 *  - The dropped all-Z spine 0 -> 1 -> 4 -> 13 ... is the leftmost
 *    path, so it ends at a deepest leaf.
 *  - Mode q is node q: Majorana 2q is the path that leaves q by its
 *    X branch, 2q+1 the one that leaves it by its Y branch, and each
 *    then follows its child's Z-spine down to a leaf.
 *
 * Why it is vacuum-preserving: the two strings of mode q agree on
 * the path above q, hold X and Y on qubit q, and are Z-only below
 * it. Z fixes |0>, and (X + iY)|0> = 0, so a_q|0...0> = 0 exactly;
 * qubit q is also the X/Y pair of Sec. 3.5.
 *
 * Why it meets the bound: a string's weight is its leaf's depth, so
 * the total is the sum of the 2N+1 leaf depths minus the dropped
 * (greatest) one. A heap-shaped tree puts every leaf at depth D or
 * D+1, and a full tree's leaves satisfy sum 3^(-depth) = 1, which
 * fixes (3^(D+1) - 2N - 1) / 2 leaves at D. Dropping one at D+1
 * leaves the balanced weights of totalWeightLowerBound()'s proof:
 * a ternary Huffman tree over 2N equal weights plus one dummy leaf.
 */
FermionEncoding pairedTernaryTree(std::size_t modes);

} // namespace fermihedral::enc

#endif // FERMIHEDRAL_ENCODINGS_TERNARY_TREE_H
