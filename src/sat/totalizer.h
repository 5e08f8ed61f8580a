/**
 * @file
 * Capped totalizer encoding for cardinality bounds.
 *
 * The weight objective of Section 3.6 is realised as a totalizer tree
 * (Bailleux & Boutier) over the per-operator weight bits. The tree's
 * outputs form a monotone unary counter: output k is implied whenever
 * at least k+1 inputs are true. Bounding "sum <= k" is then a single
 * unit clause (NOT output_k), which makes Algorithm 1's descent loop
 * incremental: each iteration only asserts one more unit.
 *
 * The counter is capped: counts above `cap` all map to the top
 * output, which keeps the clause count O(n * cap) instead of O(n^2).
 * This is sound for upper bounds not exceeding the cap.
 *
 * Key invariants:
 *  - Outputs are monotone in every model: output k true implies
 *    output k-1 true, so the counter reads as a unary number.
 *  - atLeast(count) requires 1 <= count <= width(), where width()
 *    is min(inputs, cap + 1); bounds above the cap are not
 *    expressible and must be handled by the caller.
 *  - All counter structure is built once in the constructor; later
 *    boundAtMost() calls add only single unit clauses, which is
 *    what keeps Algorithm 1's descent incremental.
 */

#ifndef FERMIHEDRAL_SAT_TOTALIZER_H
#define FERMIHEDRAL_SAT_TOTALIZER_H

#include <span>
#include <vector>

#include "sat/solver_base.h"
#include "sat/types.h"

namespace fermihedral::sat {

/** A capped unary counter over a fixed set of input literals. */
class Totalizer
{
  public:
    /**
     * Build the counter in the given solver.
     *
     * @param solver Destination solver.
     * @param inputs The counted literals.
     * @param cap    Highest count that must be distinguished; sums
     *               greater than cap saturate at cap + 1.
     */
    Totalizer(SolverBase &solver, std::span<const Lit> inputs,
              std::size_t cap);

    /**
     * Literal implied when at least `count` inputs are true
     * (1 <= count <= width()). Asserting its negation bounds the sum
     * below `count`.
     */
    Lit atLeast(std::size_t count) const;

    /** Add a permanent unit clause enforcing sum <= bound. */
    void boundAtMost(std::size_t bound);

    /** Number of usable counter outputs (min(inputs, cap + 1)). */
    std::size_t width() const { return outputs.size(); }

    /** Number of input literals. */
    std::size_t size() const { return numInputs; }

  private:
    SolverBase &sat;
    std::size_t cap;
    std::size_t numInputs;
    /** outputs[k] is implied by "at least k+1 inputs true". */
    std::vector<Lit> outputs;

    std::vector<Lit> build(std::span<const Lit> inputs);
    std::vector<Lit> merge(const std::vector<Lit> &left,
                           const std::vector<Lit> &right);
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_TOTALIZER_H
