/**
 * @file
 * Grand-product argument machinery (Quarks-style product tree).
 *
 * The Wire Identity step proves a permutation by showing the grand product
 * of fractional terms phi equals 1. Following HyperPlonk/zkSpeed, the prover
 * materializes a (mu+1)-variable MLE v whose even entries are the leaves phi
 * and whose odd entries are internal product-tree nodes:
 *
 *     v(0, x) = phi(x)                    (leaves;    v[2x]   = phi[x])
 *     v(1, x) = v(x, 0) * v(x, 1)         (products;  v[2x+1] = v[x]*v[x+N])
 *
 * The paper's PermCheck polynomial (Table I, rows 21/23) then ZeroChecks
 *     pi(x) - p1(x)*p2(x) + alpha * (phi(x)*Prod_j D_j(x) - Prod_j N_j(x))
 * where pi(x) = v(1,x), p1(x) = v(x,0), p2(x) = v(x,1) are index-views of v,
 * and the final product v(1,..,1,0) = 1 is checked via one extra opening.
 * HyperPlonk commits and opens only the mu-variable halves phi and pi, since
 * v(y_0, y') = (1-y_0)*phi(y') + y_0*pi(y') (DESIGN.md "Grand product as
 * two mu-variable halves").
 */
#ifndef ZKPHIRE_SUMCHECK_GRAND_PRODUCT_HPP
#define ZKPHIRE_SUMCHECK_GRAND_PRODUCT_HPP

#include "poly/mle.hpp"

namespace zkphire::sumcheck {

using poly::Fr;
using poly::Mle;

/**
 * Build the (mu+1)-variable product-tree MLE v from leaves phi.
 *
 * The all-ones entry v[2^(mu+1)-1] is set to zero; the product relation at
 * x = 1^mu then holds exactly when the grand product is 1 (see file
 * comment), which is the case for valid permutation arguments.
 */
Mle buildProductTree(const Mle &phi);

/** pi view: pi(x) = v(1, x) — the odd-index entries of v. */
Mle extractPi(const Mle &v);

/** p1 view: p1(x) = v(x, 0) — the lower half of v. */
Mle extractP1(const Mle &v);

/** p2 view: p2(x) = v(x, 1) — the upper half of v. */
Mle extractP2(const Mle &v);

/**
 * The grand product of the leaves as recorded in the tree:
 * v(1,...,1,0) = v[2^mu - 1].
 */
Fr treeRootProduct(const Mle &v);

/**
 * The point (1,...,1,0) over mu+1 variables at which an opening of v reveals
 * the grand product (little-endian: first mu coordinates 1, last 0).
 */
std::vector<Fr> rootProductPoint(unsigned mu);

} // namespace zkphire::sumcheck

#endif // ZKPHIRE_SUMCHECK_GRAND_PRODUCT_HPP
