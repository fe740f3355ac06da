#include "sumcheck/opencheck.hpp"

#include <algorithm>
#include <cassert>

#include "ff/vec_ops.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

using poly::GateExpr;
using poly::FrTable;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;

namespace {

/** Transcript binding of the claim set (points and values). */
void
bindClaims(const std::vector<EvalClaim> &claims, hash::Transcript &tr)
{
    tr.appendU64("oc/num_claims", claims.size());
    for (const EvalClaim &c : claims) {
        tr.appendFrVec("oc/point", c.point);
        tr.appendFr("oc/value", c.value);
    }
}

/**
 * Partition claim indices 0..k-1 into classes of an exact equality:
 * group[i] is the class of claim i, and the returned list holds each
 * class's first claim, in first-appearance order.
 */
template <class Same>
std::vector<std::size_t>
groupClaims(std::size_t k, std::vector<std::size_t> &group, const Same &same)
{
    std::vector<std::size_t> first;
    group.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t g = 0;
        while (g < first.size() && !same(first[g], i))
            ++g;
        if (g == first.size())
            first.push_back(i);
        group[i] = g;
    }
    return first;
}

/** Exact table equality; a mismatch usually exits at the first entries. */
bool
sameTable(const Mle &a, const Mle &b)
{
    if (a.size() != b.size())
        return false;
    const std::span<const Fr> x = a.evals(), y = b.evals();
    return x.data() == y.data() || std::equal(x.begin(), x.end(), y.begin());
}

/**
 * acc += Sum_{j >= 1} coeffs[j] * parts[j], where acc already holds
 * parts[0]. Chunk-outer, so each chunk of acc stays hot across all parts
 * and the whole combination is one parallel pass.
 */
void
accumulateParts(FrTable &acc, std::span<const Fr> coeffs,
                std::span<const Fr *const> parts)
{
    rt::parallelForChunks(
        0, acc.size(),
        [&](std::size_t b, std::size_t e) {
            for (std::size_t j = 1; j < parts.size(); ++j)
                ff::addMulVec(&acc[b], coeffs[j], parts[j] + b, e - b);
        },
        /*grain=*/0, /*minGrain=*/1024);
}

} // namespace

OpencheckProverOutput
proveOpen(std::vector<EvalClaim> claims, hash::Transcript &tr,
          const rt::Config &cfg)
{
    assert(!claims.empty());
    const unsigned mu = unsigned(claims[0].point.size());
    const std::size_t k = claims.size();
    for ([[maybe_unused]] const EvalClaim &c : claims) {
        assert(c.point.size() == mu && "all claims must share dimensions");
        assert(c.table.numVars() == mu);
    }

    // Covers the eq-table builds below as well as the inner sumcheck.
    rt::ScopedConfig scope(cfg);

    bindClaims(claims, tr);
    const Fr eta = tr.challengeFr("oc/eta");
    std::vector<Fr> powers(k);
    powers[0] = Fr::one();
    for (std::size_t i = 1; i < k; ++i)
        powers[i] = powers[i - 1] * eta;

    // The batched polynomial Sum_i eta^i P_i eq(z_i) regrouped over the
    // smaller of its distinct points and distinct tables (DESIGN.md
    // "Factored OpenCheck"): by point it is Sum_z eq(z) * Q_z with
    // Q_z = Sum_{z_i = z} eta^i P_i, by table Sum_P P * E_P with
    // E_P = Sum_{P_i = P} eta^i eq(z_i). Either is the same polynomial, so
    // every round message is the same bytes as the 2k-slot batch.
    std::vector<std::size_t> point_of, table_of;
    const std::vector<std::size_t> points = groupClaims(
        k, point_of,
        [&](std::size_t a, std::size_t b) {
            return claims[a].point == claims[b].point;
        });
    const std::vector<std::size_t> tables = groupClaims(
        k, table_of, [&](std::size_t a, std::size_t b) {
            return sameTable(claims[a].table, claims[b].table);
        });
    const bool by_table = tables.size() <= points.size();
    const std::vector<std::size_t> &lead = by_table ? tables : points;
    const std::vector<std::size_t> &group_of = by_table ? table_of : point_of;
    const std::size_t g = lead.size();
    const std::size_t n = std::size_t(1) << mu;

    // Slot 2j is the group's shared factor (its table, or eq of its point),
    // slot 2j+1 the combination; the term coefficient is the power of the
    // group's first claim, so the combination starts from an unscaled part.
    GateExpr expr("OpenCheck");
    std::vector<Mle> slots;
    slots.reserve(2 * g);
    for (std::size_t j = 0; j < g; ++j) {
        const SlotId a = expr.addSlot("F" + std::to_string(j));
        const SlotId b = expr.addSlot("C" + std::to_string(j));
        expr.addTerm(powers[lead[j]], {a, b});
        std::vector<std::size_t> members;
        std::vector<Fr> coeffs; // eta^(i - lead); the term carries eta^lead
        for (std::size_t i = lead[j]; i < k; ++i) {
            if (group_of[i] != j)
                continue;
            members.push_back(i);
            coeffs.push_back(powers[i - lead[j]]);
        }
        FrTable combo = poly::arenaAcquire(n);
        std::vector<FrTable> eqs(members.size() - 1); // by table, members 1..
        std::vector<const Fr *> parts;
        for (std::size_t m = 0; m < members.size(); ++m) {
            const EvalClaim &c = claims[members[m]];
            if (!by_table) {
                parts.push_back(c.table.data());
                continue;
            }
            FrTable &dst = m == 0 ? combo : eqs[m - 1];
            poly::eqTableInto(c.point, dst);
            parts.push_back(dst.data());
        }
        if (by_table) {
            slots.push_back(std::move(claims[lead[j]].table));
        } else {
            combo.assign(claims[lead[j]].table.evals());
            slots.push_back(Mle::eqTable(claims[lead[j]].point));
        }
        accumulateParts(combo, coeffs, parts);
        slots.push_back(Mle(std::move(combo)));
    }

    VirtualPoly vp(std::move(expr), std::move(slots));
    ProverOutput sc = proveRounds(vp, tr);
    const std::vector<Fr> &r = sc.challenges;

    // Claim-order final evaluations: P_i(r) for every claim, then
    // eq(r, z_i). eq is one O(mu) product per distinct point; each
    // distinct table is either a folded slot (by table) or one inner
    // product with eq(r, .) (by point).
    std::vector<Fr> finals(2 * k);
    std::vector<Fr> table_evals(tables.size());
    if (by_table) {
        for (std::size_t j = 0; j < g; ++j)
            table_evals[j] = vp.table(SlotId(2 * j))[0];
    } else {
        const Mle eq_r = Mle::eqTable(r);
        rt::parallelFor(
            0, tables.size(),
            [&](std::size_t t) {
                const Mle &p = claims[tables[t]].table;
                Fr acc = Fr::zero();
                for (std::size_t x = 0; x < n; ++x)
                    acc += p[x] * eq_r[x];
                table_evals[t] = acc;
            },
            /*grain=*/1);
    }
    std::vector<Fr> point_evals(points.size());
    for (std::size_t p = 0; p < points.size(); ++p)
        point_evals[p] = poly::eqEval(r, claims[points[p]].point);
    for (std::size_t i = 0; i < k; ++i) {
        finals[i] = table_evals[table_of[i]];
        finals[k + i] = point_evals[point_of[i]];
    }
    appendFinalEvals(sc.proof, std::move(finals), tr);

    OpencheckProverOutput out;
    out.polyEvals.assign(sc.proof.finalSlotEvals.begin(),
                         sc.proof.finalSlotEvals.begin() + k);
    out.proof.sc = std::move(sc.proof);
    out.challenges = std::move(sc.challenges);
    return out;
}

OpencheckVerifyResult
verifyOpen(const std::vector<EvalClaim> &claims, const OpencheckProof &proof,
           unsigned num_vars, hash::Transcript &tr)
{
    OpencheckVerifyResult res;
    const std::size_t k = claims.size();
    if (k == 0) {
        res.error = "no claims";
        return res;
    }

    bindClaims(claims, tr);
    const Fr eta = tr.challengeFr("oc/eta");

    // Expected batched sum: Sum_i eta^i * y_i.
    Fr expected = Fr::zero();
    Fr coeff = Fr::one();
    for (const EvalClaim &c : claims) {
        expected += coeff * c.value;
        coeff *= eta;
    }

    // Sum_i eta^i P_i eq(z_i) has degree 2 in every variable.
    RoundCheckResult rounds =
        verifyRounds(proof.sc, num_vars, /*degree=*/2, tr, expected);
    if (!rounds.ok) {
        res.error = rounds.error;
        return res;
    }
    if (proof.sc.finalSlotEvals.size() != 2 * k) {
        res.error = "wrong number of final slot evaluations";
        return res;
    }

    // Recompute the eq slot evaluations; only the P_i evals stay claimed.
    std::vector<Fr> evals = proof.sc.finalSlotEvals;
    Fr batched = Fr::zero();
    coeff = Fr::one();
    for (std::size_t i = 0; i < k; ++i) {
        evals[k + i] = poly::eqEval(rounds.challenges, claims[i].point);
        batched += coeff * evals[i] * evals[k + i];
        coeff *= eta;
    }
    if (batched != rounds.finalClaim) {
        res.error = "final evaluation check failed";
        return res;
    }

    res.ok = true;
    res.challenges = std::move(rounds.challenges);
    res.polyEvals.assign(evals.begin(), evals.begin() + k);
    return res;
}

} // namespace zkphire::sumcheck
