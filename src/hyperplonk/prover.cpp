#include "hyperplonk/prover.hpp"

#include <cassert>
#include <chrono>

#include "hyperplonk/protocol_common.hpp"
#include "rt/parallel.hpp"

namespace zkphire::hyperplonk {

using sumcheck::EvalClaim;

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** True when opts carry a runner that can actually spread work. */
bool
sharded(const ProveOptions &opts)
{
    return opts.units != nullptr && opts.units->width() > 1;
}

/**
 * Commit a family of same-size columns (P is Mle or const Mle *) with one
 * pcs::commitBatch. With a shard runner the columns split into one
 * contiguous group per lane instead, each a commitBatch on that lane's
 * private pool; per-column commitments are independent of the batch
 * grouping (locked by the ec::msmBatch bit-identity tests), so the merged
 * column-ordered result equals the single call exactly.
 */
template <class P>
std::vector<pcs::Commitment>
commitColumns(const pcs::Srs &srs, std::span<const P> polys,
              const ProveOptions &opts, ec::MsmStats &stats)
{
    const std::size_t k = polys.size();
    if (!sharded(opts) || k < 2)
        return pcs::commitBatch(srs, polys, &stats);
    const std::size_t width =
        std::min<std::size_t>(opts.units->width(), k);
    const std::size_t stride = (k + width - 1) / width;
    std::vector<std::vector<pcs::Commitment>> groups(width);
    std::vector<ec::MsmStats> groupStats(width);
    std::vector<std::function<void()>> units;
    units.reserve(width);
    for (std::size_t u = 0; u < width; ++u) {
        const std::size_t b = u * stride;
        const std::size_t e = std::min(k, b + stride);
        units.push_back([&, b, e, u] {
            if (b >= e)
                return;
            groups[u] =
                pcs::commitBatch(srs, polys.subspan(b, e - b), &groupStats[u]);
        });
    }
    opts.units->run(units);
    std::vector<pcs::Commitment> comms;
    comms.reserve(k);
    for (std::size_t u = 0; u < width; ++u) {
        for (auto &c : groups[u])
            comms.push_back(c);
        stats += groupStats[u]; // units never share one MsmStats
    }
    return comms;
}

} // namespace

Keys
setup(const Circuit &circuit, const pcs::Srs &srs)
{
    assert((circuit.numRows() & (circuit.numRows() - 1)) == 0 &&
           "pad the circuit to a power of two before setup");
    Keys keys;
    ProvingKey &pk = keys.pk;
    pk.sys = circuit.system();
    unsigned mu = 0;
    while ((std::size_t(1) << mu) < circuit.numRows())
        ++mu;
    assert(mu >= 1 && "the grand product needs at least two rows");
    pk.mu = mu;
    pk.selectors = circuit.selectorMles();
    pk.perm = buildPermutation(circuit);
    pk.srs = &srs;
    // Selector and sigma columns are same-size polynomial families over one
    // basis — exactly the multi-MSM shape, so preprocessing commits each
    // family with a single shared-point walk.
    pk.selectorComms = pcs::commitBatch(srs, pk.selectors);
    pk.sigmaComms = pcs::commitBatch(srs, pk.perm.sigma);

    VerifyingKey &vk = keys.vk;
    vk.sys = pk.sys;
    vk.mu = pk.mu;
    vk.selectorComms = pk.selectorComms;
    vk.sigmaComms = pk.sigmaComms;
    vk.srs = &srs;
    return keys;
}

SetupState
proveSetup(const ProvingKey &pk, const Circuit &circuit, ProverStats *stats,
           const ProveOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    // Pin every kernel in this phase (witness synthesis, commitment MSMs);
    // a default config inherits the ambient setting.
    rt::ScopedConfig scope(opts.rt);
    ec::ScopedMsmOptions msm_scope(opts.msm);
    rt::ScopedUnitRunner unit_scope(opts.units);
    poly::ScopedArena arena_scope(opts.arena);
    rt::ScopedCancel cancel_scope(opts.cancel);
    rt::checkCancel();
    assert(circuit.system() == pk.sys);
    assert(circuit.numRows() == (std::size_t(1) << pk.mu));

    ProverStats local_stats;
    ProverStats &st = stats ? *stats : local_stats;
    const pcs::Srs &srs = *pk.srs;

    SetupState state{HyperPlonkProof{},
                     detail::beginTranscript(pk.sys, pk.mu, pk.selectorComms,
                                             pk.sigmaComms),
                     {}};

    // ---- Step 1: Witness Commitments --------------------------------
    auto t0 = Clock::now();
    state.witness = circuit.witnessMles();
    // One multi-MSM for all k columns: scalars are recoded once and the
    // Lagrange basis is walked once per window instead of k times.
    state.proof.witnessComms = commitColumns(
        srs, std::span<const Mle>(state.witness), opts, st.msm);
    for (const auto &c : state.proof.witnessComms)
        pcs::appendG1(state.tr, "w_comm", c.point);
    st.witnessCommitMs = msSince(t0);
    return state;
}

HyperPlonkProof
proveOnline(const ProvingKey &pk, SetupState setup_state, ProverStats *stats,
            const ProveOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    // Pin every phase kernel (batch inversion, eq tables, sumchecks); the
    // inner sumcheck calls below pass a default rt::Config so they inherit
    // this pin rather than re-applying one. The unit-runner scope lets the
    // sumcheck round evaluations shard their pair ranges across reserved
    // lanes (sumcheck/prover.cpp).
    rt::ScopedConfig scope(opts.rt);
    ec::ScopedMsmOptions msm_scope(opts.msm);
    rt::ScopedUnitRunner unit_scope(opts.units);
    poly::ScopedArena arena_scope(opts.arena);
    rt::ScopedCancel cancel_scope(opts.cancel);
    rt::checkCancel();

    HyperPlonkProof proof = std::move(setup_state.proof);
    hash::Transcript tr = std::move(setup_state.tr);
    std::vector<Mle> witness = std::move(setup_state.witness);

    ProverStats local_stats;
    ProverStats &st = stats ? *stats : local_stats;
    const pcs::Srs &srs = *pk.srs;
    const unsigned k = numWitnessCols(pk.sys);
    assert(witness.size() == k);

    // ---- Step 2: Gate Identity Check (ZeroCheck) ---------------------
    auto t0 = Clock::now();
    const gates::Gate &gate = coreGate(pk.sys);
    std::vector<Mle> gate_tables;
    gate_tables.reserve(gate.expr.numSlots());
    for (const Mle &sel : pk.selectors)
        gate_tables.push_back(sel);
    for (const Mle &w : witness)
        gate_tables.push_back(w);
    // The core gate is fixed per gate system, so its masked plan comes from
    // the caller's (context-owned) cache — lowered once, reused across that
    // context's proofs. Without a cache it is lowered inside proveZero.
    auto gate_out = sumcheck::proveZero(
        gate.expr, std::move(gate_tables), tr, {},
        opts.plans ? opts.plans->maskedPlan(gate.expr) : nullptr);
    proof.gateZC = std::move(gate_out.proof);
    const std::vector<Fr> &z_g = gate_out.challenges;
    st.gateIdentityMs = msSince(t0);

    // ---- Step 3: Wire Identity Check ---------------------------------
    rt::checkCancel();
    t0 = Clock::now();
    Fr beta = tr.challengeFr("beta");
    Fr gamma = tr.challengeFr("gamma");
    FractionPolys fracs = buildFractionPolys(witness, pk.perm, beta, gamma);
    // The product tree v(y_0, y') = (1-y_0)*phi(y') + y_0*pi(y'), y_0 the
    // index LSB, is committed as its two mu-variable halves phi and
    // pi = v(1, .): C_phi and C_pi bind v, and on one basis the pair is a
    // single multi-MSM. v itself only feeds the PermCheck views p1 and p2.
    std::vector<Mle> perm_tables;
    perm_tables.reserve(4 + 2 * std::size_t(k));
    {
        const Mle v = sumcheck::buildProductTree(fracs.phi);
        perm_tables.push_back(sumcheck::extractPi(v));
        perm_tables.push_back(sumcheck::extractP1(v));
        perm_tables.push_back(sumcheck::extractP2(v));
    }
    perm_tables.push_back(fracs.phi);
    // N and D are read only by the PermCheck, which consumes its tables.
    for (Mle &d : fracs.denom)
        perm_tables.push_back(std::move(d));
    for (Mle &n : fracs.numer)
        perm_tables.push_back(std::move(n));
    const Mle pi = perm_tables[0];
    const Mle *halves[] = {&fracs.phi, &pi};
    const std::vector<pcs::Commitment> half_comms = commitColumns(
        srs, std::span<const Mle *const>(halves), opts, st.msm);
    proof.phiComm = half_comms[0];
    proof.piComm = half_comms[1];
    pcs::appendG1(tr, "phi_comm", proof.phiComm.point);
    pcs::appendG1(tr, "pi_comm", proof.piComm.point);
    Fr alpha = tr.challengeFr("alpha");

    gates::Gate perm_gate = gates::permCoreGate(k, alpha);
    // The PermCheck expression embeds the per-proof batching challenge
    // alpha, so its plan is lowered inline (caching it would key on alpha
    // and grow without bound).
    auto perm_out =
        sumcheck::proveZero(perm_gate.expr, std::move(perm_tables), tr);
    proof.permZC = std::move(perm_out.proof);
    const std::vector<Fr> &z_p = perm_out.challenges;
    st.wireIdentityMs = msSince(t0);

    // ---- Step 4: Batch Evaluations (OpenCheck) -----------------------
    rt::checkCancel();
    t0 = Clock::now();
    // Auxiliary claimed evaluations at z_p and at the shifted points
    // (z'', b), absorbed before eta is drawn. Each unit writes only its own
    // slots, so the absorbed values do not depend on sharding.
    proof.wAtZp.resize(k);
    proof.sigmaAtZp.resize(k);
    const std::vector<Fr> shifted[2] = {detail::shiftedPoint(z_p, 0),
                                        detail::shiftedPoint(z_p, 1)};
    std::vector<std::function<void()>> eval_units;
    for (unsigned j = 0; j < k; ++j)
        eval_units.push_back([&, j] {
            proof.wAtZp[j] = witness[j].evaluate(z_p);
            proof.sigmaAtZp[j] = pk.perm.sigma[j].evaluate(z_p);
        });
    for (unsigned b = 0; b < 2; ++b)
        eval_units.push_back([&, b] {
            proof.shiftEvals[b] = fracs.phi.evaluate(shifted[b]);
            proof.shiftEvals[2 + b] = pi.evaluate(shifted[b]);
        });
    if (sharded(opts))
        opts.units->run(eval_units);
    else
        for (const auto &unit : eval_units)
            unit();
    tr.appendFrVec("w_zp", proof.wAtZp);
    tr.appendFrVec("sigma_zp", proof.sigmaAtZp);
    tr.appendFrVec("shift_zp", proof.shiftEvals);

    std::vector<EvalClaim> claims_a = detail::buildClaimsA(
        pk.mu, numSelectorCols(pk.sys), k, z_g, z_p,
        proof.gateZC.sc.finalSlotEvals, proof.wAtZp, proof.sigmaAtZp,
        proof.permZC.sc.finalSlotEvals[3], proof.permZC.sc.finalSlotEvals[0],
        proof.shiftEvals);
    const std::vector<const Mle *> polys_a = detail::claimOrderA<Mle>(
        pk.selectors, witness, pk.perm.sigma, fracs.phi, pi);
    assert(polys_a.size() == claims_a.size());
    for (std::size_t i = 0; i < claims_a.size(); ++i)
        claims_a[i].table = *polys_a[i];
    auto open_a = sumcheck::proveOpen(std::move(claims_a), tr);
    proof.openA = std::move(open_a.proof);
    st.batchEvalMs = msSince(t0);

    // ---- Step 5: Polynomial Opening -----------------------------------
    rt::checkCancel();
    t0 = Clock::now();
    Fr rho = tr.challengeFr("rho_a");
    // g = Sum_i rho^i f_i over the OpenCheck polynomials, in claim order;
    // one mu-variable chain certifies every claim.
    const Mle g = pcs::combineForBatchOpen(polys_a, rho);
    proof.pcsA = pcs::open(srs, g, open_a.challenges, &st.msm);
    st.openingMs = msSince(t0);

    return proof;
}

HyperPlonkProof
prove(const ProvingKey &pk, const Circuit &circuit, ProverStats *stats,
      const ProveOptions &opts)
{
    return proveOnline(pk, proveSetup(pk, circuit, stats, opts), stats, opts);
}

} // namespace zkphire::hyperplonk
