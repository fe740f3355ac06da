#include "pcs/mkzg.hpp"

#include <algorithm>
#include <cassert>

#include "ff/vec_ops.hpp"
#include "rt/cancel.hpp"
#include "rt/parallel.hpp"

namespace zkphire::pcs {

namespace {

using zkphire::poly::FrTable;

/** Whether a commit over f should take the chunk-streaming MSM: the table
 *  is mapped (walking it all at once would fault every page into RSS) or
 *  at/above the ambient stream threshold, and bigger than one chunk. */
bool
shouldStreamCommit(const Mle &f)
{
    const zkphire::poly::StorePolicy pol =
        zkphire::poly::currentStorePolicy();
    return f.size() > pol.chunkElems &&
           (f.isMapped() || f.size() >= pol.thresholdElems);
}

/**
 * Commit already-materialized tables chunk by chunk: one MsmAccumulator
 * consumes consecutive windows of every column, and consumed windows of
 * mapped tables are dropped from RSS (the slab file keeps the data — later
 * readers fault it back). Group values equal ec::msmBatch over the whole
 * tables; commitments are affine-normalized, so the bytes match too.
 */
std::vector<G1Jacobian>
msmStreamTables(std::span<const Mle *const> polys,
                std::span<const G1Affine> points, ec::MsmStats *stats)
{
    const std::size_t n = points.size();
    const std::size_t m = polys.size();
    const std::size_t chunk =
        std::min(n, zkphire::poly::currentStorePolicy().chunkElems);
    ec::MsmAccumulator acc(n, m, ec::currentMsmOptions(), stats, chunk);
    for (const Mle *p : polys)
        p->store().adviseSequential();
    std::vector<std::span<const Fr>> cols(m);
    for (std::size_t b = 0; b < n; b += chunk) {
        rt::checkCancel(); // chunk boundary: accumulator state is consistent
        const std::size_t e = std::min(n, b + chunk);
        for (std::size_t i = 0; i < m; ++i)
            cols[i] = polys[i]->evals().subspan(b, e - b);
        acc.add(cols, points.subspan(b, e - b));
        for (const Mle *p : polys)
            if (p->isMapped())
                p->store().releaseWindow(b, e);
    }
    return acc.finalize();
}

} // namespace

Commitment
commit(const Srs &srs, const Mle &f, ec::MsmStats *stats)
{
    const LevelBases &bases = srs.basesFor(f.numVars());
    if (shouldStreamCommit(f)) {
        const Mle *one[] = {&f};
        return Commitment{
            msmStreamTables(one, bases.suffix[0], stats)[0].toAffine()};
    }
    G1Jacobian c = ec::msmPippenger(f.evals(), bases.suffix[0],
                                    ec::currentMsmOptions(), stats);
    return Commitment{c.toAffine()};
}

std::vector<Commitment>
commitBatch(const Srs &srs, std::span<const Mle *const> polys,
            ec::MsmStats *stats)
{
    std::vector<Commitment> out;
    out.reserve(polys.size());
    if (polys.empty())
        return out;
    // The multi-MSM needs one shared basis; a mixed-size family degrades
    // to per-polynomial commits (same results, no sharing) rather than
    // committing everything against polys[0]'s basis.
    const unsigned mu = polys[0]->numVars();
    for (const Mle *p : polys) {
        if (p->numVars() != mu) {
            for (const Mle *q : polys)
                out.push_back(commit(srs, *q, stats));
            return out;
        }
    }
    const LevelBases &bases = srs.basesFor(mu);
    bool stream = false;
    for (const Mle *p : polys)
        stream = stream || shouldStreamCommit(*p);
    if (stream) {
        for (const G1Jacobian &c :
             msmStreamTables(polys, bases.suffix[0], stats))
            out.push_back(Commitment{c.toAffine()});
        return out;
    }
    std::vector<std::span<const Fr>> cols;
    cols.reserve(polys.size());
    for (const Mle *p : polys)
        cols.push_back(p->evals());
    for (const G1Jacobian &c : ec::msmBatch(cols, bases.suffix[0],
                                            ec::currentMsmOptions(), stats))
        out.push_back(Commitment{c.toAffine()});
    return out;
}

std::vector<Commitment>
commitBatch(const Srs &srs, std::span<const Mle> polys, ec::MsmStats *stats)
{
    std::vector<const Mle *> ptrs;
    ptrs.reserve(polys.size());
    for (const Mle &p : polys)
        ptrs.push_back(&p);
    return commitBatch(srs, std::span<const Mle *const>(ptrs), stats);
}

OpeningProof
open(const Srs &srs, const Mle &poly, std::span<const Fr> z,
     ec::MsmStats *stats)
{
    const Mle *polys[] = {&poly};
    const std::span<const Fr> zs[] = {z};
    return std::move(openMany(srs, polys, zs, stats)[0]);
}

std::vector<OpeningProof>
openMany(const Srs &srs, std::span<const Mle *const> polys,
         std::span<const std::span<const Fr>> zs, ec::MsmStats *stats)
{
    const std::size_t m = polys.size();
    assert(zs.size() == m);
    std::vector<OpeningProof> proofs(m);

    // Phase 1, O(2^mu) field work per chain: every quotient of every
    // chain. q_k(X_{k+1}..) = cur(1, X..) - cur(0, X..) is the adjacent
    // difference, and the fold cur(z_k, X..) = cur(0, X..) + z_k * q_k
    // reuses it, so one walk per level writes both. Level k of a
    // mu-variable chain sits at offset 2^mu - 2^(mu-k) of the chain's
    // quotient table; level 0 reads the polynomial itself, so no working
    // copy is made. All buffers come from the ambient arena (installed by
    // engine::ProverContext), so a proof stream reuses one set.
    std::size_t max_n = 0;
    for (const Mle *p : polys)
        max_n = std::max(max_n, p->size());
    // Fold double buffers: even levels write fold[0], odd levels fold[1].
    FrTable fold[2] = {zkphire::poly::arenaAcquire(max_n / 2),
                       zkphire::poly::arenaAcquire(max_n / 4)};
    std::vector<FrTable> quots(m);
    std::vector<ec::MsmJob> jobs;
    for (std::size_t i = 0; i < m; ++i) {
        const unsigned mu = polys[i]->numVars();
        assert(zs[i].size() == mu && "opening point dimension mismatch");
        if (mu == 0)
            continue;
        const LevelBases &bases = srs.basesFor(mu);
        const std::size_t n = polys[i]->size();
        quots[i] = zkphire::poly::arenaAcquire(n - 1);
        Fr *q = quots[i].data();
        const Fr *cur = polys[i]->data();
        for (unsigned k = 0; k < mu; ++k) {
            const std::size_t half = n >> (k + 1);
            Fr *dst = k + 1 == mu ? nullptr : fold[k % 2].data();
            const Fr zk = zs[i][k];
            rt::parallelFor(
                0, half,
                [&](std::size_t j) {
                    const Fr d = cur[2 * j + 1] - cur[2 * j];
                    q[j] = d;
                    if (dst != nullptr)
                        dst[j] = cur[2 * j] + zk * d;
                },
                /*grain=*/0, /*minGrain=*/1024);
            jobs.push_back({std::span<const Fr>(q, half),
                            bases.suffix[k + 1]});
            q += half;
            cur = dst;
        }
    }
    zkphire::poly::arenaRelease(std::move(fold[0]));
    zkphire::poly::arenaRelease(std::move(fold[1]));

    // Phase 2: every quotient of every chain committed in one schedule.
    const std::vector<G1Jacobian> pis =
        ec::msmMany(jobs, ec::currentMsmOptions(), stats);
    std::size_t at = 0;
    for (std::size_t i = 0; i < m; ++i) {
        proofs[i].quotients.reserve(polys[i]->numVars());
        for (unsigned k = 0; k < polys[i]->numVars(); ++k)
            proofs[i].quotients.push_back(pis[at++].toAffine());
        zkphire::poly::arenaRelease(std::move(quots[i]));
    }
    return proofs;
}

bool
verifyOpening(const Srs &srs, const Commitment &c, std::span<const Fr> z,
              const Fr &value, const OpeningProof &proof)
{
    const unsigned mu = unsigned(z.size());
    if (proof.quotients.size() != mu)
        return false;
    // C - value * G == Sum_k (tau_k - z_k) * pi_k, checked in G1 with the
    // simulation trapdoor tau (testing-only; production uses a pairing).
    G1Jacobian lhs = G1Jacobian::fromAffine(c.point)
                         .add(G1Jacobian::fromAffine(srs.generator())
                                  .mulScalar(value)
                                  .neg());
    G1Jacobian rhs = G1Jacobian::identity();
    for (unsigned k = 0; k < mu; ++k) {
        Fr coeff = srs.tau()[k] - z[k];
        rhs = rhs.add(
            G1Jacobian::fromAffine(proof.quotients[k]).mulScalar(coeff));
    }
    return lhs == rhs;
}

Mle
combineForBatchOpen(std::span<const Mle *const> polys, const Fr &rho)
{
    assert(!polys.empty());
    const unsigned mu = polys[0]->numVars();
    // g = Sum_i rho^i f_i. A polynomial listed more than once (HyperPlonk
    // opens each witness column at two points, phi at three and pi at
    // four) is one term with its powers summed, so every table is read
    // once. The combination is entry-parallel: each chunk walks the terms
    // in first-occurrence order, so every entry sees the exact serial
    // accumulation sequence (bit-identical at any thread count) while the
    // chunks run concurrently.
    std::vector<const Mle *> terms;
    std::vector<Fr> coeffs;
    Fr power = Fr::one();
    for (const Mle *p : polys) {
        assert(p->numVars() == mu);
        const auto at = std::find(terms.begin(), terms.end(), p);
        if (at == terms.end()) {
            terms.push_back(p);
            coeffs.push_back(power);
        } else {
            coeffs[std::size_t(at - terms.begin())] += power;
        }
        power *= rho;
    }
    Mle g(mu);
    rt::parallelForChunks(
        0, g.size(),
        [&](std::size_t b, std::size_t e) {
            for (std::size_t i = 0; i < terms.size(); ++i) {
                const Mle &f = *terms[i];
                const Fr c = coeffs[i];
                // Fused multiply-accumulate span over the unrolled field
                // kernels; rho^0 == 1 skips its multiply pass outright
                // (1 * x is exactly x in canonical Montgomery form).
                if (c.isOne())
                    ff::addVec(&g[b], &f[b], e - b);
                else
                    ff::addMulVec(&g[b], c, &f[b], e - b);
            }
        },
        /*grain=*/0, /*minGrain=*/1024);
    return g;
}

OpeningProof
batchOpen(const Srs &srs, std::span<const Mle> polys, std::span<const Fr> z,
          const Fr &rho, ec::MsmStats *stats)
{
    std::vector<const Mle *> ptrs;
    ptrs.reserve(polys.size());
    for (const Mle &p : polys)
        ptrs.push_back(&p);
    Mle g = combineForBatchOpen(ptrs, rho);
    return open(srs, g, z, stats);
}

bool
verifyBatchOpening(const Srs &srs, std::span<const Commitment> cs,
                   std::span<const Fr> z, std::span<const Fr> values,
                   const Fr &rho, const OpeningProof &proof)
{
    assert(cs.size() == values.size());
    // Combined commitment and value via linearity.
    G1Jacobian c = G1Jacobian::identity();
    Fr v = Fr::zero();
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < cs.size(); ++i) {
        c = c.add(G1Jacobian::fromAffine(cs[i].point).mulScalar(coeff));
        v += coeff * values[i];
        coeff *= rho;
    }
    return verifyOpening(srs, Commitment{c.toAffine()}, z, v, proof);
}

} // namespace zkphire::pcs
