/**
 * @file
 * zkbench: runs one workload of the repository benchmark.
 *
 * One process runs one workload, measured from outside through the public
 * entry points of hyperplonk, engine, sumcheck, pcs, ec, poly, ff and sim:
 *
 *   prove_jellyfish_mu14  closed loop, one client: ProverContext::prove on
 *                         one synthetic Jellyfish circuit, one proof at a
 *                         time.
 *   service_mixed_mu12    one generator thread keeps 4 jobs in flight on a
 *                         ProofService (2 lanes x 2 threads), rotating over
 *                         {vanilla, jellyfish} x {mu 10, mu 12}.
 *   sumcheck_tableI_mu18  sumcheck::proveZero over the 25 Table I gates,
 *                         in whole passes, each proof checked by verifyZero.
 *
 * Inputs come from --seed and are generated outside every timed region.
 * Every output is checked (verify, serialization round trip, byte identity
 * with a one-shot reference, verifyZero); a miss counts as failed and makes
 * the process exit 1. With --trace 1 the run records spans around each
 * layer call (trace.hpp), writes them as Chrome trace-event JSON, prints a
 * per-layer self-time table and the sim model beside the measurement, and
 * reports per-layer metrics instead of end-to-end ones. The last stdout line
 * is "ZKBENCH_RESULT {json}"; perfbench/run.py turns it into the benchmark
 * result. See perfbench/README.md.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/context.hpp"
#include "engine/service.hpp"
#include "ff/batch_inverse.hpp"
#include "ff/mul_asm_x86.hpp"
#include "gates/gate_library.hpp"
#include "hash/keccak.hpp"
#include "hyperplonk/permutation.hpp"
#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"
#include "pcs/mkzg.hpp"
#include "poly/mle_store.hpp"
#include "rt/parallel.hpp"
#include "sim/baseline.hpp"
#include "sim/chip.hpp"
#include "sim/sumcheck_unit.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"
#include "sumcheck/zerocheck.hpp"
#include "trace.hpp"

#ifndef ZKBENCH_BUILD_TYPE
#define ZKBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

namespace {

using namespace zkphire;
using zkbench::Clock;
using zkbench::Scope;
using zkbench::Tracer;
using ff::Fr;
using hyperplonk::Circuit;
using hyperplonk::HyperPlonkProof;
using poly::Mle;

// ---------------------------------------------------------------------------
// Options, statistics, report.
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string traceOut; ///< Chrome trace path (trace mode).
};

double
msSince(Clock::time_point a)
{
    return Tracer::ms(a, Clock::now());
}

/** Linear-interpolated quantile (the "inclusive" definition). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

struct Metric {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
};

/** Per-layer metrics every traced run reports; a layer the workload never
 *  calls reads 0. Units: ms, or count (exact operation counts). */
const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = [] {
        std::vector<std::pair<std::string, std::string>> n;
        auto add = [&](std::string name, const char *unit) {
            n.emplace_back(std::move(name), unit);
        };
        for (const char *s : {"witness_commit", "gate_identity",
                              "wire_identity", "batch_eval", "opening"})
            add(std::string("hyperplonk.prover.") + s + "_ms", "ms");
        add("hyperplonk.preprocess_ms", "ms");
        add("hyperplonk.prove_ms", "ms");
        add("hyperplonk.verify_ms", "ms");
        add("hyperplonk.fraction_polys_ms", "ms");
        for (const char *s : {"recode", "bucket", "fold"})
            add(std::string("ec.msm.") + s + "_ms", "ms");
        for (const char *s : {"point_adds", "affine_adds", "point_doubles",
                              "batch_inversions", "dense_scalars",
                              "trivial_scalars"})
            add(std::string("ec.msm.") + s, "count");
        add("pcs.srs.generate_ms", "ms");
        add("pcs.srs.derive_ms", "ms");
        add("pcs.mkzg.commit_batch_ms", "ms");
        add("pcs.mkzg.open_ms", "ms");
        for (int g = 0; g < 25; ++g) {
            char buf[48];
            std::snprintf(buf, sizeof buf, "sumcheck.tableI.g%02d_ms", g);
            add(buf, "ms");
        }
        add("sumcheck.zerocheck_core_ms", "ms");
        add("sumcheck.product_tree_ms", "ms");
        add("sumcheck.opencheck_ms", "ms");
        add("sumcheck.verify_zero_ms", "ms");
        add("poly.eq_table_ms", "ms");
        add("ff.batch_inverse_ms", "ms");
        for (const char *s :
             {"queue_wait_p50", "setup_phase_p50", "online_phase_p50"})
            add(std::string("engine.") + s + "_ms", "ms");
        for (const char *s : {"sharded_phases", "shard_helper_lanes",
                              "shard_recalls", "retries"})
            add(std::string("engine.") + s, "count");
        for (const char *s : {"arena_hits", "arena_misses", "mapped_bytes"})
            add(std::string("poly.store.") + s, "count");
        for (const char *s :
             {"sparse_msm", "gate_identity", "gen_perm_mles", "perm_dense_msm",
              "perm_check", "batch_evals", "mle_combine", "open_check",
              "poly_open_msm", "total", "sumcheck_geomean"})
            add(std::string("sim.cpu_model.") + s + "_ms", "ms");
        add("sim.chip.exemplar_total_ms", "ms");
        add("sim.sumcheck_unit.geomean_ms", "ms");
        for (const char *l :
             {"hyperplonk", "engine", "pcs", "sumcheck", "poly", "ff"})
            add(std::string("self.") + l + "_ms", "ms");
        add("trace.overhead_pct", "%");
        add("trace.spans", "count");
        return n;
    }();
    return names;
}

struct Report {
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, std::string>> host;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::vector<std::string> errors;

    void set(const std::string &name, double value, const char *unit,
             std::size_t samples = 1)
    {
        metrics[name] = {value, unit, samples};
    }
    /** Per-layer timing: the median of the samples. */
    void setMedian(const std::string &name, const std::vector<double> &v)
    {
        set(name, median(v), "ms", v.size());
    }
    void miss(std::string what)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(std::move(what));
    }
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

/** The configuration block printed with every result. */
void
describeHost(Report &rep, const Options &opt, const rt::Config &cfg,
             const ec::MsmOptions &msm)
{
    std::size_t streamThreshold = 0, streamChunk = 0;
    {
        rt::ScopedConfig scope(cfg);
        poly::StorePolicy p = poly::currentStorePolicy();
        streamThreshold = p.thresholdElems;
        streamChunk = p.chunkElems;
    }
    auto yes = [](bool b) { return std::string(b ? "yes" : "no"); };
    rep.host = {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu", cpuModel()},
        {"asm_adx_bmi2", yes(ff::kernels::asmKernelsEnabled())},
        {"build_type", ZKBENCH_BUILD_TYPE},
        {"threads", std::to_string(cfg.threads)},
        {"seed", std::to_string(opt.seed)},
        {"mode", opt.smoke ? "smoke" : "full"},
        {"msm.window_bits", std::to_string(msm.windowBits)},
        {"msm.signed_digits", yes(msm.signedDigits)},
        {"msm.batch_affine", yes(msm.batchAffine)},
        {"msm.glv", yes(msm.glv)},
        {"msm.batch_affine_min_points",
         std::to_string(msm.batchAffineMinPoints)},
        {"stream_threshold_elems", streamThreshold == SIZE_MAX
                                       ? std::string("off")
                                       : std::to_string(streamThreshold)},
        {"stream_chunk_elems", std::to_string(streamChunk)},
    };
}

/** At most min(4, nproc) threads, passed explicitly to every layer. */
rt::Config
benchConfig()
{
    return {.threads = std::min(
                4u, std::max(1u, std::thread::hardware_concurrency()))};
}

/**
 * Checks one proof: hyperplonk::verify (timed into verifyMs), the
 * serialization round trip, and byte identity with the one-shot proof of
 * the same circuit. Returns the first miss, empty when the proof is good.
 */
std::string
checkProof(const hyperplonk::VerifyingKey &vk, const HyperPlonkProof &p,
           const std::vector<std::uint8_t> &ref, std::vector<double> &verifyMs,
           Tracer &tr)
{
    const auto t0 = Clock::now();
    hyperplonk::VerifyResult vr;
    {
        Scope sp(tr, "hyperplonk.verify");
        vr = hyperplonk::verify(vk, p);
    }
    verifyMs.push_back(msSince(t0));
    if (!vr.ok)
        return "verify: " + vr.error;
    const auto bytes = hyperplonk::serializeProof(p);
    const auto back = hyperplonk::deserializeProof(bytes);
    if (!back || hyperplonk::serializeProof(*back) != bytes)
        return "serialization round trip";
    if (bytes != ref)
        return "proof differs from the one-shot proof of its circuit";
    return {};
}

// ---------------------------------------------------------------------------
// Shared proving set-up: SRS, context, preprocessing, warm-up proofs.
// ---------------------------------------------------------------------------

struct Session {
    std::unique_ptr<pcs::Srs> srs;
    std::unique_ptr<engine::ProverContext> ctx;
    std::vector<const hyperplonk::Keys *> keys;
    std::vector<std::vector<std::uint8_t>> refBytes; ///< Warm-up proofs.
};

/**
 * Everything from nothing until the circuits can be proven warm: SRS
 * ceremony, preprocessing, and one warm-up proof per circuit (lazy SRS
 * levels, arena and plan cache land wherever they first occur). Traced,
 * the SRS levels 1..maxMu+1 are derived explicitly so each one is a span.
 */
Session
setUp(const std::vector<Circuit> &circuits, unsigned maxMu,
      std::uint64_t seed, const rt::Config &cfg, Tracer &tr)
{
    Session s;
    ff::Rng srsRng(seed ^ 0x5eedf00dULL);
    {
        Scope sp(tr, "pcs.srs.generate");
        s.srs = std::make_unique<pcs::Srs>(
            pcs::Srs::generate(maxMu + 1, srsRng));
    }
    if (tr.enabled()) {
        Scope sp(tr, "pcs.srs.derive");
        for (unsigned l = 1; l <= maxMu + 1; ++l) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "pcs.srs.level.%02u", l);
            Scope lv(tr, buf);
            s.srs->basesFor(l);
        }
    }
    s.ctx = std::make_unique<engine::ProverContext>(*s.srs, cfg);
    for (const Circuit &c : circuits) {
        Scope sp(tr, "hyperplonk.preprocess");
        s.keys.push_back(&s.ctx->preprocess(c));
    }
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        Scope sp(tr, "hyperplonk.warmup_prove");
        s.refBytes.push_back(hyperplonk::serializeProof(
            s.ctx->prove(s.keys[i]->pk, circuits[i])));
    }
    return s;
}

/**
 * Step and MSM metrics: the mean per proof of each ProverStats field. A
 * mean, not a median, because the service mixes four circuits in equal
 * shares and a median would fall between them.
 */
void
reportProverStats(Report &rep, const std::vector<hyperplonk::ProverStats> &st)
{
    using S = hyperplonk::ProverStats;
    auto mean = [&](const char *name, const char *unit, auto field) {
        double sum = 0;
        for (const S &s : st)
            sum += double(field(s));
        rep.set(name, st.empty() ? 0.0 : sum / double(st.size()), unit,
                st.size());
    };
    mean("hyperplonk.prover.witness_commit_ms", "ms",
         [](const S &s) { return s.witnessCommitMs; });
    mean("hyperplonk.prover.gate_identity_ms", "ms",
         [](const S &s) { return s.gateIdentityMs; });
    mean("hyperplonk.prover.wire_identity_ms", "ms",
         [](const S &s) { return s.wireIdentityMs; });
    mean("hyperplonk.prover.batch_eval_ms", "ms",
         [](const S &s) { return s.batchEvalMs; });
    mean("hyperplonk.prover.opening_ms", "ms",
         [](const S &s) { return s.openingMs; });
    mean("ec.msm.recode_ms", "ms", [](const S &s) { return s.msm.recodeMs; });
    mean("ec.msm.bucket_ms", "ms", [](const S &s) { return s.msm.bucketMs; });
    mean("ec.msm.fold_ms", "ms", [](const S &s) { return s.msm.foldMs; });
    mean("ec.msm.point_adds", "count",
         [](const S &s) { return s.msm.pointAdds; });
    mean("ec.msm.affine_adds", "count",
         [](const S &s) { return s.msm.affineAdds; });
    mean("ec.msm.point_doubles", "count",
         [](const S &s) { return s.msm.pointDoubles; });
    mean("ec.msm.batch_inversions", "count",
         [](const S &s) { return s.msm.batchInversions; });
    mean("ec.msm.dense_scalars", "count",
         [](const S &s) { return s.msm.denseScalars; });
    mean("ec.msm.trivial_scalars", "count",
         [](const S &s) { return s.msm.trivialScalars; });
}

void
reportSetupSpans(Report &rep, const Tracer &tr)
{
    auto total = [&](const char *name) {
        double t = 0;
        for (double d : tr.durationsMs(name))
            t += d;
        return t;
    };
    rep.set("pcs.srs.generate_ms", total("pcs.srs.generate"), "ms");
    rep.set("pcs.srs.derive_ms", total("pcs.srs.derive"), "ms");
    rep.set("hyperplonk.preprocess_ms", total("hyperplonk.preprocess"), "ms",
            tr.durationsMs("hyperplonk.preprocess").size());
}

/** Store/arena counter deltas over the measured loop, per proof. */
void
reportStoreCounters(Report &rep, const poly::StoreCounters &a,
                    const poly::StoreCounters &b, std::size_t proofs)
{
    const double n = double(std::max<std::size_t>(proofs, 1));
    rep.set("poly.store.arena_hits", double(b.arenaHits - a.arenaHits) / n,
            "count", proofs);
    rep.set("poly.store.arena_misses",
            double(b.arenaMisses - a.arenaMisses) / n, "count", proofs);
    rep.set("poly.store.mapped_bytes",
            double(b.mappedBytes - a.mappedBytes) / n, "count", proofs);
}

/** Measured overhead of tracing: traced vs untraced op latency medians. */
void
reportOverhead(Report &rep, const std::vector<double> &traced,
               const std::vector<double> &untraced)
{
    const double u = median(untraced);
    rep.set("trace.overhead_pct",
            u > 0 ? 100.0 * (median(traced) - u) / u : 0.0, "%",
            traced.size() + untraced.size());
}

// ---------------------------------------------------------------------------
// prove_jellyfish: closed loop, one client, one circuit.
// ---------------------------------------------------------------------------

/**
 * The traced run's direct layer calls on the proof's own inputs: the
 * witness-column commitBatch, the core-gate ZeroCheck, fraction polys +
 * batch inversion + product tree, an OpenCheck, an mKZG opening and an eq
 * table. Each is a span and each output is checked; the batch counts as
 * one attempted operation with at most one miss.
 */
void
layerCalls(const Circuit &c, const Session &s, const HyperPlonkProof &proof,
           const rt::Config &cfg, ff::Rng &rng, Tracer &tr, Report &rep)
{
    std::string miss;
    auto check = [&](bool ok, const char *what) {
        if (!ok && miss.empty())
            miss = what;
    };
    rt::ScopedConfig scope(cfg);
    const auto &pk = s.keys[0]->pk;
    const unsigned mu = pk.mu;
    std::vector<Mle> w = c.witnessMles();

    std::vector<pcs::Commitment> comms;
    {
        Scope sp(tr, "pcs.mkzg.commit_batch");
        comms = pcs::commitBatch(*s.srs, std::span<const Mle>(w));
    }
    check(comms == proof.witnessComms,
          "commitBatch differs from the proof's witness commitments");

    {
        const gates::Gate &gate = hyperplonk::coreGate(pk.sys);
        std::vector<Mle> tables = c.selectorMles();
        tables.insert(tables.end(), w.begin(), w.end());
        auto plan = s.ctx->plans().maskedPlan(gate.expr);
        hash::Transcript tp("zkbench/core");
        sumcheck::ZerocheckProverOutput out;
        {
            Scope sp(tr, "sumcheck.zerocheck_core");
            out = sumcheck::proveZero(gate.expr, std::move(tables), tp, cfg,
                                      plan);
        }
        hash::Transcript tv("zkbench/core");
        Scope sp(tr, "sumcheck.verify_zero");
        check(sumcheck::verifyZero(gate.expr, out.proof, mu, tv).ok,
              "core-gate verifyZero");
    }

    {
        const Fr beta = Fr::random(rng), gamma = Fr::random(rng);
        hyperplonk::FractionPolys fp;
        {
            Scope sp(tr, "hyperplonk.fraction_polys");
            fp = hyperplonk::buildFractionPolys(w, pk.perm, beta, gamma);
        }
        std::vector<Fr> inv;
        {
            Scope sp(tr, "ff.batch_inverse");
            inv = ff::batchInverse<Fr>(fp.denom[0].evals());
        }
        for (std::size_t i = 0; i < inv.size(); i += inv.size() / 7 + 1)
            check(inv[i] * fp.denom[0][i] == Fr::one(), "batchInverse");
        Mle v;
        {
            Scope sp(tr, "sumcheck.product_tree");
            v = sumcheck::buildProductTree(fp.phi);
        }
        check(sumcheck::treeRootProduct(v) == Fr::one(),
              "product tree root != 1");
    }

    std::vector<Fr> z;
    for (unsigned i = 0; i < mu; ++i)
        z.push_back(Fr::random(rng));
    {
        std::vector<sumcheck::EvalClaim> claims, vclaims;
        for (const Mle &m : w) {
            const Fr y = m.evaluate(z);
            claims.push_back({m, z, y});
            vclaims.push_back({Mle(), z, y});
        }
        hash::Transcript tp("zkbench/open");
        sumcheck::OpencheckProverOutput out;
        {
            Scope sp(tr, "sumcheck.opencheck");
            out = sumcheck::proveOpen(std::move(claims), tp, cfg);
        }
        hash::Transcript tv("zkbench/open");
        check(sumcheck::verifyOpen(vclaims, out.proof, mu, tv).ok,
              "verifyOpen");
    }
    {
        pcs::OpeningProof op;
        {
            Scope sp(tr, "pcs.mkzg.open");
            op = pcs::open(*s.srs, w[0], z);
        }
        check(pcs::verifyOpening(*s.srs, comms[0], z, w[0].evaluate(z), op),
              "mKZG opening");
    }
    Mle eq;
    {
        Scope sp(tr, "poly.eq_table");
        eq = Mle::eqTable(z);
    }
    Fr sum = Fr::zero();
    for (const Fr &x : eq.evals())
        sum += x;
    check(sum == Fr::one(), "eq table does not sum to 1");

    ++rep.attempted;
    if (!miss.empty())
        rep.miss(miss);
}

void
simProtocol(Report &rep, unsigned mu, unsigned threads)
{
    sim::CpuModel cpu;
    cpu.threads = threads;
    const auto wl = sim::ProtocolWorkload::jellyfish(mu);
    const auto b = cpu.protocolBreakdown(wl);
    rep.set("sim.cpu_model.sparse_msm_ms", b.sparseMsm, "ms");
    rep.set("sim.cpu_model.gate_identity_ms", b.gateIdentity, "ms");
    rep.set("sim.cpu_model.gen_perm_mles_ms", b.genPermMles, "ms");
    rep.set("sim.cpu_model.perm_dense_msm_ms", b.permDenseMsm, "ms");
    rep.set("sim.cpu_model.perm_check_ms", b.permCheck, "ms");
    rep.set("sim.cpu_model.batch_evals_ms", b.batchEvals, "ms");
    rep.set("sim.cpu_model.mle_combine_ms", b.mleCombine, "ms");
    rep.set("sim.cpu_model.open_check_ms", b.openCheck, "ms");
    rep.set("sim.cpu_model.poly_open_msm_ms", b.polyOpenMsm, "ms");
    rep.set("sim.cpu_model.total_ms", b.total(), "ms");
    rep.set("sim.chip.exemplar_total_ms",
            sim::simulateProtocol(sim::ChipConfig::exemplar(), wl).totalMs,
            "ms");
}

void
printModelTable(const Report &rep)
{
    auto m = [&](const char *n) {
        auto it = rep.metrics.find(n);
        return it == rep.metrics.end() ? 0.0 : it->second.value;
    };
    std::printf("\nmodel beside measurement (ms; measured = mean per proof)\n"
                "  sim::CpuModel constants are fitted to the paper's EPYC 7502 "
                "anchors and have\n  not been re-validated on this host; no "
                "model error is claimed.\n");
    std::printf("  %-16s %12s %14s %14s\n", "step", "measured", "cpu_model",
                "chip(exemplar)");
    struct Row {
        const char *step, *measured;
        double model;
    };
    const Row rows[] = {
        {"witness commit", "hyperplonk.prover.witness_commit_ms",
         m("sim.cpu_model.sparse_msm_ms")},
        {"gate identity", "hyperplonk.prover.gate_identity_ms",
         m("sim.cpu_model.gate_identity_ms")},
        {"wire identity", "hyperplonk.prover.wire_identity_ms",
         m("sim.cpu_model.gen_perm_mles_ms") +
             m("sim.cpu_model.perm_dense_msm_ms") +
             m("sim.cpu_model.perm_check_ms")},
        {"batch eval", "hyperplonk.prover.batch_eval_ms",
         m("sim.cpu_model.batch_evals_ms")},
        {"opening", "hyperplonk.prover.opening_ms",
         m("sim.cpu_model.mle_combine_ms") + m("sim.cpu_model.open_check_ms") +
             m("sim.cpu_model.poly_open_msm_ms")},
    };
    double measuredTotal = 0;
    for (const Row &r : rows) {
        measuredTotal += m(r.measured);
        std::printf("  %-16s %12.2f %14.2f %14s\n", r.step, m(r.measured),
                    r.model, "");
    }
    std::printf("  %-16s %12.2f %14.2f %14.3f\n", "total", measuredTotal,
                m("sim.cpu_model.total_ms"), m("sim.chip.exemplar_total_ms"));
}

void
runProveJellyfish(const Options &opt, Tracer &tr, Report &rep)
{
    const unsigned mu = opt.smoke ? 8 : 14;
    const unsigned setups = opt.trace ? 1 : 3;
    const rt::Config cfg = benchConfig();

    ff::Rng rng(opt.seed);
    std::vector<Circuit> circuits{hyperplonk::randomJellyfishCircuit(mu, rng)};

    std::vector<double> setupS;
    Session s;
    for (unsigned k = 0; k < setups; ++k) {
        s = Session(); // release the previous session before timing
        const auto t0 = Clock::now();
        s = setUp(circuits, mu, opt.seed, cfg, tr);
        setupS.push_back(msSince(t0) / 1000.0);
    }
    describeHost(rep, opt, cfg, s.ctx->msmOptions());
    rep.host.push_back({"workload.mu", std::to_string(mu)});
    rep.host.push_back({"workload.gate_system", "jellyfish"});
    rep.host.push_back({"workload.clients", "1 (closed loop)"});
    const auto &pk = s.keys[0]->pk;
    const auto &vk = s.keys[0]->vk;

    std::vector<double> lat, tracedLat, untracedLat;
    std::vector<HyperPlonkProof> proofs;
    std::vector<hyperplonk::ProverStats> stats;
    const auto counters0 = poly::storeCounters();
    const auto start = Clock::now();
    const int loop = tr.begin("bench.closed_loop");
    for (std::size_t i = 0;
         msSince(start) < opt.seconds * 1000.0 || (opt.trace && i < 2); ++i) {
        const bool traced = opt.trace && i % 2 == 0;
        hyperplonk::ProverStats st;
        const auto t0 = Clock::now();
        {
            std::optional<Scope> sp;
            if (traced)
                sp.emplace(tr, "hyperplonk.prove");
            proofs.push_back(s.ctx->prove(pk, circuits[0], &st));
        }
        const double d = msSince(t0);
        lat.push_back(d);
        (traced ? tracedLat : untracedLat).push_back(d);
        stats.push_back(st);
        if (traced)
            layerCalls(circuits[0], s, proofs.back(), cfg, rng, tr, rep);
    }
    const double wallS = msSince(start) / 1000.0;
    tr.end(loop);
    const auto counters1 = poly::storeCounters();

    std::vector<double> verifyMs;
    for (const HyperPlonkProof &p : proofs) {
        ++rep.attempted;
        const std::string miss = checkProof(vk, p, s.refBytes[0], verifyMs, tr);
        if (!miss.empty())
            rep.miss(miss);
    }
    rep.digest = hash::toHex(hash::keccak256(s.refBytes[0]));

    if (!opt.trace) {
        rep.set("setup_s", median(setupS), "s", setupS.size());
        rep.set("latency_p50_ms", median(lat), "ms", lat.size());
        rep.set("latency_p90_ms", quantile(lat, 0.9), "ms", lat.size());
        rep.set("latency_geomean_ms", geomean(lat), "ms", lat.size());
        rep.set("prove_p50_s", median(lat) / 1000.0, "s", lat.size());
        rep.set("proofs_per_s", double(proofs.size()) / wallS, "1/s",
                proofs.size());
        rep.set("verify_geomean_ms", geomean(verifyMs), "ms", verifyMs.size());
        rep.set("proof_kb", double(s.refBytes[0].size()) / 1024.0, "KiB", 1);
        return;
    }
    reportSetupSpans(rep, tr);
    reportProverStats(rep, stats);
    reportOverhead(rep, tracedLat, untracedLat);
    for (const char *n :
         {"hyperplonk.prove", "hyperplonk.verify", "hyperplonk.fraction_polys",
          "pcs.mkzg.commit_batch", "pcs.mkzg.open", "sumcheck.zerocheck_core",
          "sumcheck.product_tree", "sumcheck.opencheck",
          "sumcheck.verify_zero", "poly.eq_table", "ff.batch_inverse"})
        rep.setMedian(std::string(n) + "_ms", tr.durationsMs(n));
    reportStoreCounters(rep, counters0, counters1, proofs.size());
    simProtocol(rep, mu, cfg.threads);
    printModelTable(rep);
}

// ---------------------------------------------------------------------------
// service_mixed: closed loop, 4 jobs in flight over a 2-lane ProofService.
// ---------------------------------------------------------------------------

void
runServiceMixed(const Options &opt, Tracer &tr, Report &rep)
{
    const unsigned lo = opt.smoke ? 8 : 10, hi = opt.smoke ? 9 : 12;
    const unsigned setups = opt.trace ? 1 : 3;
    constexpr unsigned kInFlight = 4, kLanes = 2;
    const rt::Config cfg = benchConfig();

    ff::Rng rng(opt.seed);
    std::vector<Circuit> circuits;
    for (unsigned mu : {lo, hi}) {
        circuits.push_back(hyperplonk::randomVanillaCircuit(mu, rng));
        circuits.push_back(hyperplonk::randomJellyfishCircuit(mu, rng));
    }

    std::vector<double> setupS;
    Session s;
    std::unique_ptr<engine::ProofService> svc;
    for (unsigned k = 0; k < setups; ++k) {
        svc.reset();
        s = Session();
        const auto t0 = Clock::now();
        s = setUp(circuits, hi, opt.seed, cfg, tr);
        {
            Scope sp(tr, "engine.service_start");
            engine::ServiceOptions so;
            so.lanes = kLanes;
            svc = std::make_unique<engine::ProofService>(*s.ctx, so);
        }
        setupS.push_back(msSince(t0) / 1000.0);
    }
    describeHost(rep, opt, cfg, s.ctx->msmOptions());
    rep.host.push_back({"workload.mu", std::to_string(lo) + "," +
                                           std::to_string(hi)});
    rep.host.push_back({"workload.gate_system", "vanilla,jellyfish"});
    rep.host.push_back({"workload.lanes", std::to_string(kLanes)});
    rep.host.push_back(
        {"workload.clients", std::to_string(kInFlight) + " in flight "
                             "(closed loop, one generator thread)"});

    struct Job {
        std::future<engine::ProofResult> fut;
        Clock::time_point submitted;
        std::size_t index = 0;
    };
    struct Done {
        engine::ProofResult res;
        std::size_t circuit = 0;
        double ms = 0;
        bool traced = false;
    };
    std::array<std::optional<Job>, kInFlight> slots;
    std::vector<Done> done;
    std::size_t next = 0;
    const auto counters0 = poly::storeCounters();
    const auto start = Clock::now();
    const int loop = tr.begin("engine.closed_loop");
    auto submit = [&](std::optional<Job> &slot) {
        const std::size_t c = next % circuits.size();
        engine::ProofRequest req{&s.keys[c]->pk, &circuits[c], nullptr};
        slot.emplace(Job{svc->submit(req), Clock::now(), next++});
    };
    for (auto &slot : slots)
        submit(slot);
    for (;;) {
        bool busy = false, progressed = false;
        for (std::size_t k = 0; k < slots.size(); ++k) {
            auto &slot = slots[k];
            if (!slot)
                continue;
            busy = true;
            if (slot->fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            const auto now = Clock::now();
            // Whole rotations alternate traced / untraced (overhead check).
            const bool traced =
                opt.trace && (slot->index / circuits.size()) % 2 == 0;
            if (traced)
                tr.record("engine.job", slot->submitted, now, loop,
                          int(k) + 1);
            done.push_back({slot->fut.get(), slot->index % circuits.size(),
                            Tracer::ms(slot->submitted, now), traced});
            progressed = true;
            if (msSince(start) < opt.seconds * 1000.0 ||
                (opt.trace && done.size() < 2 * circuits.size()))
                submit(slot);
            else
                slot.reset();
        }
        if (!busy)
            break;
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double wallS = msSince(start) / 1000.0;
    tr.end(loop);
    const auto counters1 = poly::storeCounters();
    const engine::ServiceMetrics sm = svc->metrics();

    std::vector<double> lat, tracedLat, untracedLat, verifyMs;
    std::vector<hyperplonk::ProverStats> stats;
    std::size_t ok = 0;
    for (const Done &d : done) {
        ++rep.attempted;
        const std::string miss =
            d.res.ok ? checkProof(s.keys[d.circuit]->vk, d.res.proof,
                                  s.refBytes[d.circuit], verifyMs, tr)
                     : "service job failed: " + d.res.error;
        if (!miss.empty()) {
            rep.miss(miss);
            continue;
        }
        ++ok;
        lat.push_back(d.ms);
        (d.traced ? tracedLat : untracedLat).push_back(d.ms);
        stats.push_back(d.res.stats);
    }
    {
        hash::Keccak256Sponge sponge(0x01);
        double kb = 0;
        for (const auto &b : s.refBytes) {
            sponge.absorb(b);
            kb += double(b.size()) / 1024.0 / double(s.refBytes.size());
        }
        rep.digest = hash::toHex(sponge.finalize());
        if (!opt.trace)
            rep.set("proof_kb", kb, "KiB", s.refBytes.size());
    }

    if (!opt.trace) {
        rep.set("setup_s", median(setupS), "s", setupS.size());
        rep.set("latency_p50_ms", median(lat), "ms", lat.size());
        rep.set("latency_p90_ms", quantile(lat, 0.9), "ms", lat.size());
        rep.set("latency_geomean_ms", geomean(lat), "ms", lat.size());
        rep.set("proofs_per_s", double(ok) / wallS, "1/s", ok);
        rep.set("verify_geomean_ms", geomean(verifyMs), "ms", verifyMs.size());
        return;
    }
    reportSetupSpans(rep, tr);
    reportProverStats(rep, stats);
    reportOverhead(rep, tracedLat, untracedLat);
    rep.setMedian("hyperplonk.verify_ms", tr.durationsMs("hyperplonk.verify"));
    rep.set("engine.queue_wait_p50_ms", sm.queueWaitMs.quantileMs(0.5), "ms",
            sm.queueWaitMs.count());
    rep.set("engine.setup_phase_p50_ms", sm.setupMs.quantileMs(0.5), "ms",
            sm.setupMs.count());
    rep.set("engine.online_phase_p50_ms", sm.onlineMs.quantileMs(0.5), "ms",
            sm.onlineMs.count());
    const double jobs = double(std::max<std::size_t>(done.size(), 1));
    rep.set("engine.sharded_phases", double(sm.shardedPhases) / jobs, "count",
            done.size());
    rep.set("engine.shard_helper_lanes", double(sm.shardHelperLanes) / jobs,
            "count", done.size());
    rep.set("engine.shard_recalls", double(sm.shardRecalls) / jobs, "count",
            done.size());
    rep.set("engine.retries", double(sm.retries) / jobs, "count",
            done.size());
    reportStoreCounters(rep, counters0, counters1, done.size());
}

// ---------------------------------------------------------------------------
// sumcheck_tableI: proveZero over the Table I gates, whole passes.
// ---------------------------------------------------------------------------

/**
 * A Table I gate made to vanish on the hypercube: random tables honoring
 * the slot roles (vanishingTables), plus one dense correction slot c with
 * c(x) = f(x) and the term -c appended, so (f - c)(x) = 0 for every row and
 * the ZeroCheck must verify. The gate's degree and high-degree terms are
 * unchanged.
 */
poly::GateExpr
vanishing(const gates::Gate &g)
{
    poly::GateExpr e = g.expr;
    const poly::SlotId c = e.addSlot("c");
    e.addTerm(Fr::one().neg(), {c});
    return e;
}

std::vector<Mle>
vanishingTables(const gates::Gate &g, unsigned mu, ff::Rng &rng,
                const rt::Config &cfg)
{
    std::vector<Mle> t = g.randomTables(mu, rng);
    Mle c(mu);
    rt::ScopedConfig scope(cfg);
    rt::parallelForChunks(0, c.size(), [&](std::size_t b, std::size_t e) {
        std::vector<Fr> row(t.size());
        for (std::size_t i = b; i < e; ++i) {
            for (std::size_t s = 0; s < t.size(); ++s)
                row[s] = t[s][i];
            c[i] = g.expr.evaluate(row);
        }
    });
    t.push_back(std::move(c));
    return t;
}

void
absorbFr(hash::Keccak256Sponge &sponge, const Fr &x)
{
    std::uint8_t b[32];
    x.toBytesLe(b);
    sponge.absorb(b);
}

void
runSumcheckTableI(const Options &opt, Tracer &tr, Report &rep)
{
    const unsigned mu = opt.smoke ? 8 : 18;
    const rt::Config cfg = benchConfig();
    describeHost(rep, opt, cfg, ec::currentMsmOptions());

    std::vector<gates::Gate> gates = gates::tableIGates();
    if (opt.smoke)
        gates = {gates[0], gates[7], gates[20], gates[23]};
    std::vector<poly::GateExpr> exprs;
    for (const auto &g : gates)
        exprs.push_back(vanishing(g));
    rep.host.push_back({"workload.mu", std::to_string(mu)});
    rep.host.push_back({"workload.gate_system",
                        "Table I (" + std::to_string(gates.size()) +
                            " gates, + correction slot)"});
    rep.host.push_back({"workload.clients", "1 (sequential passes)"});

    // Set-up is the masked GatePlan of every gate on a fresh cache, then one
    // warm-up ZeroCheck per gate at a smaller size, like the warm-up proof of
    // the proving workloads. Lowering alone takes well under a millisecond,
    // too little to time steadily on a shared host. Warm-up tables are made
    // before the timer; the warm-up proofs are checked after it.
    const unsigned warmMu = opt.smoke ? 6 : 14;
    ff::Rng warmRng(~opt.seed);
    std::vector<double> setupS;
    std::vector<std::shared_ptr<const poly::GatePlan>> plans;
    for (unsigned k = 0; k < (opt.trace ? 1u : 3u); ++k) {
        std::vector<std::vector<Mle>> warmTables;
        for (const auto &g : gates)
            warmTables.push_back(vanishingTables(g, warmMu, warmRng, cfg));
        std::vector<sumcheck::ZerocheckProverOutput> warm(gates.size());
        gates::PlanCache cache;
        plans.clear();
        const auto t0 = Clock::now();
        {
            Scope sp(tr, "poly.plan_lowering");
            for (const auto &e : exprs)
                plans.push_back(cache.maskedPlan(e));
        }
        {
            Scope sp(tr, "bench.warmup");
            for (std::size_t i = 0; i < gates.size(); ++i) {
                hash::Transcript tp("zkbench/tableI");
                warm[i] = sumcheck::proveZero(
                    exprs[i], std::move(warmTables[i]), tp, cfg, plans[i]);
            }
        }
        setupS.push_back(msSince(t0) / 1000.0);
        for (std::size_t i = 0; i < gates.size(); ++i) {
            ++rep.attempted;
            hash::Transcript tv("zkbench/tableI");
            const auto vr =
                sumcheck::verifyZero(exprs[i], warm[i].proof, warmMu, tv);
            if (!vr.ok)
                rep.miss("warm-up gate " + std::to_string(gates[i].id) +
                         " verifyZero: " + vr.error);
        }
    }

    ff::Rng rng(opt.seed);
    std::vector<std::vector<double>> perGate(gates.size());
    std::vector<double> lat, verifyMs, passMs, tracedPass, untracedPass;
    std::size_t proofBytes = 0;
    hash::Keccak256Sponge sponge(0x01);
    const auto start = Clock::now();
    for (std::size_t pass = 0;
         msSince(start) < opt.seconds * 1000.0 || (opt.trace && pass < 2);
         ++pass) {
        const bool traced = opt.trace && pass % 2 == 0;
        std::optional<Scope> passSpan;
        if (traced)
            passSpan.emplace(tr, "sumcheck.tableI_pass");
        double proving = 0;
        for (std::size_t i = 0; i < gates.size(); ++i) {
            std::vector<Mle> tables = vanishingTables(gates[i], mu, rng, cfg);
            std::vector<Mle> arg = tables;
            char name[40];
            std::snprintf(name, sizeof name, "sumcheck.tableI.g%02d",
                          gates[i].id);
            hash::Transcript tp("zkbench/tableI");
            sumcheck::ZerocheckProverOutput out;
            const auto t0 = Clock::now();
            {
                std::optional<Scope> sp;
                if (traced)
                    sp.emplace(tr, name);
                out = sumcheck::proveZero(exprs[i], std::move(arg), tp, cfg,
                                          plans[i]);
            }
            const double d = msSince(t0);
            proving += d;
            lat.push_back(d);
            perGate[i].push_back(d);

            ++rep.attempted;
            hash::Transcript tv("zkbench/tableI");
            const auto v0 = Clock::now();
            sumcheck::ZerocheckVerifyResult vr;
            {
                std::optional<Scope> sp;
                if (traced)
                    sp.emplace(tr, "sumcheck.verify_zero");
                vr = sumcheck::verifyZero(exprs[i], out.proof, mu, tv);
            }
            verifyMs.push_back(msSince(v0));
            if (!vr.ok)
                rep.miss(std::string(name) + " verifyZero: " + vr.error);
            else if (!(vr.slotEvals[0] == tables[0].evaluate(vr.challenges)))
                rep.miss(std::string(name) + " slot 0 eval not bound");
            if (pass == 0) {
                for (const auto &round : out.proof.sc.roundEvals)
                    for (const Fr &x : round)
                        absorbFr(sponge, x);
                for (const Fr &x : out.proof.sc.finalSlotEvals)
                    absorbFr(sponge, x);
                proofBytes += out.proof.sizeBytes();
            }
        }
        passMs.push_back(proving);
        (traced ? tracedPass : untracedPass).push_back(proving);
    }
    rep.digest = hash::toHex(sponge.finalize());

    std::vector<double> gateMedians;
    for (const auto &v : perGate)
        gateMedians.push_back(median(v));
    if (!opt.trace) {
        rep.set("setup_s", median(setupS), "s", setupS.size());
        rep.set("latency_p50_ms", median(lat), "ms", lat.size());
        rep.set("latency_p90_ms", quantile(lat, 0.9), "ms", lat.size());
        rep.set("latency_geomean_ms", geomean(lat), "ms", lat.size());
        rep.set("sumcheck_geomean_ms", geomean(gateMedians), "ms",
                lat.size());
        double total = 0;
        for (double p : passMs)
            total += p;
        rep.set("proofs_per_s", double(lat.size()) / (total / 1000.0), "1/s",
                lat.size());
        rep.set("verify_geomean_ms", geomean(verifyMs), "ms", verifyMs.size());
        rep.set("proof_kb", double(proofBytes) / 1024.0 / double(gates.size()),
                "KiB", gates.size());
        return;
    }
    reportOverhead(rep, tracedPass, untracedPass);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        char name[40];
        std::snprintf(name, sizeof name, "sumcheck.tableI.g%02d", gates[i].id);
        rep.setMedian(std::string(name) + "_ms", tr.durationsMs(name));
    }
    rep.setMedian("sumcheck.verify_zero_ms",
                  tr.durationsMs("sumcheck.verify_zero"));
    {
        rt::ScopedConfig scope(cfg);
        std::vector<Fr> r;
        for (unsigned i = 0; i < mu; ++i)
            r.push_back(Fr::random(rng));
        for (int k = 0; k < 5; ++k) {
            Scope sp(tr, "poly.eq_table");
            Mle eq = Mle::eqTable(r);
        }
        rep.setMedian("poly.eq_table_ms", tr.durationsMs("poly.eq_table"));
    }

    sim::CpuModel cpu;
    cpu.threads = cfg.threads;
    const sim::ChipConfig chip = sim::ChipConfig::exemplar();
    std::vector<double> cpuMs, unitMs;
    for (const auto &g : gates) {
        const auto shape = sim::PolyShape::fromGate(g);
        cpuMs.push_back(cpu.sumcheckMs(shape, mu));
        unitMs.push_back(sim::simulateSumcheck(chip.sumcheck,
                                               {shape, mu, -1},
                                               chip.bandwidthGBs)
                             .timeMs());
    }
    rep.set("sim.cpu_model.sumcheck_geomean_ms", geomean(cpuMs), "ms",
            gates.size());
    rep.set("sim.sumcheck_unit.geomean_ms", geomean(unitMs), "ms",
            gates.size());

    std::printf("\nmodel beside measurement (ms per gate; measured = median)\n"
                "  sim::CpuModel constants are fitted to the paper's EPYC 7502 "
                "anchors and have\n  not been re-validated on this host; no "
                "model error is claimed.\n");
    std::printf("  %-6s %6s %12s %12s %14s\n", "gate", "degree", "measured",
                "cpu_model", "sumcheck_unit");
    for (std::size_t i = 0; i < gates.size(); ++i)
        std::printf("  g%02d    %6zu %12.2f %12.2f %14.4f\n", gates[i].id,
                    gates[i].degree(), gateMedians[i], cpuMs[i], unitMs[i]);
    std::printf("  %-13s %12.2f %12.2f %14.4f\n", "geomean",
                geomean(gateMedians), geomean(cpuMs), geomean(unitMs));
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

void
jsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    out += '"';
}

void
printSelfTimes(const Tracer &tr, Report &rep)
{
    auto self = tr.selfMsByLayer();
    double total = 0;
    for (const auto &[layer, ms] : self)
        total += ms;
    std::printf("\nself time per layer (%zu spans, benchmark-side spans "
                "only)\n  %-12s %12s %8s\n",
                tr.all().size(), "layer", "self_ms", "share");
    for (const auto &[layer, ms] : self)
        std::printf("  %-12s %12.2f %7.1f%%\n", layer.c_str(), ms,
                    total > 0 ? 100.0 * ms / total : 0.0);
    for (const char *l :
         {"hyperplonk", "engine", "pcs", "sumcheck", "poly", "ff"})
        rep.set(std::string("self.") + l + "_ms", self[l], "ms");
    rep.set("trace.spans", double(tr.all().size()), "count");
}

void
emit(const Options &opt, const Report &rep)
{
    std::printf("\nworkload %s  seed %llu  trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    for (const auto &[k, v] : rep.host)
        std::printf("  host.%-28s %s\n", k.c_str(), v.c_str());
    std::printf("  proof digest (keccak256)       %s\n", rep.digest.c_str());
    std::printf("  %-36s %16s %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const auto &[name, m] : rep.metrics)
        std::printf("  %-36s %16.6g %-6s %8zu\n", name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    std::printf("  %-36s %16.6g %-6s %8llu\n", "fail_ratio",
                rep.attempted ? double(rep.failed) / double(rep.attempted)
                              : 1.0,
                "ratio", static_cast<unsigned long long>(rep.attempted));
    for (const auto &e : rep.errors)
        std::printf("  MISS: %s\n", e.c_str());

    std::string j = "{\"workload\":";
    jsonString(j, opt.workload);
    j += ",\"correct\":";
    j += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
    j += ",\"attempted\":" + std::to_string(rep.attempted);
    j += ",\"failed\":" + std::to_string(rep.failed);
    j += ",\"digest\":";
    jsonString(j, rep.digest);
    j += ",\"host\":{";
    for (std::size_t i = 0; i < rep.host.size(); ++i) {
        if (i)
            j += ',';
        jsonString(j, rep.host[i].first);
        j += ':';
        jsonString(j, rep.host[i].second);
    }
    j += "},\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : rep.metrics) {
        if (!first)
            j += ',';
        first = false;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        jsonString(j, name);
        j += ":{\"value\":";
        j += num;
        j += ",\"unit\":";
        jsonString(j, m.unit);
        j += ",\"samples\":" + std::to_string(m.samples) + "}";
    }
    j += "}}";
    std::printf("ZKBENCH_RESULT %s\n", j.c_str());
    std::fflush(stdout);
}

/** Refuse to run when the environment would silently change the
 *  configuration the result block reports. */
bool
environmentClean()
{
    bool clean = true;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        const std::string name = kv.substr(0, kv.find('='));
        if (name.rfind("ZKPHIRE_STREAM", 0) == 0 || name == "ZKPHIRE_THREADS") {
            std::fprintf(stderr, "zkbench: %s is set; unset it (the benchmark "
                                 "passes its configuration explicitly)\n",
                         name.c_str());
            clean = false;
        }
    }
    return clean;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: zkbench --workload {prove_jellyfish_mu14|"
                 "service_mixed_mu12|sumcheck_tableI_mu18} [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke")
            opt.smoke = true;
        else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                  a == "--trace" || a == "--trace-out") &&
                 (v = value()) != nullptr) {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::strtoull(v, nullptr, 10);
            else if (a == "--seconds")
                opt.seconds = std::strtod(v, nullptr);
            else if (a == "--trace")
                opt.trace = std::strcmp(v, "0") != 0;
            else
                opt.traceOut = v;
        } else
            return usage();
    }
    if (!environmentClean())
        return 2;

    using Runner = void (*)(const Options &, Tracer &, Report &);
    const std::map<std::string, Runner> runners{
        {"prove_jellyfish_mu14", runProveJellyfish},
        {"service_mixed_mu12", runServiceMixed},
        {"sumcheck_tableI_mu18", runSumcheckTableI},
    };
    const auto it = runners.find(opt.workload);
    if (it == runners.end())
        return usage();

    Tracer tr(opt.trace);
    Report rep;
    if (opt.trace)
        for (const auto &[name, unit] : layerMetricNames())
            rep.set(name, 0.0, unit.c_str(), 0);
    try {
        it->second(opt, tr, rep);
    } catch (const std::exception &e) {
        rep.miss(std::string("exception: ") + e.what());
        ++rep.attempted;
    }
    if (opt.trace) {
        printSelfTimes(tr, rep);
        if (!opt.traceOut.empty() && !tr.writeChrome(opt.traceOut))
            rep.miss("cannot write " + opt.traceOut);
        else if (!opt.traceOut.empty())
            std::printf("chrome trace: %s\n", opt.traceOut.c_str());
    } else {
        rep.set("peak_rss_mb", peakRssMb(), "MB");
    }
    emit(opt, rep);
    return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}
