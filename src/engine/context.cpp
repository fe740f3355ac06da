#include "engine/context.hpp"

#include "rt/parallel.hpp"

namespace zkphire::engine {

ProverContext::ProverContext(const pcs::Srs &srs, rt::Config config)
    : srsRef(srs), cfg(config)
{
}

const hyperplonk::Keys &
ProverContext::preprocess(const hyperplonk::Circuit &circuit)
{
    rt::ScopedConfig scope(config());
    ec::ScopedMsmOptions msm_scope(msmOptions());
    hyperplonk::Keys keys = hyperplonk::setup(circuit, srsRef);
    std::lock_guard<std::mutex> lock(keysMu);
    ownedKeys.push_back(std::move(keys));
    return ownedKeys.back();
}

hyperplonk::ProveOptions
ProverContext::proveOptions(const rt::Config *rtOverride,
                            rt::UnitRunner *units) const
{
    hyperplonk::ProveOptions opts;
    {
        std::lock_guard<std::mutex> lock(cfgMu);
        opts.rt = rtOverride ? *rtOverride : cfg;
        opts.msm = msmOpts;
    }
    opts.plans = &planCache;
    opts.units = units;
    opts.arena = &bufferArena;
    return opts;
}

hyperplonk::HyperPlonkProof
ProverContext::prove(const hyperplonk::ProvingKey &pk,
                     const hyperplonk::Circuit &circuit,
                     hyperplonk::ProverStats *stats,
                     const rt::Config *rtOverride) const
{
    return hyperplonk::prove(pk, circuit, stats, proveOptions(rtOverride));
}

} // namespace zkphire::engine
